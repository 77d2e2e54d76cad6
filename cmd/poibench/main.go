// Command poibench regenerates the paper's tables and figures.
//
// Usage:
//
//	poibench [-seed N] [-shards K] [-list] [-json dir] <experiment-id>... | all
//
// Each experiment id corresponds to one table or figure of the paper's
// evaluation section (fig6..fig14, table1, table2), an ablation study
// (ablation-alpha, ablation-funcset, ablation-update, ablation-greedy, ...),
// or an extension scenario such as sharded (single model vs K geographic
// shards on the Fig13 workload; -shards sets K). Output is the same
// rows/series the paper reports, as aligned text tables.
//
// With -json dir, poibench instead (or additionally) runs the tracked
// hot-path sweeps and writes dir/BENCH_inference.json and
// dir/BENCH_assign.json — the perf-trajectory baselines described in
// PERFORMANCE.md. They are historical records: regressions are gated by the
// repository benchmark (benchmark/README.md), which compares same-run pairs
// instead of absolute baselines.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"poilabel/internal/experiment"
)

func main() {
	seed := flag.Int64("seed", 7, "scenario seed (population and answers)")
	list := flag.Bool("list", false, "list available experiment ids and exit")
	outDir := flag.String("out", "", "also write each experiment's output to <dir>/<id>.txt")
	jsonDir := flag.String("json", "", "run the tracked perf sweeps and write BENCH_*.json to <dir>")
	shards := flag.Int("shards", 0, "shard count for the 'sharded' experiment (0 = default)")
	snapBench := flag.Bool("snapbench", false, "measure snapshot encode/decode throughput on the L-size Fig13 workload")
	flag.Usage = usage
	flag.Parse()

	if *shards > 0 {
		experiment.ShardCount = *shards
	}

	reg := experiment.Registry()
	if *list {
		for _, id := range experiment.IDs() {
			fmt.Println(id)
		}
		return
	}

	if *jsonDir != "" {
		if err := writePerfReports(*jsonDir, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "poibench: %v\n", err)
			os.Exit(1)
		}
		if flag.NArg() == 0 && !*snapBench {
			return
		}
	}

	if *snapBench {
		out, err := experiment.RunSnapshotBench(*seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "poibench: snapbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(out)
		if flag.NArg() == 0 {
			return
		}
	}

	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	if len(args) == 1 && args[0] == "all" {
		args = experiment.IDs()
		// table2 output is included in fig11; skip the duplicate.
		args = remove(args, "table2")
	}

	failed := false
	for _, id := range args {
		run, ok := reg[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "poibench: unknown experiment %q (use -list)\n", id)
			failed = true
			continue
		}
		start := time.Now()
		res, err := run(*seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "poibench: %s: %v\n", id, err)
			failed = true
			continue
		}
		out := fmt.Sprintf("### %s (seed %d, %s)\n\n%s\n", id, *seed, time.Since(start).Round(time.Millisecond), res)
		fmt.Print(out)
		if *outDir != "" {
			if err := writeOutput(*outDir, id, out); err != nil {
				fmt.Fprintf(os.Stderr, "poibench: %v\n", err)
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: poibench [-seed N] [-shards K] [-json dir] <experiment-id>... | all

Regenerates the evaluation tables and figures of "Crowdsourced POI
Labelling: Location-Aware Result Inference and Task Assignment" (ICDE'16).

Experiments:
`)
	for _, id := range experiment.IDs() {
		fmt.Fprintf(os.Stderr, "  %s\n", id)
	}
}

// writePerfReports runs the tracked inference and assignment sweeps and
// stores them as BENCH_inference.json / BENCH_assign.json under dir.
func writePerfReports(dir string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create perf output dir: %w", err)
	}
	for _, run := range []struct {
		name string
		fn   func(int64) (*experiment.PerfReport, error)
	}{
		{"BENCH_inference.json", experiment.RunPerfInference},
		{"BENCH_assign.json", experiment.RunPerfAssign},
	} {
		start := time.Now()
		r, err := run.fn(seed)
		if err != nil {
			return fmt.Errorf("%s: %w", run.name, err)
		}
		path := filepath.Join(dir, run.name)
		if err := r.WriteFile(path); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%s)\n", path, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// writeOutput stores one experiment's rendered output under dir.
func writeOutput(dir, id, out string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create output dir: %w", err)
	}
	path := filepath.Join(dir, id+".txt")
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

func remove(xs []string, x string) []string {
	out := xs[:0]
	for _, v := range xs {
		if v != x {
			out = append(out, v)
		}
	}
	return out
}
