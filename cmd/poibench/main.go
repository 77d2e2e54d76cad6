// Command poibench regenerates the paper's tables and figures.
//
// Usage:
//
//	poibench [-seed N] [-shards K] [-list] [-out dir] <experiment-id>... | all
//
// Each experiment id corresponds to one table or figure of the paper's
// evaluation section (fig6..fig14, table1, table2), an ablation study
// (ablation-alpha, ablation-funcset, ablation-update, ablation-greedy, ...),
// or an extension scenario such as sharded (single model vs K geographic
// shards on the Fig13 workload; -shards sets K). Output is the same
// rows/series the paper reports, as aligned text tables.
//
// With -out dir each experiment's output is also written to dir/<id>.txt,
// without the timed header stdout carries, so the files are diffable. The
// ids whose output holds no wall-clock column are pinned as goldens:
//
//	poibench -out internal/experiment/testdata/paper fig6 fig7 fig8 table1 fig9 fig10 fig11
//
// regenerates them (TestPaperOutputsGolden compares byte for byte). Wall-clock
// numbers come from the repository benchmark, not from here: go run ./benchmark.
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
	shards := flag.Int("shards", 0, "shard count for the 'sharded' experiment (0 = default)")
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
		elapsed := time.Since(start).Round(time.Millisecond)
		out := res.String()
		fmt.Printf("### %s (seed %d, %s)\n\n%s\n", id, *seed, elapsed, out)
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
	fmt.Fprintf(os.Stderr, `usage: poibench [-seed N] [-shards K] [-list] [-out dir] <experiment-id>... | all

Regenerates the evaluation tables and figures of "Crowdsourced POI
Labelling: Location-Aware Result Inference and Task Assignment" (ICDE'16).

Experiments:
`)
	for _, id := range experiment.IDs() {
		fmt.Fprintf(os.Stderr, "  %s\n", id)
	}
}

// writeOutput stores one experiment's rendered output under dir: the
// runner's output only, no elapsed time, so reruns are byte-identical.
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
