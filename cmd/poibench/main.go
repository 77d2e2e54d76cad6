// Command poibench regenerates the paper's label-accuracy tables and figures.
//
// Usage:
//
//	poibench [-seed N] [-list] [-out dir] <experiment-id>... | all
//
// Each experiment id is one table or figure of the paper's evaluation
// section (fig6..fig11, table1; fig11 also prints Table II), an ablation
// EXPERIMENTS.md states a claim for (ablation-greedy, ablation-update,
// ablation-stopping, ablation-calibration, ablation-adversary), or multiseed,
// the 20-seed ordering counts over seeds N, N+7, …, N+133 (-seed 101 prints
// what TestPaperOrderings asserts). Output is the same rows/series the paper
// reports, as aligned text tables. The wall-clock figures (12–14) are
// benchmarks: go test -bench and go run ./benchmark (EXPERIMENTS.md).
//
// With -out dir each experiment's output is also written to dir/<id>.txt,
// without the timed header stdout carries, so the files are diffable. Every
// id but multiseed is pinned as a golden at seed 7:
//
//	poibench -out internal/experiment/testdata/paper fig6 fig7 fig8 table1 fig9 fig10 fig11 \
//		ablation-greedy ablation-update ablation-stopping ablation-calibration ablation-adversary
//
// regenerates them (TestPaperOutputsGolden compares byte for byte).
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
	flag.Usage = usage
	flag.Parse()

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
	fmt.Fprintf(os.Stderr, `usage: poibench [-seed N] [-list] [-out dir] <experiment-id>... | all

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
