// Command benchmark is the poilabel benchmark: it builds cmd/poiserve from
// the checked-out tree, generates a seeded labelling campaign, runs one of
// four fixed-work workloads against it, checks the outputs, and prints every
// metric by name with its unit. See README.md in this directory.
//
//	go run ./benchmark -workload closed-single -seed 1 -seconds 10 -trace 0
//	go run ./benchmark                       # all workloads, both modes
//	go run ./benchmark compare A.json B.json
//	go run ./benchmark manifest              # prints BENCHMARK.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

func main() {
	//lint:ignore ctxflow a command's root context; poivet tells commands by a cmd/ path segment, which this directory cannot have
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:])
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:])
		case "manifest":
			return manifestMain()
		}
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: closed-single, open-sharded, drift-elastic or batch (empty = all four, traced and untraced)")
	seed := fs.Int64("seed", 1, "seed of the world, the traffic schedule and the simulated answers")
	seconds := fs.Float64("seconds", referenceSeconds, "sizes the fixed work: op counts are per-second constants times this")
	trace := fs.Int("trace", 0, "0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics")
	repeat := fs.Int("repeat", 1, "with no -workload: run this many full sets, set k with seed+k")
	outPath := fs.String("out", "", "with no -workload: write the result file here (default benchmark/out/result.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected arguments %v or -trace %d (want 0 or 1)\n", fs.Args(), *trace)
		return 2
	}
	if *workload == "" {
		return runAll(ctx, *seed, *seconds, max(1, *repeat), *outPath)
	}

	rep, err := runWorkload(ctx, *workload, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", *workload, err)
		return 1
	}
	printReport(rep)
	// The last line of standard output is the result the harness reads.
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// printReport lists every metric of one run by name, with its unit.
func printReport(rep *report) {
	mode := "untraced"
	if rep.Traced {
		mode = "traced"
	}
	fmt.Printf("== %s (%s, seed %d, %gs of work, schedule %s)\n", rep.Workload, mode, rep.Seed, rep.Seconds, rep.ScheduleHash)
	fmt.Printf("   measured phase %.2fs; ops attempted %d, failed %d; %d sessions, %d pairs handed out, %d answers acknowledged\n",
		rep.MeasuredS, rep.Attempted, rep.Failed, rep.Ops["sessions"], rep.Ops["pairs_handed_out"], rep.Ops["answers_acked"])
	fmt.Printf("   latency samples: assign %d, answer %d, results %d\n", rep.Samples["assign"], rep.Samples["answer"], rep.Samples["results"])
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("   %-34s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	for _, f := range rep.Failures {
		fmt.Printf("   FAILED: %s\n", f)
	}
	if rep.TraceFile != "" {
		fmt.Printf("   spans: %s\n", rep.TraceFile)
	}
}
