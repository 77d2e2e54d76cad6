package experiment

// Perf reports are the repository's tracked performance trajectory: the
// `poibench -json` mode runs reduced scalability sweeps over the two hot
// paths — full-EM inference and AccOpt assignment — and writes the results
// as BENCH_inference.json / BENCH_assign.json. Committing those files after
// perf-relevant changes records how the hot paths evolve from PR to PR;
// see PERFORMANCE.md for the workflow.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"poilabel/internal/trace"
)

// PerfSeries is one measured curve of a perf report: a metric sampled
// across a swept size axis.
type PerfSeries struct {
	// Label names the metric, e.g. "full_em_seconds".
	Label string `json:"label"`
	// X holds the sweep points (answer counts, task counts, ...).
	X []int `json:"x"`
	// Y[i] is the measurement at X[i].
	Y []float64 `json:"y"`
}

// PerfReport is the schema of the BENCH_*.json files.
type PerfReport struct {
	// Name identifies the tracked path: "inference" or "assign".
	Name string `json:"name"`
	// Seed is the scenario seed the sweep ran under.
	Seed int64 `json:"seed"`
	// GoVersion, GOOS, GOARCH, and NumCPU describe the machine the numbers
	// were taken on; compare reports only within a matching environment.
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// GeneratedAt is the RFC 3339 timestamp of the run.
	GeneratedAt string       `json:"generated_at"`
	Series      []PerfSeries `json:"series"`
}

// Reduced sweeps for the tracked baselines: big enough to exercise the
// asymptotics, small enough that regenerating the reports stays in tens of
// seconds.
var (
	PerfInferenceSizes    = []int{10000, 20000, 40000}
	PerfAssignTaskCounts  = []int{2000, 6000, 10000}
	PerfAssignWorkerCount = []int{20, 60, 100}
)

func newPerfReport(name string, seed int64) *PerfReport {
	return &PerfReport{
		Name:        name,
		Seed:        seed,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
}

// RunPerfInference measures the full-EM fit across answer counts (the
// Figure 13 sweep at the tracked sizes) and packages it as a report.
func RunPerfInference(seed int64) (*PerfReport, error) {
	fig13, err := RunFig13(seed, PerfInferenceSizes)
	if err != nil {
		return nil, err
	}
	iters := make([]float64, len(fig13.Iterations))
	perIter := make([]float64, len(fig13.Iterations))
	for i, n := range fig13.Iterations {
		iters[i] = float64(n)
		if n > 0 {
			perIter[i] = fig13.Seconds[i] / float64(n)
		}
	}
	r := newPerfReport("inference", seed)
	r.Series = []PerfSeries{
		{Label: "full_em_seconds", X: fig13.Assignments, Y: fig13.Seconds},
		{Label: "em_iterations", X: fig13.Assignments, Y: iters},
		{Label: "seconds_per_iteration", X: fig13.Assignments, Y: perIter},
		traceOverheadSeries(),
	}
	return r, nil
}

// traceSpansPerTrace is the span count per measured trace in the
// trace_span_overhead_ns series (and its X value): a request-shaped tree
// plus a fit-shaped fan-out, near the tracer's MaxSpans default.
const traceSpansPerTrace = 100

// traceOverheadSeries measures the tracing subsystem's per-span cost: the
// amortized nanoseconds for one Start/End pair inside a live trace,
// including the root-End render and ring push each trace pays once. This is
// the number the "tracing stays within 5% of tracing-off" serving claim
// rests on, so it is tracked like the hot paths.
func traceOverheadSeries() PerfSeries {
	tr := trace.New(trace.Config{SlowThreshold: time.Hour})
	const traces = 3000
	start := time.Now()
	for t := 0; t < traces; t++ {
		//lint:ignore ctxflow the measured loop is the root of this benchmark; there is no caller context to thread
		ctx, root := tr.StartRoot(context.Background(), "fit.cycle", 0)
		for i := 1; i < traceSpansPerTrace; i++ {
			_, sp := trace.Start(ctx, "fit.shard")
			sp.End()
		}
		root.End()
	}
	perSpan := float64(time.Since(start).Nanoseconds()) / float64(traces*traceSpansPerTrace)
	return PerfSeries{Label: "trace_span_overhead_ns", X: []int{traceSpansPerTrace}, Y: []float64{perSpan}}
}

// RunPerfAssign measures AccOpt assignment rounds across task and worker
// counts (the Figure 14 sweeps at the tracked sizes), plus the lock-free
// serving path's per-request planning cost: snapshot candidate-list build
// (cold, first plan per worker per generation) and cached rescan (warm,
// every plan after that) across the task sweep.
func RunPerfAssign(seed int64) (*PerfReport, error) {
	fig14, err := RunFig14(seed, PerfAssignTaskCounts, PerfAssignWorkerCount)
	if err != nil {
		return nil, err
	}
	coldMs := make([]float64, len(PerfAssignTaskCounts))
	warmMs := make([]float64, len(PerfAssignTaskCounts))
	for i, nt := range PerfAssignTaskCounts {
		coldMs[i], warmMs[i], err = timeSnapshotPlan(nt, 100, seed)
		if err != nil {
			return nil, err
		}
	}
	r := newPerfReport("assign", seed)
	r.Series = []PerfSeries{
		{Label: "accopt_ms_by_tasks", X: fig14.TaskCounts, Y: fig14.TaskMs},
		{Label: "accopt_ms_by_workers", X: fig14.WorkerCounts, Y: fig14.WorkerMs},
		{Label: "plan_cold_ms_by_tasks", X: PerfAssignTaskCounts, Y: coldMs},
		{Label: "plan_warm_ms_by_tasks", X: PerfAssignTaskCounts, Y: warmMs},
	}
	return r, nil
}

// WriteFile stores the report as indented JSON at path.
func (r *PerfReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("experiment: marshal perf report: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("experiment: write perf report: %w", err)
	}
	return nil
}
