package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"poilabel/internal/model"
)

// outDir receives trace files and result files; .gitignore names it.
var outDir = filepath.Join("benchmark", "out")

// outcome is what one workload run observed, before it is turned into named
// metrics.
type outcome struct {
	attempted int
	failed    int
	failures  []string // the first few, for the report

	sessions     int
	handed       int // pairs handed out
	acked        int // answers acknowledged
	emptyAssigns int

	// inflightMS are the reads of the results a workload makes beside its
	// writes; settledMS holds, per cycle of the replay tail, the median read of
	// the settled results.
	assignMS, answerMS, inflightMS, settledMS, sendLagMS []float64
	settledReads                                         int

	setupS          float64
	trafficS        float64 // all traffic, warm-up included, probe pauses excluded
	measuredS       float64
	answersPerS     float64
	lateAnswersPerS float64
	accuracy        float64
	peakRSSMB       float64
	freshWaitS      float64
	resultsBytes    int
	fitSeconds      []float64 // batch: the collect phase's explicit fits

	log          []model.Answer
	scheduleHash string
	health       *health            // serving: the server's counters after settling
	series       map[string]float64 // serving: GET /metrics after settling
	layer        map[string]float64 // traced: per-layer metrics gathered on the way
}

func newOutcome() *outcome { return &outcome{layer: make(map[string]float64)} }

// fail counts one failed operation or violated check.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// readSettled is one tail cycle's reads of the settled results: n of them,
// their median kept.
func (o *outcome) readSettled(n int, read func() (time.Duration, error)) error {
	reads := make([]float64, n)
	for i := range reads {
		d, err := read()
		if err != nil {
			return err
		}
		reads[i] = ms(d)
	}
	o.settledMS = append(o.settledMS, median(reads))
	o.settledReads += n
	return nil
}

func hashSchedule(sessions []session) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, s := range sessions {
		_ = enc.Encode(s) // a hash never fails to write, a session always encodes
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one run of one workload in one mode.
type report struct {
	Workload     string           `json:"workload"`
	Seed         int64            `json:"seed"`
	Seconds      float64          `json:"seconds"`
	Traced       bool             `json:"traced"`
	Correct      bool             `json:"correct"`
	Attempted    int              `json:"attempted"`
	Failed       int              `json:"failed"`
	Failures     []string         `json:"failures,omitempty"`
	Metrics      map[string]value `json:"metrics"`
	ScheduleHash string           `json:"schedule_hash"`
	// Ops are the fixed op counts of this (workload, seconds) pair and what
	// the run made of them.
	Ops map[string]int `json:"ops"`
	// MeasuredS is the length of the measured phase.
	MeasuredS float64 `json:"measured_s"`
	// Samples are the sample counts behind the latency percentiles.
	Samples   map[string]int `json:"samples"`
	TraceFile string         `json:"trace_file,omitempty"`
}

// runWorkload runs one workload once, untraced (end-to-end metrics) or
// traced (per-layer metrics).
func runWorkload(ctx context.Context, name string, seed int64, seconds float64, traced bool) (*report, error) {
	s, err := newSpec(name, seconds)
	if err != nil {
		return nil, err
	}
	return runSpec(ctx, s, seed, traced)
}

// runSpec runs a sized workload once.
func runSpec(ctx context.Context, s spec, seed int64, traced bool) (*report, error) {
	w, err := newWorld(s.tasks, numWorkers, seed)
	if err != nil {
		return nil, err
	}
	var rec *recorder
	var pr *prober
	if traced {
		rec = newRecorder()
		pr = newProber(ctx, s, w, seed, rec)
	}

	var out *outcome
	var aft *after
	if s.loop == loopBatch {
		out, aft, err = runBatch(ctx, s, w, seed, rec, pr)
	} else {
		bin := ""
		if !traced {
			if bin, err = buildServer(ctx); err != nil {
				return nil, err
			}
		}
		out, aft, err = runServing(ctx, s, w, seed, bin, rec, pr)
	}
	if err != nil {
		return nil, err
	}

	tail, err := runTail(ctx, w, out.log, tailRoundWorkers(w, seed), rec, aft.each)
	if cerr := aft.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	for _, f := range tail.failures {
		out.fail("%s", f)
	}
	if out.accuracy < minAccuracy {
		out.fail("label accuracy %.4f below %.2f", out.accuracy, minAccuracy)
	}

	rep := &report{
		Workload: s.name, Seed: seed, Seconds: s.seconds, Traced: traced,
		Attempted: out.attempted, ScheduleHash: out.scheduleHash, MeasuredS: out.measuredS,
		Ops: map[string]int{
			"sessions_scheduled": s.sessions, "budget": s.budget,
			"sessions": out.sessions, "pairs_handed_out": out.handed, "answers_acked": out.acked,
		},
		Samples: map[string]int{
			"assign": len(out.assignMS), "answer": len(out.answerMS), "results": out.settledReads,
		},
	}
	if traced {
		rep.Metrics = perLayer(s, out, pr, rec)
		if rep.TraceFile, err = rec.write(outDir, s.name); err != nil {
			return nil, err
		}
	} else {
		rep.Metrics = endToEnd(out, tail)
	}
	for name, v := range rep.Metrics {
		if v.Value != v.Value || (!traced && v.Value <= 0) {
			out.fail("metric %s reads %v", name, v.Value)
		}
	}
	rep.Failed, rep.Failures, rep.Correct = out.failed, out.failures, out.failed == 0
	return rep, nil
}

// endToEnd names what a user of the system would see. Every workload reports
// every metric: the latency and throughput numbers come from its own
// traffic, the fit, round and restart numbers from the replay tail on the
// answers that traffic collected. results_p50_ms is the median read of the
// settled results in the fastest cycle of the tail, like the tail's own
// timings. (open-sharded's reads beside its writes spread by 0.44 and 0.50
// over two sets of ten runs; they are the layer metric
// client.results_inflight_p50_ms.)
func endToEnd(o *outcome, t *tailResult) map[string]value {
	v := map[string]float64{
		"setup_s":                  o.setupS,
		"answers_per_s":            o.answersPerS,
		"post_drift_answers_per_s": o.lateAnswersPerS,
		"assign_p50_ms":            quantile(o.assignMS, 0.50),
		"answer_p50_ms":            quantile(o.answerMS, 0.50),
		"results_p50_ms":           minOf(o.settledMS),
		"label_accuracy":           o.accuracy,
		"peak_rss_mb":              o.peakRSSMB,
		"assign_round_ms":          t.roundMS,
		"fit_single_s":             t.fitS["single"],
		"fit_sharded_s":            t.fitS["sharded"],
		"fit_federated_s":          t.fitS["federated"],
		"restore_s":                t.restoreS,
	}
	out := make(map[string]value, len(endToEndDecl))
	for _, d := range endToEndDecl {
		out[d.Name] = value{v[d.Name], d.Unit}
	}
	return out
}
