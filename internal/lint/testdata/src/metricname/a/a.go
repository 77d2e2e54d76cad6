// Package a is the metricname fixture: registrations off the naming
// conventions and sentinel comparisons with == are flagged; conforming
// names, nil checks, and errors.Is are not.
package a

import (
	"context"
	"errors"

	"metricname/internal/metrics"
	"metricname/internal/trace"
)

func register(r *metrics.Registry) {
	r.Counter("mysystem_requests_total", "bad prefix")              // want `outside the poilabel_\*/poiserve_\* namespaces`
	r.Counter("poilabel_requests", "no suffix")                     // want `must end in _total`
	r.Histogram("poiserve_latency_ms", "wrong unit")                // want `must end in _seconds`
	r.Gauge("poilabel_stuff_total", "gauge as counter")             // want `must not end in _total`
	r.CounterVec("poiserve_reqs_total", "label", "Endpoint")        // want `label "Endpoint" must be lower_snake_case`
	r.GaugeVecFunc("poilabel_shard_work_total", "gauge as counter", // want `must not end in _total`
		func() []metrics.LabelledValue { return nil }, "shard")
	r.GaugeVecFunc("poilabel_shard_answers", "bad label",
		func() []metrics.LabelledValue { return nil }, "Shard") // want `label "Shard" must be lower_snake_case`
}

func spans(ctx context.Context, t *trace.Tracer) {
	t.StartRoot(ctx, "http.request", 0) // want `span name "http.request" must be dotted lowercase`
	t.StartRoot(ctx, "answer", 0)       // want `span name "answer" must be dotted lowercase`
	trace.Start(ctx, "Answer.dedup")    // want `span name "Answer.dedup" must be dotted lowercase`
	trace.Start(ctx, "fit.EM")          // want `span name "fit.EM" must be dotted lowercase`
	trace.Start(ctx, "plan.commit.")    // want `span name "plan.commit." must be dotted lowercase`
}

var ErrGone = errors.New("gone")

func bad(err error) bool {
	return err == ErrGone // want `sentinel error ErrGone compared with ==`
}

// --- false-positive guards ---

func okRegister(r *metrics.Registry) {
	r.Counter("poilabel_good_total", "ok")
	r.Gauge("poiserve_queue_depth", "ok")
	r.Histogram("poiserve_latency_seconds", "ok")
	r.CounterVec("poiserve_reqs_total", "ok", "endpoint", "code")
	r.GaugeVecFunc("poilabel_shard_answers", "ok",
		func() []metrics.LabelledValue { return nil }, "shard")
}

func okSpans(ctx context.Context, t *trace.Tracer) {
	t.StartRoot(ctx, "answer.request", 0)
	t.StartRoot(ctx, "migrate.cycle", 7)
	t.StartRoot(ctx, "results.request", 0)
	trace.Start(ctx, "plan.commit")
	trace.Start(ctx, "fit.em_step_2")
	name := "whatever goes"
	trace.Start(ctx, name) // computed names are the caller's business
}

func okIs(err error) bool {
	return errors.Is(err, ErrGone)
}

func okNil(err error) bool {
	return err == nil
}
