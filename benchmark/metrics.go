package main

import (
	"fmt"
	"strings"
)

// decl declares one metric the way BENCHMARK.json lists it. Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type decl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndDecl: what a user of the system sees. Every workload reports every
// one of them (see endToEnd in run.go). Each bound comes from the metric's own
// spread over sets of ten runs of one commit on the reference box (README.md,
// "Bounds"): about twice the widest spread seen on any workload while the box
// was quiet, and no more than the 0.25 the harness allows. Whatever wall time measures spreads by
// 0.15 to 0.33 once a few of the ten runs meet one of the box's slow
// stretches, hence 0.25; memory holds 0.20 (its 0.08-0.16 is drift-elastic's,
// whose peak depends on how many migrations a run makes); label accuracy
// keeps the 0.01 it was asked to have. The p99 latencies spread by 0.4-1.0
// where a fit or a results read lands among the slowest hundredth, and are
// layer metrics (client.*_p99_ms), not end-to-end ones.
var endToEndDecl = []decl{
	{"setup_s", "s", lower, 0.25},
	{"answers_per_s", "1/s", higher, 0.25},
	{"post_drift_answers_per_s", "1/s", higher, 0.25},
	{"assign_p50_ms", "ms", lower, 0.25},
	{"answer_p50_ms", "ms", lower, 0.25},
	{"results_p50_ms", "ms", lower, 0.25},
	{"label_accuracy", "share", higher, 0.01},
	{"peak_rss_mb", "MB", lower, 0.20},
	{"assign_round_ms", "ms", lower, 0.25},
	{"fit_single_s", "s", lower, 0.25},
	{"fit_sharded_s", "s", lower, 0.25},
	{"fit_federated_s", "s", lower, 0.25},
	{"restore_s", "s", lower, 0.25},
}

// perLayerDecl: single layers, from the traced run. The comment on each
// group names the end-to-end metric it should move; README.md has the table.
var perLayerDecl = []decl{
	// client: the driver's own view of a traced run.
	{"client.sessions", "count", higher, 0},
	{"client.requests", "count", higher, 0},
	{"client.tasks_per_assignment", "count", higher, 0},
	{"client.empty_assign_share", "share", lower, 0},
	{"client.send_lag_p50_ms", "ms", lower, 0},
	{"client.send_lag_p99_ms", "ms", lower, 0},
	{"client.assign_p50_ms", "ms", lower, 0},
	{"client.assign_p99_ms", "ms", lower, 0},
	{"client.assign_max_ms", "ms", lower, 0},
	{"client.answer_p50_ms", "ms", lower, 0},
	{"client.answer_p99_ms", "ms", lower, 0},
	{"client.answer_max_ms", "ms", lower, 0},
	{"client.results_inflight_p50_ms", "ms", lower, 0},
	// net: client span minus server span: transport, accept, queueing.
	{"net.assign_self_p50_ms", "ms", lower, 0},
	{"net.assign_self_p99_ms", "ms", lower, 0},
	{"net.answer_self_p50_ms", "ms", lower, 0},
	{"net.answer_self_p99_ms", "ms", lower, 0},
	// serve: the HTTP handler; codec = handler minus the direct Service call.
	{"serve.assign_p50_ms", "ms", lower, 0},
	{"serve.assign_p99_ms", "ms", lower, 0},
	{"serve.answer_p50_ms", "ms", lower, 0},
	{"serve.answer_p99_ms", "ms", lower, 0},
	{"serve.results_p50_ms", "ms", lower, 0},
	{"serve.results_bytes", "B", lower, 0},
	{"serve.codec_answer_us", "us", lower, 0},
	{"serve.codec_assign_us", "us", lower, 0},
	{"serve.codec_results_ms", "ms", lower, 0},
	{"serve.handler_mean_ms.assignments", "ms", lower, 0},
	{"serve.handler_mean_ms.answers", "ms", lower, 0},
	{"serve.handler_mean_ms.results", "ms", lower, 0},
	{"serve.handler_mean_ms.worker_get", "ms", lower, 0},
	// service: package poilabel, on the shadow service.
	{"service.request_tasks_p50_ms", "ms", lower, 0},
	{"service.submit_answer_p50_us", "us", lower, 0},
	{"service.submit_answer_2x_ratio", "ratio", lower, 0},
	{"service.results_p50_ms", "ms", lower, 0},
	{"service.worker_info_p50_us", "us", lower, 0},
	{"service.checkpoint_s", "s", lower, 0},
	{"service.restore_s", "s", lower, 0},
	{"service.plan_lock_free", "count", higher, 0},
	{"service.plan_locked", "count", lower, 0},
	{"service.plan_conflicts", "count", lower, 0},
	{"service.plan_retries", "count", lower, 0},
	// background: the fit pipeline's duty cycle.
	{"background.fits", "count", lower, 0},
	{"background.fit_p50_s", "s", lower, 0},
	{"background.fit_busy_share", "share", lower, 0},
	{"background.coalesced", "count", lower, 0},
	{"background.fresh_wait_s", "s", lower, 0},
	// elastic: migrations.
	{"elastic.migrations", "count", lower, 0},
	{"elastic.splits", "count", lower, 0},
	{"elastic.merges", "count", lower, 0},
	{"elastic.aborted", "count", lower, 0},
	{"elastic.shards_final", "count", lower, 0},
	// core: the EM model on the replayed log.
	{"core.update_p50_us", "us", lower, 0},
	{"core.observe_p50_us", "us", lower, 0},
	{"core.fit_s", "s", lower, 0},
	{"core.fit_iters", "count", lower, 0},
	{"core.loglik", "nat", higher, 0},
	{"core.result_ms", "ms", lower, 0},
	{"core.publish_ms", "ms", lower, 0},
	// assign: planning.
	{"assign.snapshot_ms", "ms", lower, 0},
	{"assign.plan_cold_ms", "ms", lower, 0},
	{"assign.plan_warm_us", "us", lower, 0},
	{"assign.warm_all_ms", "ms", lower, 0},
	{"assign.candidate_hit_ratio", "share", higher, 0},
	{"assign.round10_ms", "ms", lower, 0},
	// shard, federation, snapshot.
	{"shard.fit_s", "s", lower, 0},
	{"shard.fit_iters", "count", lower, 0},
	{"shard.observe_p50_us", "us", lower, 0},
	{"shard.coordinator_round_ms", "ms", lower, 0},
	{"shard.rebuild_s", "s", lower, 0},
	{"shard.hot_shard_share", "share", lower, 0},
	{"federation.fit_s", "s", lower, 0},
	{"federation.fit_iters", "count", lower, 0},
	{"federation.assign_round_ms", "ms", lower, 0},
	{"snapshot.capture_ms", "ms", lower, 0},
	{"snapshot.encode_s", "s", lower, 0},
	{"snapshot.decode_s", "s", lower, 0},
	{"snapshot.bytes", "B", lower, 0},
	// trace: what recording spans costs, traced against untraced blocks of
	// the same run.
	{"trace.overhead_pct", "%", lower, 0},
}

// handlerEndpoints are the poiserve endpoint labels behind
// serve.handler_mean_ms.*.
var handlerEndpoints = []string{"assignments", "answers", "results", "worker_get"}

// perLayer assembles every declared per-layer metric of a traced run. A
// layer that a workload does not exercise (no HTTP in batch, no elastic
// section on the single engine) reads 0.
func perLayer(s spec, o *outcome, p *prober, rec *recorder) map[string]value {
	v := make(map[string]float64, len(perLayerDecl))
	for name, x := range p.layer {
		v[name] = x
	}
	for name, x := range o.layer {
		v[name] = x
	}

	v["client.sessions"] = float64(o.sessions)
	v["client.requests"] = float64(o.attempted)
	if assigns := o.sessions; assigns > 0 {
		v["client.tasks_per_assignment"] = float64(o.handed) / float64(assigns)
		v["client.empty_assign_share"] = float64(o.emptyAssigns) / float64(assigns)
	}
	v["client.send_lag_p50_ms"] = quantile(o.sendLagMS, 0.50)
	v["client.send_lag_p99_ms"] = quantile(o.sendLagMS, 0.99)
	v["client.assign_p50_ms"] = quantile(o.assignMS, 0.50)
	v["client.assign_p99_ms"] = quantile(o.assignMS, 0.99)
	v["client.assign_max_ms"] = maxOf(o.assignMS)
	v["client.answer_p50_ms"] = quantile(o.answerMS, 0.50)
	v["client.answer_p99_ms"] = quantile(o.answerMS, 0.99)
	v["client.answer_max_ms"] = maxOf(o.answerMS)
	v["client.results_inflight_p50_ms"] = quantile(o.inflightMS, 0.50)

	self, _ := rec.selfTimes()
	dur := rec.durations()
	v["net.assign_self_p50_ms"] = quantile(self["client.assign"], 0.50)
	v["net.assign_self_p99_ms"] = quantile(self["client.assign"], 0.99)
	v["net.answer_self_p50_ms"] = quantile(self["client.answer"], 0.50)
	v["net.answer_self_p99_ms"] = quantile(self["client.answer"], 0.99)
	if s.loop != loopBatch {
		v["serve.assign_p50_ms"] = quantile(dur["serve.assign"], 0.50)
		v["serve.assign_p99_ms"] = quantile(dur["serve.assign"], 0.99)
		v["serve.answer_p50_ms"] = quantile(dur["serve.answer"], 0.50)
		v["serve.answer_p99_ms"] = quantile(dur["serve.answer"], 0.99)
		v["serve.results_p50_ms"] = quantile(dur["serve.results"], 0.50)
		v["serve.results_bytes"] = float64(o.resultsBytes)
		v["serve.codec_assign_us"] = 1e3 * (v["serve.assign_p50_ms"] - v["service.request_tasks_p50_ms"])
		v["serve.codec_answer_us"] = 1e3*v["serve.answer_p50_ms"] - v["service.submit_answer_p50_us"]
		if v["serve.results_p50_ms"] > 0 {
			v["serve.codec_results_ms"] = v["serve.results_p50_ms"] - v["service.results_p50_ms"]
		}
	} else {
		// No transport in batch: the driver calls the service directly, so
		// the whole client span is the service's.
		v["net.assign_self_p50_ms"], v["net.assign_self_p99_ms"] = 0, 0
		v["net.answer_self_p50_ms"], v["net.answer_self_p99_ms"] = 0, 0
	}

	// Scraped once, after settling, from the server's own surfaces.
	for _, ep := range handlerEndpoints {
		label := fmt.Sprintf(`{endpoint=%q}`, ep)
		if n := o.series["poiserve_http_request_duration_seconds_count"+label]; n > 0 {
			v["serve.handler_mean_ms."+ep] = 1e3 * o.series["poiserve_http_request_duration_seconds_sum"+label] / n
		}
	}
	if h := o.health; h != nil {
		if h.Plan != nil {
			v["service.plan_lock_free"] = float64(h.Plan.LockFreePlans)
			v["service.plan_locked"] = float64(h.Plan.LockedPlans)
			v["service.plan_conflicts"] = float64(h.Plan.Conflicts)
			v["service.plan_retries"] = float64(h.Plan.Retries)
		}
		if h.Fit != nil {
			v["background.fits"] = float64(h.Fit.Fits)
			v["background.coalesced"] = float64(h.Fit.Coalesced)
		}
		if h.Elastic != nil {
			v["elastic.migrations"] = float64(h.Elastic.Migrations)
			v["elastic.splits"] = float64(h.Elastic.Splits)
			v["elastic.merges"] = float64(h.Elastic.Merges)
			v["elastic.aborted"] = float64(h.Elastic.Aborted)
			v["elastic.shards_final"] = float64(h.Elastic.Shards)
		}
		for name, x := range o.series {
			if strings.HasPrefix(name, "poiserve_engine_fit_duration_seconds{") && strings.Contains(name, `quantile="0.5"`) {
				v["background.fit_p50_s"] = x
			}
		}
		if o.trafficS > 0 {
			v["background.fit_busy_share"] = o.series["poiserve_engine_fit_duration_seconds_sum"] / o.trafficS
		}
		v["background.fresh_wait_s"] = o.freshWaitS
	} else {
		// Batch: the collect phase's explicit fits are its fit duty cycle.
		var sum float64
		for _, f := range o.fitSeconds {
			sum += f
		}
		v["background.fits"] = float64(len(o.fitSeconds))
		v["background.fit_p50_s"] = median(append([]float64(nil), o.fitSeconds...))
		if o.trafficS > 0 {
			v["background.fit_busy_share"] = sum / o.trafficS
		}
	}

	out := make(map[string]value, len(perLayerDecl))
	for _, d := range perLayerDecl {
		out[d.Name] = value{v[d.Name], d.Unit}
	}
	return out
}
