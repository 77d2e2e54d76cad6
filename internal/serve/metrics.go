package serve

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"poilabel"
	"poilabel/internal/metrics"
)

// Metrics is the gateway's observability surface: per-endpoint request
// counters and latency histograms recorded by the handler middleware,
// engine-fit instrumentation received through the service's Observer hooks,
// and gauges that read the service's live counters at scrape time. It is
// created by WithMetrics and exposed at GET /metrics in Prometheus text
// format.
//
// Metric families, all prefixed poiserve_:
//
//	http_requests_total{endpoint,code}        requests served, by outcome
//	http_request_duration_seconds{endpoint}   latency summary (p50/p90/p99)
//	engine_fits_total{outcome}                full fits: converged|unconverged|error
//	engine_fit_duration_seconds               full-fit wall-clock summary
//	answers_total{kind}                       accepted answers: incremental|full_fit
//	assign_dedup_hits_total                   pending pairs skipped while planning
//	results_encodes_total                     generations encoded for GET /results (its requests over this = reads per encode)
//	tasks, workers, pending_pairs, answers_observed, budget_remaining  gauges
//
// Plus the published generation's and the fit pipeline's families under the
// poilabel_ prefix: param_staleness_seconds and param_generation gauges
// (every service publishes generations), and the pipeline's fit_queue_depth
// gauge and fit_coalesced_total, fits_total counters (every fit cycle counts,
// whoever triggered it; nothing coalesces without a scheduler), all read from
// Service.FitStats at scrape time; and
// the assignment planning path's poilabel_plan_* families (lock_free_total,
// locked_total, conflicts_total, retries_total, conflict_rate,
// last_duration_seconds, candidate_{builds,rebuilds,hits}_total), read from
// Service.PlanStats at scrape time and zero when lock-free planning is not
// configured; and the sharded/elastic families: per-shard
// poilabel_shard_{tasks,answers,boundary_answers,fit_duration_seconds}
// gauges (label: shard) whose child set tracks the live layout,
// poilabel_shard_count, and the poilabel_elastic_* migration gauges and
// counters, read from Service.ShardStats / Service.ElasticStats at scrape
// time (empty or zero on a non-sharded engine).
//
// When tracing is on, the tracer adds its own poilabel_trace_* families
// (span duration summaries by span name and the trace lifecycle counters)
// via Tracer.RegisterMetrics, and RegisterRuntimeMetrics adds the
// poiserve_go_* runtime gauges; both are wired by cmd/poiserve, not here.
type Metrics struct {
	reg *metrics.Registry

	requests   *metrics.CounterVec
	latency    *metrics.HistogramVec
	fits       *metrics.CounterVec
	fitSeconds *metrics.Histogram
	answers    *metrics.CounterVec
	dedupHits  *metrics.Counter
	// resultsEncodes counts the GET /results requests that ran a generation's
	// one encode; every other read was served the generation's bytes.
	resultsEncodes *metrics.Counter
}

// NewMetrics registers the gateway's metric families for svc on reg and
// attaches the fit/answer/dedup observer to the service. Pass the result to
// NewHandler via WithMetrics. Registering two services on one registry
// panics (duplicate names); give each service its own registry.
func NewMetrics(reg *metrics.Registry, svc *poilabel.Service) *Metrics {
	m := &Metrics{
		reg: reg,
		requests: reg.CounterVec("poiserve_http_requests_total",
			"HTTP requests served, by endpoint and status code.", "endpoint", "code"),
		latency: reg.HistogramVec("poiserve_http_request_duration_seconds",
			"HTTP request latency by endpoint.", "endpoint"),
		fits: reg.CounterVec("poiserve_engine_fits_total",
			"Full engine fits, by outcome (converged, unconverged, error).", "outcome"),
		fitSeconds: reg.Histogram("poiserve_engine_fit_duration_seconds",
			"Wall-clock duration of full engine fits."),
		answers: reg.CounterVec("poiserve_answers_total",
			"Accepted answers, by update kind (incremental, full_fit).", "kind"),
		dedupHits: reg.Counter("poiserve_assign_dedup_hits_total",
			"Candidate pairs skipped during assignment because they were still pending an answer."),
		resultsEncodes: reg.Counter("poiserve_results_encodes_total",
			"Published generations encoded for GET /results: one per generation read, however many reads it serves."),
	}
	reg.GaugeFunc("poiserve_tasks", "Registered tasks.",
		func() float64 { return float64(svc.NumTasks()) })
	reg.GaugeFunc("poiserve_workers", "Registered workers.",
		func() float64 { return float64(svc.NumWorkers()) })
	reg.GaugeFunc("poiserve_pending_pairs", "Handed-out pairs awaiting an answer.",
		func() float64 { return float64(svc.PendingCount()) })
	// Served from Service.Health's cached answer sequence: a scrape must not
	// recount through the engine under the read lock.
	reg.GaugeFunc("poiserve_answers_observed", "Answers observed by the engine.",
		func() float64 { return float64(svc.Health().Answers) })
	reg.GaugeFunc("poiserve_budget_remaining", "Assignment budget remaining (-1 = unlimited).",
		func() float64 { return float64(svc.RemainingBudget()) })
	// Published generation and fit pipeline (poilabel_ prefix: these describe
	// the library, not the HTTP layer). All read FitStats at scrape time.
	reg.GaugeFunc("poilabel_fit_queue_depth",
		"Fit cycles in flight plus queued re-fit tokens (0 when idle).",
		func() float64 { return float64(svc.FitStats().QueueDepth) })
	reg.GaugeFunc("poilabel_param_staleness_seconds",
		"Age of the published parameter generation while answers it does not cover are waiting (0 when current).",
		func() float64 { return svc.FitStats().Staleness.Seconds() })
	reg.GaugeFunc("poilabel_param_generation",
		"Published parameter generation counter.",
		func() float64 { return float64(svc.FitStats().Generation) })
	reg.CounterFunc("poilabel_fit_coalesced_total",
		"Scheduler fit triggers dropped because a re-fit was already queued.",
		func() uint64 { return svc.FitStats().Coalesced })
	reg.CounterFunc("poilabel_fits_total",
		"Fit attempts completed (including abandoned ones), whoever triggered them.",
		func() uint64 { return svc.FitStats().Fits })
	// Assignment planning path (also poilabel_ prefix). Zeros when lock-free
	// planning is not configured.
	reg.CounterFunc("poilabel_plan_lock_free_total",
		"Assignment rounds planned off the write lock against a published snapshot.",
		func() uint64 { return svc.PlanStats().LockFreePlans })
	reg.CounterFunc("poilabel_plan_locked_total",
		"Assignment rounds planned under the write lock.",
		func() uint64 { return svc.PlanStats().LockedPlans })
	reg.CounterFunc("poilabel_plan_conflicts_total",
		"Planned picks rejected at optimistic commit because the pair was taken since planning.",
		func() uint64 { return svc.PlanStats().Conflicts })
	reg.CounterFunc("poilabel_plan_retries_total",
		"Replan rounds run to replace conflicted picks.",
		func() uint64 { return svc.PlanStats().Retries })
	reg.GaugeFunc("poilabel_plan_conflict_rate",
		"Fraction of planned picks that lost their optimistic commit race.",
		func() float64 { return svc.PlanStats().ConflictRate })
	reg.GaugeFunc("poilabel_plan_last_duration_seconds",
		"Wall-clock of the most recent lock-free plan-and-commit round.",
		func() float64 { return svc.PlanStats().LastPlanDuration.Seconds() })
	reg.CounterFunc("poilabel_plan_candidate_builds_total",
		"Per-worker candidate list builds (first query per worker per generation).",
		func() uint64 { return svc.PlanStats().Candidates.Builds })
	reg.CounterFunc("poilabel_plan_candidate_rebuilds_total",
		"Candidate prefix shortfalls that forced an untruncated rebuild.",
		func() uint64 { return svc.PlanStats().Candidates.Rebuilds })
	reg.CounterFunc("poilabel_plan_candidate_hits_total",
		"Single-worker plans served from an existing candidate list.",
		func() uint64 { return svc.PlanStats().Candidates.Hits })
	// Sharded engine and elastic re-partitioning (poilabel_ prefix). The
	// per-shard families read Service.ShardStats at scrape time, so the child
	// set tracks the live layout: a split grows it, a merge shrinks it, and
	// retired shard indices disappear from the scrape. Empty (no children /
	// zeros) on a non-sharded engine.
	shardChildren := func(pick func(poilabel.ShardStat) float64) func() []metrics.LabelledValue {
		return func() []metrics.LabelledValue {
			stats := svc.ShardStats()
			out := make([]metrics.LabelledValue, len(stats))
			for i, st := range stats {
				out[i] = metrics.LabelledValue{
					Values: []string{strconv.Itoa(st.Shard)},
					V:      pick(st),
				}
			}
			return out
		}
	}
	reg.GaugeVecFunc("poilabel_shard_tasks",
		"Tasks owned by each shard of the current layout.",
		shardChildren(func(st poilabel.ShardStat) float64 { return float64(st.Tasks) }), "shard")
	reg.GaugeVecFunc("poilabel_shard_answers",
		"Answers routed to each shard so far.",
		shardChildren(func(st poilabel.ShardStat) float64 { return float64(st.Answers) }), "shard")
	reg.GaugeVecFunc("poilabel_shard_boundary_answers",
		"Answers from roaming workers — answer-graph mass straddling each shard's partition boundary.",
		shardChildren(func(st poilabel.ShardStat) float64 { return float64(st.BoundaryAnswers) }), "shard")
	reg.GaugeVecFunc("poilabel_shard_fit_duration_seconds",
		"Wall-clock of each shard's most recent EM fit.",
		shardChildren(func(st poilabel.ShardStat) float64 { return st.LastFitDuration.Seconds() }), "shard")
	reg.GaugeFunc("poilabel_shard_count",
		"Shards in the sharded engine's current layout (0 when not sharded).",
		func() float64 { return float64(svc.ElasticStats().Shards) })
	reg.GaugeFunc("poilabel_elastic_migrating",
		"1 while a live migration is executing, else 0.",
		func() float64 {
			if svc.ElasticStats().Migrating {
				return 1
			}
			return 0
		})
	reg.CounterFunc("poilabel_elastic_migrations_total",
		"Completed live migrations (splits plus merges).",
		func() uint64 { return svc.ElasticStats().Migrations })
	reg.CounterFunc("poilabel_elastic_splits_total",
		"Completed shard splits.",
		func() uint64 { return svc.ElasticStats().Splits })
	reg.CounterFunc("poilabel_elastic_merges_total",
		"Completed shard merges.",
		func() uint64 { return svc.ElasticStats().Merges })
	reg.CounterFunc("poilabel_elastic_aborted_total",
		"Migrations abandoned mid-flight (raced a restore, stale layout, rebuild error, shutdown).",
		func() uint64 { return svc.ElasticStats().Aborted })
	svc.SetObserver(m)
	return m
}

// Registry returns the backing registry (for registering extra families or
// scraping programmatically).
func (m *Metrics) Registry() *metrics.Registry { return m.reg }

// FitObserved implements poilabel.Observer.
func (m *Metrics) FitObserved(elapsed time.Duration, converged bool, err error) {
	outcome := "converged"
	switch {
	case err != nil:
		outcome = "error"
	case !converged:
		outcome = "unconverged"
	}
	m.fits.With(outcome).Inc()
	m.fitSeconds.Observe(elapsed)
}

// AnswerObserved implements poilabel.Observer.
func (m *Metrics) AnswerObserved(full bool) {
	kind := "incremental"
	if full {
		kind = "full_fit"
	}
	m.answers.With(kind).Inc()
}

// DedupHitsObserved implements poilabel.Observer.
func (m *Metrics) DedupHitsObserved(n int) {
	if n > 0 {
		m.dedupHits.Add(uint64(n))
	}
}

// observe records one finished request.
func (m *Metrics) observe(endpoint string, status int, elapsed time.Duration) {
	m.requests.With(endpoint, strconv.Itoa(status)).Inc()
	m.latency.With(endpoint).Observe(elapsed)
}

// endpointLabel collapses a request onto a bounded label set so metric
// cardinality cannot grow with traffic: /workers/{id} becomes worker_get,
// unroutable paths become other.
func endpointLabel(method, path string) string {
	switch path {
	case "/tasks", "/workers", "/answers", "/assignments", "/checkpoint", "/results", "/healthz", "/metrics":
		return strings.TrimPrefix(path, "/")
	}
	if strings.HasPrefix(path, "/workers/") && method == http.MethodGet {
		return "worker_get"
	}
	return "other"
}

// statusRecorder captures the status code written by a handler; an implicit
// 200 (body written without WriteHeader) is the zero-value default.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}
