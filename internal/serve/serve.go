// Package serve exposes a poilabel.Service over HTTP/JSON — the gateway
// behind cmd/poiserve. Routing is done by hand (method switch plus path
// split) so the handler behaves identically across Go versions, and every
// response is JSON, including errors:
//
//	POST /tasks         {"id": "...", "task": {TaskSpec}}      register a task
//	POST /workers       {"id": "...", "worker": {WorkerSpec}}  register a worker
//	POST /answers       {"worker": "...", "task": "...", "selected": [...]}
//	POST /assignments   {"workers": ["...", ...]}              run the assigner
//	POST /checkpoint                                           snapshot to disk
//	GET  /results                                              current inference
//	GET  /workers/{id}                                         worker estimate
//	GET  /healthz                                              liveness + counters
//	GET  /metrics                                              Prometheus text (WithMetrics)
//	GET  /debug/traces                                         retained traces, slowest first (WithTracer)
//
// Typed service errors map onto statuses: unknown IDs are 404, duplicate
// registrations and duplicate answers 409, an exhausted budget 402, a
// missing task/worker pool 409, malformed bodies 400, and bodies over 1 MiB
// 413.
//
// Durability is provided by a Checkpointer (WithCheckpointer): POST
// /checkpoint persists the service's full learned state to the configured
// file with atomic write-then-rename semantics, Checkpointer.Run does the
// same on a periodic ticker, and a restarted process resumes bit-identically
// via poilabel.Service.LoadCheckpoint (cmd/poiserve's -restore flag).
//
// Run the gateway with Serve (or ListenAndServe) for graceful shutdown:
// when the context is cancelled — poiserve wires SIGTERM/SIGINT to it — the
// listener closes, in-flight requests drain within a configurable timeout,
// and a final checkpoint is written so a rolling restart loses nothing that
// was ever acknowledged.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"poilabel"
	"poilabel/internal/trace"
)

// TraceHeader is the header trace IDs travel in, both directions: a client
// may supply one (joining its own measurement to the server-side trace) and
// the traced endpoints always echo the effective ID back.
const TraceHeader = trace.Header

// Checkpointer persists one service's snapshot to a fixed file. Writes are
// atomic (write-then-rename, see snapshot.WriteFileAtomic) and serialized
// by an internal mutex, so a manual POST /checkpoint racing the periodic
// ticker never interleaves two writers on the same path.
type Checkpointer struct {
	svc  *poilabel.Service
	path string
	mu   sync.Mutex
}

// NewCheckpointer returns a checkpointer writing svc's snapshots to path.
func NewCheckpointer(svc *poilabel.Service, path string) *Checkpointer {
	return &Checkpointer{svc: svc, path: path}
}

// Path returns the snapshot file path.
func (c *Checkpointer) Path() string { return c.path }

// Checkpoint writes one snapshot now, returning the number of bytes
// written.
func (c *Checkpointer) Checkpoint() (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.svc.SaveCheckpoint(c.path)
}

// Run checkpoints every interval until the context is done. Failures are
// logged and retried at the next tick rather than aborting the loop — an
// operator fixing a full disk should not need to restart the server to
// resume auto-checkpointing.
func (c *Checkpointer) Run(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if n, err := c.Checkpoint(); err != nil {
				trace.DefaultLogger().Error(ctx, "auto-checkpoint failed", "err", err)
			} else {
				trace.DefaultLogger().Info(ctx, "checkpointed", "bytes", n, "path", c.path)
			}
		}
	}
}

// Option configures a Handler.
type Option func(*Handler)

// WithCheckpointer enables the POST /checkpoint endpoint, backed by c.
func WithCheckpointer(c *Checkpointer) Option {
	return func(h *Handler) { h.ckpt = c }
}

// WithMetrics enables the GET /metrics endpoint (Prometheus text format)
// and wraps every request with per-endpoint counting and latency recording.
// Build m with NewMetrics, which also attaches the service observer.
func WithMetrics(m *Metrics) Option {
	return func(h *Handler) { h.metrics = m }
}

// WithTracer enables the GET /debug/traces endpoint and mints a trace root
// around every POST /answers (answer.request), POST /assignments
// (plan.request) and GET /results (results.request, carrying the generation
// served, the body's bytes and encoded=cold|warm): the request's trace ID —
// adopted from the TraceHeader when the client sent one, minted fresh
// otherwise — is echoed back in the same header so clients can join their own
// latency measurements to the server-side span tree. Pass the same tracer the service was built with
// (poilabel.WithTracer) so the request spans and the background fit.cycle /
// migrate.cycle roots land in the same rings.
func WithTracer(t *trace.Tracer) Option {
	return func(h *Handler) { h.tracer = t }
}

// Handler is the HTTP gateway over one Service.
type Handler struct {
	svc     *poilabel.Service
	ckpt    *Checkpointer // nil when checkpointing is not configured
	metrics *Metrics      // nil when /metrics is not configured
	tracer  *trace.Tracer // nil when tracing is not configured
}

// NewHandler returns the gateway for svc.
func NewHandler(svc *poilabel.Service, opts ...Option) *Handler {
	h := &Handler{svc: svc}
	for _, opt := range opts {
		opt(h)
	}
	return h
}

// ServeHTTP implements http.Handler. With metrics configured every request
// is counted and timed under a bounded endpoint label.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.metrics == nil {
		h.dispatch(w, r)
		return
	}
	start := time.Now()
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	h.dispatch(rec, r)
	h.metrics.observe(endpointLabel(r.Method, strings.TrimSuffix(r.URL.Path, "/")), rec.status, time.Since(start))
}

// dispatch routes one request.
func (h *Handler) dispatch(w http.ResponseWriter, r *http.Request) {
	path := strings.TrimSuffix(r.URL.Path, "/")
	switch {
	case path == "/tasks" && r.Method == http.MethodPost:
		h.postTask(w, r)
	case path == "/workers" && r.Method == http.MethodPost:
		h.postWorker(w, r)
	case path == "/answers" && r.Method == http.MethodPost:
		h.traced(w, r, "answer.request", h.postAnswer)
	case path == "/assignments" && r.Method == http.MethodPost:
		h.traced(w, r, "plan.request", h.postAssignments)
	case path == "/checkpoint" && r.Method == http.MethodPost:
		h.postCheckpoint(w, r)
	case path == "/results" && r.Method == http.MethodGet:
		h.traced(w, r, "results.request", h.getResults)
	case strings.HasPrefix(path, "/workers/") && r.Method == http.MethodGet:
		h.getWorker(w, r, strings.TrimPrefix(path, "/workers/"))
	case path == "/healthz" && r.Method == http.MethodGet:
		h.getHealth(w, r)
	case path == "/metrics" && r.Method == http.MethodGet:
		h.getMetrics(w, r)
	case path == "/debug/traces" && r.Method == http.MethodGet:
		h.getTraces(w, r)
	case path == "/tasks" || path == "/workers" || path == "/answers" || path == "/assignments" || path == "/checkpoint" || path == "/results" || path == "/healthz" || path == "/metrics" || path == "/debug/traces":
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed on %s", r.Method, path))
	default:
		writeError(w, http.StatusNotFound, fmt.Errorf("no such endpoint %s", path))
	}
}

// traced wraps one endpoint with a trace root: adopt (or mint) the trace ID,
// echo it in TraceHeader, run the handler with the span in the request
// context, and mark the root failed on a non-2xx status. The root's End runs
// after the handler has returned — after every service lock it took has been
// released — which is where the finished trace enters the rings.
func (h *Handler) traced(w http.ResponseWriter, r *http.Request, name string, fn func(http.ResponseWriter, *http.Request)) {
	if h.tracer == nil {
		fn(w, r)
		return
	}
	var id uint64
	if hdr := r.Header.Get(TraceHeader); hdr != "" {
		id, _ = trace.ParseID(hdr)
	}
	ctx, root := h.tracer.StartRoot(r.Context(), name, id)
	w.Header().Set(TraceHeader, root.TraceID())
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	fn(rec, r.WithContext(ctx))
	root.AttrInt("status", int64(rec.status))
	if rec.status >= 400 {
		root.Fail(fmt.Errorf("http %d", rec.status))
	}
	root.End()
}

// tracesResponse is the GET /debug/traces JSON shape.
type tracesResponse struct {
	Count  int            `json:"count"`
	Stats  trace.Stats    `json:"stats"`
	Traces []*trace.Trace `json:"traces"`
}

// getTraces serves the retained traces, slowest first. Filters: ?slow=1
// keeps only traces at or above the tracer's slow threshold, ?min_ms=N
// drops traces shorter than N milliseconds, ?name=prefix keeps only traces
// whose root span matches the name or dotted prefix (e.g. name=migrate),
// and ?limit=N caps the result count (default 100).
func (h *Handler) getTraces(w http.ResponseWriter, r *http.Request) {
	if h.tracer == nil {
		writeError(w, http.StatusNotFound,
			errors.New("tracing not configured; start the server with tracing enabled"))
		return
	}
	q := trace.Query{Limit: 100, Name: r.URL.Query().Get("name")}
	if v := r.URL.Query().Get("slow"); v == "1" || v == "true" {
		q.Slow = true
	}
	if v := r.URL.Query().Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad min_ms %q", v))
			return
		}
		q.MinDuration = time.Duration(ms * float64(time.Millisecond))
	}
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", v))
			return
		}
		q.Limit = n
	}
	traces := h.tracer.Snapshot(q)
	if traces == nil {
		traces = []*trace.Trace{}
	}
	writeJSON(w, http.StatusOK, tracesResponse{
		Count:  len(traces),
		Stats:  h.tracer.TracerStats(),
		Traces: traces,
	})
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// writeServiceError maps the service's typed errors onto HTTP statuses.
func writeServiceError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// A fit abandoned mid-request is a server/availability condition,
		// not a malformed request.
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, poilabel.ErrUnknownWorker), errors.Is(err, poilabel.ErrUnknownTask):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, poilabel.ErrDuplicateID):
		writeError(w, http.StatusConflict, err)
	case errors.Is(err, poilabel.ErrDuplicateAnswer):
		// 409, not 400: the answer is already recorded, which a client
		// retrying a lost response treats as success.
		writeError(w, http.StatusConflict, err)
	case errors.Is(err, poilabel.ErrBudgetExhausted):
		writeError(w, http.StatusPaymentRequired, err)
	case errors.Is(err, poilabel.ErrNoTasks), errors.Is(err, poilabel.ErrNoWorkers):
		writeError(w, http.StatusConflict, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

// maxBodyBytes caps every request body. Each body the gateway accepts is one
// task, worker, answer or worker-ID list, so 1 MiB is generous; the cap keeps
// a hostile or buggy client from making the decoder buffer without bound.
const maxBodyBytes = 1 << 20

// decode reads the JSON request body into v. On failure it has already
// written the response — 413 for a body over maxBodyBytes, 400 otherwise —
// and returns false, before the handler touched the service.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

type taskRequest struct {
	ID   string            `json:"id"`
	Task poilabel.TaskSpec `json:"task"`
}

func (h *Handler) postTask(w http.ResponseWriter, r *http.Request) {
	var req taskRequest
	if !decode(w, r, &req) {
		return
	}
	if err := h.svc.AddTask(req.ID, req.Task); err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"id": req.ID})
}

type workerRequest struct {
	ID     string              `json:"id"`
	Worker poilabel.WorkerSpec `json:"worker"`
}

func (h *Handler) postWorker(w http.ResponseWriter, r *http.Request) {
	var req workerRequest
	if !decode(w, r, &req) {
		return
	}
	if err := h.svc.AddWorker(req.ID, req.Worker); err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"id": req.ID})
}

type answerRequest struct {
	Worker   string `json:"worker"`
	Task     string `json:"task"`
	Selected []bool `json:"selected"`
}

func (h *Handler) postAnswer(w http.ResponseWriter, r *http.Request) {
	var req answerRequest
	if !decode(w, r, &req) {
		return
	}
	if err := h.svc.SubmitAnswerContext(r.Context(), req.Worker, req.Task, req.Selected); err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"status": "accepted"})
}

type assignmentsRequest struct {
	Workers []string `json:"workers"`
}

type assignmentsResponse struct {
	Assignments map[string][]string `json:"assignments"`
	// RemainingBudget is the budget left after this round; -1 means
	// unlimited.
	RemainingBudget int `json:"remaining_budget"`
}

func (h *Handler) postAssignments(w http.ResponseWriter, r *http.Request) {
	var req assignmentsRequest
	if !decode(w, r, &req) {
		return
	}
	if len(req.Workers) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("no workers requested"))
		return
	}
	assigned, err := h.svc.RequestTasks(r.Context(), req.Workers)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	if assigned == nil {
		assigned = map[string][]string{}
	}
	writeJSON(w, http.StatusOK, assignmentsResponse{
		Assignments:     assigned,
		RemainingBudget: h.svc.RemainingBudget(),
	})
}

type checkpointResponse struct {
	Path  string `json:"path"`
	Bytes int64  `json:"bytes"`
}

func (h *Handler) postCheckpoint(w http.ResponseWriter, _ *http.Request) {
	if h.ckpt == nil {
		writeError(w, http.StatusConflict,
			errors.New("checkpointing not configured; start the server with a checkpoint path"))
		return
	}
	n, err := h.ckpt.Checkpoint()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, checkpointResponse{Path: h.ckpt.Path(), Bytes: n})
}

// getResults serves the generation's own encoding of its results (see
// poilabel.Service.ResultsJSON): the body, its length and the generation
// headers all come from the one value that read returns, so a publication
// mid-request cannot stamp one generation's number on another's body, and an
// encoder failure is a 500 before the first byte is sent rather than a
// truncated 200. The headers say which generation this is and how stale,
// whoever triggers the fits.
func (h *Handler) getResults(w http.ResponseWriter, r *http.Request) {
	res, err := h.svc.ResultsJSON(r.Context())
	if err != nil {
		var unsupported *json.UnsupportedValueError
		if errors.As(err, &unsupported) {
			writeError(w, http.StatusInternalServerError, err)
		} else {
			writeServiceError(w, err)
		}
		return
	}
	encoded := "warm"
	if res.Encoded {
		encoded = "cold"
		if h.metrics != nil {
			h.metrics.resultsEncodes.Inc()
		}
	}
	sp := trace.FromContext(r.Context())
	sp.AttrInt("generation", int64(res.Generation))
	sp.AttrInt("bytes", int64(len(res.JSON)))
	sp.Attr("encoded", encoded)

	hdr := w.Header()
	hdr.Set("Content-Type", "application/json")
	hdr.Set("Content-Length", strconv.Itoa(len(res.JSON)))
	hdr.Set("X-Poilabel-Generation", strconv.FormatUint(res.Generation, 10))
	hdr.Set("X-Poilabel-Staleness-Seconds", strconv.FormatFloat(res.Staleness.Seconds(), 'f', 6, 64))
	w.WriteHeader(http.StatusOK)
	// A failed write is the client going away; there is nobody to tell.
	_, _ = w.Write(res.JSON)
}

func (h *Handler) getWorker(w http.ResponseWriter, r *http.Request, id string) {
	info, err := h.svc.WorkerInfo(id)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

type healthResponse struct {
	OK      bool   `json:"ok"`
	Engine  string `json:"engine"`
	Tasks   int    `json:"tasks"`
	Workers int    `json:"workers"`
	// Answers is the number of answers the engine has observed — the
	// counter load generators and operators watch to confirm nothing was
	// lost across a restart, without paying for a full /results fit.
	Answers         int `json:"answers"`
	Pending         int `json:"pending"`
	RemainingBudget int `json:"remaining_budget"`
	// Fit is the fit pipeline's state, present only when the service runs
	// a scheduler (WithBackgroundFit), so deployments without one keep their
	// exact health shape; its counters cover every cycle, whoever ran it.
	Fit *healthFit `json:"fit,omitempty"`
	// Plan is the assignment planning path's state, present only when
	// lock-free planning is configured (background fitting on the single
	// engine with the AccOpt assigner).
	Plan *healthPlan `json:"plan,omitempty"`
	// Elastic is the elastic re-partitioning state, present when the service
	// runs with WithElasticShards (or on any sharded engine, so operators can
	// see the current shard count even with the drift detector off).
	Elastic *healthElastic `json:"elastic,omitempty"`
}

// healthFit mirrors poilabel.FitPipelineStats for the health endpoint.
type healthFit struct {
	Generation       uint64  `json:"generation"`
	StalenessSeconds float64 `json:"staleness_seconds"`
	QueueDepth       int     `json:"queue_depth"`
	InFlight         bool    `json:"in_flight"`
	Fits             uint64  `json:"fits"`
	Coalesced        uint64  `json:"coalesced"`
	CoveredAnswers   uint64  `json:"covered_answers"`
}

// healthPlan mirrors poilabel.PlanPipelineStats for the health endpoint.
type healthPlan struct {
	LockFreePlans     uint64  `json:"lock_free_plans"`
	LockedPlans       uint64  `json:"locked_plans"`
	CommittedPicks    uint64  `json:"committed_picks"`
	Conflicts         uint64  `json:"conflicts"`
	Retries           uint64  `json:"retries"`
	ConflictRate      float64 `json:"conflict_rate"`
	LastPlanMillis    float64 `json:"last_plan_millis"`
	CandidatePrefix   int     `json:"candidate_prefix"`
	CandidateBuilds   uint64  `json:"candidate_builds"`
	CandidateRebuilds uint64  `json:"candidate_rebuilds"`
	CandidateHits     uint64  `json:"candidate_hits"`
}

// healthElastic mirrors poilabel.ElasticStats for the health endpoint.
type healthElastic struct {
	Enabled      bool   `json:"enabled"`
	Shards       int    `json:"shards"`
	MinShards    int    `json:"min_shards,omitempty"`
	MaxShards    int    `json:"max_shards,omitempty"`
	Migrations   uint64 `json:"migrations"`
	Splits       uint64 `json:"splits"`
	Merges       uint64 `json:"merges"`
	Aborted      uint64 `json:"aborted"`
	Migrating    bool   `json:"migrating"`
	LastAction   string `json:"last_action,omitempty"`
	LastActionAt string `json:"last_action_at,omitempty"`
}

func (h *Handler) getHealth(w http.ResponseWriter, _ *http.Request) {
	// One Health() call gathers every counter under a single read lock, with
	// the answer total served from the service's cached sequence instead of
	// a per-scrape engine recount (see poilabel.Service.Health).
	hs := h.svc.Health()
	resp := healthResponse{
		OK:              true,
		Engine:          h.svc.EngineKind().String(),
		Tasks:           hs.Tasks,
		Workers:         hs.Workers,
		Answers:         hs.Answers,
		Pending:         hs.Pending,
		RemainingBudget: hs.RemainingBudget,
	}
	if st := h.svc.FitStats(); st.Enabled {
		resp.Fit = &healthFit{
			Generation:       st.Generation,
			StalenessSeconds: st.Staleness.Seconds(),
			QueueDepth:       st.QueueDepth,
			InFlight:         st.InFlight,
			Fits:             st.Fits,
			Coalesced:        st.Coalesced,
			CoveredAnswers:   st.CoveredAnswers,
		}
	}
	if st := h.svc.PlanStats(); st.Enabled {
		resp.Plan = &healthPlan{
			LockFreePlans:     st.LockFreePlans,
			LockedPlans:       st.LockedPlans,
			CommittedPicks:    st.CommittedPicks,
			Conflicts:         st.Conflicts,
			Retries:           st.Retries,
			ConflictRate:      st.ConflictRate,
			LastPlanMillis:    float64(st.LastPlanDuration.Microseconds()) / 1e3,
			CandidatePrefix:   st.CandidatePrefix,
			CandidateBuilds:   st.Candidates.Builds,
			CandidateRebuilds: st.Candidates.Rebuilds,
			CandidateHits:     st.Candidates.Hits,
		}
	}
	if st := h.svc.ElasticStats(); st.Enabled || st.Shards > 0 {
		resp.Elastic = &healthElastic{
			Enabled:    st.Enabled,
			Shards:     st.Shards,
			MinShards:  st.MinShards,
			MaxShards:  st.MaxShards,
			Migrations: st.Migrations,
			Splits:     st.Splits,
			Merges:     st.Merges,
			Aborted:    st.Aborted,
			Migrating:  st.Migrating,
			LastAction: st.LastAction,
		}
		if !st.LastActionAt.IsZero() {
			resp.Elastic.LastActionAt = st.LastActionAt.UTC().Format(time.RFC3339Nano)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (h *Handler) getMetrics(w http.ResponseWriter, r *http.Request) {
	if h.metrics == nil {
		writeError(w, http.StatusNotFound,
			errors.New("metrics not configured; start the server with metrics enabled"))
		return
	}
	h.metrics.reg.Handler().ServeHTTP(w, r)
}
