package poilabel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"poilabel/internal/assign"
	"poilabel/internal/core"
	"poilabel/internal/federation"
	"poilabel/internal/geo"
	"poilabel/internal/model"
	"poilabel/internal/shard"
	"poilabel/internal/trace"
)

// Typed errors returned by the Service. Use errors.Is to test for them; the
// returned errors wrap these sentinels together with the offending ID.
var (
	// ErrUnknownWorker reports a worker ID that was never registered.
	ErrUnknownWorker = errors.New("poilabel: unknown worker")
	// ErrUnknownTask reports a task ID that was never registered.
	ErrUnknownTask = errors.New("poilabel: unknown task")
	// ErrDuplicateID reports a registration under an ID already in use.
	ErrDuplicateID = errors.New("poilabel: duplicate id")
	// ErrNoTasks is returned when an operation needs the inference engine
	// but no task has been registered yet.
	ErrNoTasks = errors.New("poilabel: no tasks registered")
	// ErrNoWorkers is returned when an operation needs the inference
	// engine but no worker has been registered yet.
	ErrNoWorkers = errors.New("poilabel: no workers registered")
	// ErrDuplicateAnswer reports a second submission for a (worker, task)
	// pair. A client retrying a submission whose response was lost should
	// treat it as confirmation the answer is already recorded.
	ErrDuplicateAnswer = model.ErrDuplicateAnswer
)

// TaskSpec describes a POI labelling task registered with a Service. The
// Service assigns the dense internal index; callers identify tasks by their
// stable string ID.
type TaskSpec struct {
	// Name is an optional display name for the POI.
	Name string `json:"name,omitempty"`
	// Location is the POI's position.
	Location Point `json:"location"`
	// Labels are the candidate labels the crowd votes on. Required.
	Labels []string `json:"labels"`
	// Reviews is the POI's review count (the paper's influence proxy).
	Reviews int `json:"reviews,omitempty"`
}

// WorkerSpec describes a crowd worker registered with a Service.
type WorkerSpec struct {
	// Name is an optional display name.
	Name string `json:"name,omitempty"`
	// Locations are the worker's known locations (home, office, …).
	// At least one is required.
	Locations []Point `json:"locations"`
}

// TaskResult is one task's inference outcome, keyed by stable IDs.
type TaskResult struct {
	Task     string    `json:"task"`
	Labels   []string  `json:"labels"`
	Prob     []float64 `json:"prob"`
	Inferred []bool    `json:"inferred"`
}

// WorkerInfo is one worker's current estimate.
type WorkerInfo struct {
	Worker string `json:"worker"`
	// Quality is the estimated inherent quality P(i_w = 1).
	Quality float64 `json:"quality"`
	// DistanceSensitivity is the estimated sensitivity multinomial over
	// the distance-function set, steepest first.
	DistanceSensitivity []float64 `json:"distance_sensitivity"`
}

// serviceConfig collects the options a Service is built from. Nothing writes
// it once NewService has returned.
type serviceConfig struct {
	engine         EngineKind
	initialBudget  int // what the ledger starts from; negative means unlimited
	h              int
	assigner       AssignerKind
	shards         int
	cities         int
	fullEMInterval int
	seed           int64
	model          core.Config
	observer       Observer      // becomes Service.observer, which SetObserver replaces
	bgInterval     time.Duration // the scheduler's fit cadence; 0 = no scheduler, callers trigger fits
	bgMinAnswers   int           // the scheduler's eager fit threshold
	elasticOn      bool          // drift-aware elastic re-sharding (WithElasticShards)
	elastic        ElasticConfig
	// tracer mints the fit.cycle/migrate.cycle trace roots of cycles no traced
	// caller runs; request-path spans attach to the caller's context instead. Nil
	// disables tracing (every span site is nil-safe). Invariant: the tracer
	// never acquires Service.mu, and no root span is ended while it is held.
	tracer *trace.Tracer
}

// ServiceOption configures a Service. Options follow the functional-options
// pattern: pass any number to NewService.
type ServiceOption func(*serviceConfig) error

// WithEngine selects the backend: EngineSingle (default), EngineSharded, or
// EngineFederated.
func WithEngine(kind EngineKind) ServiceOption {
	return func(c *serviceConfig) error {
		switch kind {
		case EngineSingle, EngineSharded, EngineFederated:
			c.engine = kind
			return nil
		}
		return fmt.Errorf("poilabel: unknown engine kind %d", int(kind))
	}
}

// WithBudget caps the total number of (worker, task) assignments the service
// will hand out. Without this option the budget is unlimited; a negative n
// also means unlimited.
func WithBudget(n int) ServiceOption {
	return func(c *serviceConfig) error {
		c.initialBudget = max(n, -1)
		return nil
	}
}

// WithTasksPerRequest sets h, the number of tasks offered to each requesting
// worker. The default is 2, the paper's HIT size.
func WithTasksPerRequest(h int) ServiceOption {
	return func(c *serviceConfig) error {
		if h <= 0 {
			return fmt.Errorf("poilabel: non-positive TasksPerRequest %d", h)
		}
		c.h = h
		return nil
	}
}

// WithAssigner selects the assignment strategy. It means the same on every
// engine shape: one round of the assigner over every registered task, the
// sharded and federated engines reading task state from the shard that owns
// it. The default is AssignerAccOpt.
func WithAssigner(kind AssignerKind) ServiceOption {
	return func(c *serviceConfig) error {
		switch kind {
		case AssignerAccOpt, AssignerSpatialFirst, AssignerRandom:
			c.assigner = kind
			return nil
		}
		return fmt.Errorf("poilabel: unknown assigner kind %d", int(kind))
	}
}

// WithShards sets K, the number of geographic shards per city, for the
// sharded and federated engines. Zero (the default) means shard.DefaultShards.
func WithShards(k int) ServiceOption {
	return func(c *serviceConfig) error {
		if k < 0 {
			return fmt.Errorf("poilabel: negative shard count %d", k)
		}
		c.shards = k
		return nil
	}
}

// WithCities sets the number of geographic city partitions of the federated
// engine. Zero (the default) means federation.DefaultCities.
func WithCities(n int) ServiceOption {
	return func(c *serviceConfig) error {
		if n < 0 {
			return fmt.Errorf("poilabel: negative city count %d", n)
		}
		c.cities = n
		return nil
	}
}

// WithFullEMInterval sets how many submitted answers make a full fit due
// (Section III-D; the default is 100, the paper's setting): the submission
// that completes the interval runs it and waits for it. Between full fits
// the single engine applies incremental EM per answer while the batch engines
// only log. Zero disables automatic fits entirely — call Fit (or Results,
// which fits when anything arrived since the last fit) explicitly. Unused
// with WithBackgroundFit, whose scheduler decides when a fit is due.
func WithFullEMInterval(n int) ServiceOption {
	return func(c *serviceConfig) error {
		if n < 0 {
			return fmt.Errorf("poilabel: negative FullEMInterval %d", n)
		}
		c.fullEMInterval = n
		return nil
	}
}

// WithSeed seeds the random assigner. Ignored by the others.
func WithSeed(seed int64) ServiceOption {
	return func(c *serviceConfig) error {
		c.seed = seed
		return nil
	}
}

// WithModelConfig overrides the inference model configuration (a zero
// FuncSet means core.DefaultConfig).
func WithModelConfig(cfg core.Config) ServiceOption {
	return func(c *serviceConfig) error {
		c.model = cfg
		return nil
	}
}

// Observer receives service-level instrumentation events — the hooks the
// /metrics pipeline hangs off. Implementations must be safe for concurrent
// use and must return quickly: callbacks run inside the service's critical
// sections, so a slow observer stalls serving.
type Observer interface {
	// FitObserved reports one completed full engine fit: its wall-clock
	// duration, whether EM converged, and any error (nil on success).
	FitObserved(elapsed time.Duration, converged bool, err error)
	// AnswerObserved reports one accepted answer; full is true when the
	// submission triggered an automatic full fit.
	AnswerObserved(full bool)
	// DedupHitsObserved reports how many (worker, task) pairs one assignment
	// round left out because they were still pending an answer: the pending
	// pairs of the requesting workers, counted once per round.
	DedupHitsObserved(n int)
}

// WithObserver attaches an instrumentation observer at construction. See
// also SetObserver for attaching one to a running service.
func WithObserver(o Observer) ServiceOption {
	return func(c *serviceConfig) error {
		c.observer = o
		return nil
	}
}

// WithTracer attaches a tracer. Request-path spans (answer.*, plan.*) attach
// to whatever trace the caller's context carries — the HTTP gateway mints
// those roots — and so does a fit cycle a traced caller runs, while the
// scheduler's cycles mint their own fit.cycle and migrate.cycle roots on this
// tracer. A nil tracer (the default) keeps every span site a no-op.
func WithTracer(tr *trace.Tracer) ServiceOption {
	return func(c *serviceConfig) error {
		c.tracer = tr
		return nil
	}
}

// Service is the one front door to the POI-labelling system: a
// concurrency-safe serving type that runs the paper's alternating
// inference/assignment protocol over a pluggable Engine. It accepts stable
// string task and worker IDs with dynamic registration — AddTask and
// AddWorker work before and after answers start flowing — and interns them
// to the dense indices the flattened EM hot paths expect.
//
// There is one submit path, one read path and one fit: every accepted answer
// is learned by the live engine and counted; a full fit is EM over a fork of
// the engine with no lock held, adopted by the live engine and published as
// an immutable parameter generation; and Results, ResultSet, WorkerInfo,
// Health and FitStats serve that generation and those counters, never the
// engine. WithBackgroundFit only decides who triggers a fit: the caller that
// makes it due (the default — that caller runs it and waits, and Results
// first brings the generation up to date), or a scheduler goroutine, with
// reads serving the last generation however stale.
//
// All methods are safe for concurrent use; long fits honor their context
// between EM iterations. Budget and pending semantics are uniform across
// engines: every pair handed out by RequestTasks spends one budget unit and
// stays pending (excluded from re-assignment) until its answer arrives, and
// unsolicited answers are learned from without touching the budget.
type Service struct {
	mu  sync.RWMutex
	cfg serviceConfig
	eng Engine
	// asg is the configured assigner (WithAssigner), built with the engine
	// and planning over its view whatever the shape; an elastic migration
	// swaps the engine and keeps it.
	asg assign.ExcludingAssigner

	taskIdx   map[string]TaskID
	taskKeys  []string // dense index -> stable ID
	tasks     []Task   // dense task definitions
	workerIdx map[string]WorkerID
	workerKey []string
	workers   []Worker

	// led is the hand-out accounting — pending pairs, remaining budget, the
	// accepted-answer count — and the only code that changes any of them.
	led       ledger
	sinceFull int
	// sinceFull counts the answers, and dirty reports any evidence (answers,
	// tasks, workers), the last adopted full fit did not see. Without a
	// scheduler they make a submission's fit and a barrier's or read's due.
	dirty bool

	// builtTasks/builtWorkers are the registration counts at the moment the
	// engine was built (zero until then). The distance normalizer and the
	// geographic partitions of the sharded/federated engines are computed
	// over exactly this prefix, so a checkpoint records the boundary and a
	// restore rebuilds the engine at it before replaying later
	// registrations.
	builtTasks   int
	builtWorkers int

	// Generation state. published is the last parameter generation — replaced
	// by every adopted full fit and the only thing a read touches; non-nil
	// once the engine exists, unless Fit or a read built it and that first
	// fit is still running. bg runs the fit cycles and, where configured, the
	// scheduler; baseGen seeds the generation counter from a restored
	// checkpoint so generations stay monotonic across restarts, and
	// restoredGen numbers the generation Restore published (0: none) — a
	// checkpoint taken while it is still current records baseGen again, so
	// restore followed by checkpoint reproduces the snapshot byte for byte.
	// resultsSize is the length of the last results body a generation encoded,
	// from which the next one sizes its buffer (paramGen.resultsJSON).
	bg          *fitPipeline
	published   atomic.Pointer[paramGen]
	resultsSize atomic.Int64
	baseGen     uint64
	restoredGen uint64

	// Lock-free planning state (see plan.go). sincePlan records, per worker,
	// the tasks answered since the published plan snapshot was captured —
	// together with the pending lists it forms the exclusions a snapshot plan
	// starts from; it is reset at every capture and is nil unless planEnabled. cands is
	// the per-worker candidate index, planPool recycles planner scratch
	// across off-lock plans (both nil unless planEnabled), planStats counts
	// commit outcomes, and planEnabled reports the path is configured.
	// forceLockedPlan routes every round through the locked planner; the
	// equivalence tests use it to diff the two paths.
	sincePlan       map[WorkerID][]TaskID
	cands           *assign.Candidates
	planPool        sync.Pool
	planStats       planCounters
	planEnabled     bool
	forceLockedPlan bool

	// Elastic re-sharding state (see elastic.go). The controller is the
	// drift-detector goroutine; migrations themselves execute as cycles of
	// the fit pipeline so they serialize with its fits.
	elastic *elasticController

	// observer receives the instrumentation events, nil when nobody listens;
	// guarded by mu (SetObserver replaces it on a running service).
	observer Observer
}

// NewService creates a Service. With no options it serves the single engine
// with AccOpt assignment, h = 2, an unlimited budget, and a full fit every
// 100 answers. Register at least one task and one worker before submitting
// answers or requesting assignments.
func NewService(opts ...ServiceOption) (*Service, error) {
	cfg := serviceConfig{
		engine:         EngineSingle,
		initialBudget:  -1,
		h:              2,
		assigner:       AssignerAccOpt,
		fullEMInterval: 100,
		model:          core.DefaultConfig(),
	}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.model.FuncSet == nil {
		cfg.model = core.DefaultConfig()
	}
	s := newBareService(cfg)
	s.observer = cfg.observer
	if cfg.elasticOn {
		if cfg.engine != EngineSharded {
			return nil, fmt.Errorf("poilabel: WithElasticShards requires the sharded engine (got %q)", cfg.engine)
		}
		if cfg.bgInterval <= 0 {
			return nil, fmt.Errorf("poilabel: WithElasticShards requires WithBackgroundFit (migrations are queued on its scheduler)")
		}
	}
	// Without a scheduler the live engine's per-answer updates are newer than
	// any generation, so plans come from it, under the lock.
	if cfg.bgInterval > 0 && cfg.assigner == AssignerAccOpt {
		s.planEnabled = true
		s.planPool.New = func() any { return assign.NewPlanner() }
		s.cands = assign.NewCandidates(assign.DefaultCandidatePrefix)
	}
	s.bg = newFitPipeline(s, cfg.bgInterval, cfg.bgMinAnswers)
	if cfg.elasticOn {
		s.elastic = newElasticController(s, cfg.elastic)
		if cfg.elastic.CheckInterval > 0 {
			go s.elastic.run()
		}
	}
	return s, nil
}

// newBareService returns an empty service holding cfg and nothing that runs
// or listens: what NewService starts from, and the unshared scratch Restore
// replays a snapshot into.
func newBareService(cfg serviceConfig) *Service {
	return &Service{
		cfg:       cfg,
		taskIdx:   make(map[string]TaskID),
		workerIdx: make(map[string]WorkerID),
		led:       ledger{pending: make(map[WorkerID][]TaskID), budget: cfg.initialBudget},
		dirty:     true,
	}
}

// AddTask registers a labelling task under a stable string ID. Tasks can be
// added at any time, including after answers have been submitted; new tasks
// start at the model's priors and become assignable immediately.
func (s *Service) AddTask(id string, spec TaskSpec) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addTaskLocked(id, spec)
}

// addTaskLocked is AddTask's body; callers must hold the write lock.
func (s *Service) addTaskLocked(id string, spec TaskSpec) error {
	if id == "" {
		return fmt.Errorf("poilabel: empty task id")
	}
	if len(spec.Labels) == 0 {
		return fmt.Errorf("poilabel: task %q has no labels", id)
	}
	if _, ok := s.taskIdx[id]; ok {
		return fmt.Errorf("%w: task %q", ErrDuplicateID, id)
	}
	t := Task{
		ID:       TaskID(len(s.tasks)),
		Name:     spec.Name,
		Location: spec.Location,
		Labels:   append([]string(nil), spec.Labels...),
		Reviews:  spec.Reviews,
	}
	if s.eng != nil {
		if err := s.eng.AddTask(t); err != nil {
			return err
		}
	}
	s.taskIdx[id] = t.ID
	s.taskKeys = append(s.taskKeys, id)
	s.tasks = append(s.tasks, t)
	// SpatialFirst holds a grid index over task locations frozen at
	// construction; rebuild it so the new task is discoverable. The other
	// assigners read the view's tasks directly and need nothing.
	if _, ok := s.asg.(*assign.SpatialFirst); ok {
		s.asg = assign.NewSpatialFirst(s.tasks)
	}
	s.dirty = true
	return nil
}

// AddWorker registers a crowd worker under a stable string ID. Workers can
// be added at any time; new workers start at the model's priors.
func (s *Service) AddWorker(id string, spec WorkerSpec) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addWorkerLocked(id, spec)
}

// addWorkerLocked is AddWorker's body; callers must hold the write lock.
func (s *Service) addWorkerLocked(id string, spec WorkerSpec) error {
	if id == "" {
		return fmt.Errorf("poilabel: empty worker id")
	}
	if len(spec.Locations) == 0 {
		return fmt.Errorf("poilabel: worker %q has no locations", id)
	}
	if _, ok := s.workerIdx[id]; ok {
		return fmt.Errorf("%w: worker %q", ErrDuplicateID, id)
	}
	w := Worker{
		ID:        WorkerID(len(s.workers)),
		Name:      spec.Name,
		Locations: append([]Point(nil), spec.Locations...),
	}
	if s.eng != nil {
		if err := s.eng.AddWorker(w); err != nil {
			return err
		}
	}
	s.workerIdx[id] = w.ID
	s.workerKey = append(s.workerKey, id)
	s.workers = append(s.workers, w)
	s.dirty = true
	return nil
}

// ensureEngine builds the configured engine on first use and publishes its
// prior-only generation, so published is non-nil whenever an engine exists.
// Callers must hold the write lock.
func (s *Service) ensureEngine() error {
	if s.eng != nil {
		return nil
	}
	if err := s.buildEngine(nil, 0); err != nil {
		return err
	}
	s.publishLocked(0, 0, false)
	return nil
}

// buildEngine constructs the configured engine over everything registered so
// far; the distance normalizer spans every location registered at build time
// (model.SpanNormalizer; later registrations use the same scale, clamped to
// [0, 1]). The elastic
// restore path pins two degrees of freedom from the snapshot instead of
// recomputing them: an explicit shard layout (sharded engine only; nil means
// the kd default) and the normalizer diameter (zero means derive it from the
// registered locations) — after a migration the live layout is no longer a
// function of the built prefix. The caller publishes the engine's first
// generation before it releases the write lock.
func (s *Service) buildEngine(layout [][]int, diam float64) error {
	if len(s.tasks) == 0 {
		return ErrNoTasks
	}
	if len(s.workers) == 0 {
		return ErrNoWorkers
	}
	var norm geo.Normalizer
	if diam > 0 {
		norm = geo.NewNormalizer(diam)
	} else {
		var err error
		if norm, err = model.SpanNormalizer(s.tasks, s.workers); err != nil {
			return err
		}
	}
	shCfg := shard.Config{Shards: s.cfg.shards, Model: s.cfg.model}
	var (
		eng Engine
		err error
	)
	switch s.cfg.engine {
	case EngineSingle:
		eng, err = newSingleEngine(s.tasks, s.workers, norm, s.cfg.model)
	case EngineSharded:
		var sh *shard.Sharded
		if sh, err = shard.NewWithLayout(s.tasks, s.workers, norm, shCfg, layout); err == nil {
			eng = newShardedEngine(sh)
		}
	case EngineFederated:
		var fed *federation.Federation
		if fed, err = federation.New(s.tasks, s.workers, norm, federation.Config{Cities: s.cfg.cities, Shard: shCfg}); err == nil {
			eng = newFederatedEngine(fed)
		}
	default:
		err = fmt.Errorf("poilabel: unknown engine kind %d", int(s.cfg.engine))
	}
	if err != nil {
		return err
	}
	if s.asg, err = newAssigner(s.cfg.assigner, s.tasks, s.cfg.seed); err != nil {
		return err
	}
	s.eng = eng
	s.builtTasks = len(s.tasks)
	s.builtWorkers = len(s.workers)
	return nil
}

// publishLocked snapshots the engine's read state into a fresh parameter
// generation and swaps it in for every reader; it is how an engine's first
// state, an adopted full fit and a restore become visible. seq is the answer
// sequence the generation covers for scheduling
// purposes (full fit plus merged delta); fullSeq is the part covered by the
// underlying full fit. Callers must hold the write lock.
func (s *Service) publishLocked(seq, fullSeq uint64, converged bool) {
	pub := s.eng.Publish()
	results := make([]TaskResult, len(s.tasks))
	for t := range s.tasks {
		results[t] = TaskResult{
			Task:     s.taskKeys[t],
			Labels:   s.tasks[t].Labels,
			Prob:     pub.Result.Prob[t],
			Inferred: pub.Result.Inferred[t],
		}
	}
	gen := s.baseGen + 1
	prev := s.published.Load()
	if prev != nil {
		gen = prev.gen + 1
	}
	// Capture the planning snapshot alongside the parameters when lock-free
	// planning is configured. Resetting sincePlan here is what keeps the
	// off-lock exclusion set bounded: the snapshot structurally excludes
	// every answer it captured, so only answers accepted after this point
	// need tracking.
	var plan *assign.Snapshot
	if s.planEnabled {
		plan = s.eng.PlanSnapshot()
		s.sincePlan = make(map[WorkerID][]TaskID)
	}
	s.published.Store(&paramGen{
		gen:        gen,
		seq:        seq,
		fullSeq:    fullSeq,
		at:         time.Now(),
		converged:  converged,
		results:    results,
		dense:      pub.Result,
		pi:         pub.PI,
		pdw:        pub.PDW,
		plan:       plan,
		superseded: make(chan struct{}),
	})
	if prev != nil {
		close(prev.superseded)
	}
}

// lookup resolves stable IDs to dense indices. Callers must hold a lock.
func (s *Service) lookupWorker(id string) (WorkerID, error) {
	w, ok := s.workerIdx[id]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownWorker, id)
	}
	return w, nil
}

func (s *Service) lookupTask(id string) (TaskID, error) {
	t, ok := s.taskIdx[id]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownTask, id)
	}
	return t, nil
}

// SubmitAnswer feeds one worker's votes on one task into the engine. It is
// SubmitAnswerContext without a deadline: the full fit the FullEMInterval-th
// submission makes due runs to completion.
func (s *Service) SubmitAnswer(workerID, taskID string, selected []bool) error {
	// The context-free compatibility surface: the root context is the entire
	// point of this wrapper.
	//lint:ignore ctxflow context-free compat API; callers with deadlines use SubmitAnswerContext
	return s.SubmitAnswerContext(context.Background(), workerID, taskID, selected)
}

// SubmitAnswerContext feeds one worker's votes on one task into the engine.
// The pair's pending mark (if any) is cleared; unsolicited answers — pairs
// never handed out by RequestTasks — are learned from exactly the same way
// and never touch the budget. Every answer takes the same path — learned by
// the live engine (incremental EM on the single engine, a log append on the
// batch engines), counted, and asked whether it makes a full fit due.
// Without a scheduler the FullEMInterval-th submission then runs that fit
// itself, honoring ctx between EM iterations (a cancelled fit returns the
// context's error: the answer is accepted, the fit still owed); with
// WithBackgroundFit it only wakes the scheduler and never waits for a fit.
func (s *Service) SubmitAnswerContext(ctx context.Context, workerID, taskID string, selected []bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ctx, sub := trace.Start(ctx, "answer.submit")
	fitDue, err := s.submitAnswer(ctx, workerID, taskID, selected)
	if err == nil && fitDue {
		// The expensive tail of every FullEMInterval-th submission, run with
		// the write lock released.
		err = s.bg.runCycle(ctx, cycle{caller: true, unless: notDue})
	}
	if err != nil {
		sub.Fail(err)
	}
	sub.End()
	return err
}

// submitAnswer is SubmitAnswerContext's locked section: it takes the answer
// in and reports whether the caller now owes the service a full fit.
func (s *Service) submitAnswer(ctx context.Context, workerID, taskID string, selected []bool) (fitDue bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w, err := s.lookupWorker(workerID)
	if err != nil {
		return false, err
	}
	t, err := s.lookupTask(taskID)
	if err != nil {
		return false, err
	}
	if got, want := len(selected), len(s.tasks[t].Labels); got != want {
		return false, fmt.Errorf("poilabel: answer to task %q has %d votes, task has %d labels", taskID, got, want)
	}
	if err := s.ensureEngine(); err != nil {
		return false, err
	}
	a := Answer{Worker: w, Task: t, Selected: append([]bool(nil), selected...)}
	// The dedup phase: was this pair handed out by RequestTasks (pending),
	// and does the engine already hold an answer for it (the Learn below
	// rejects duplicates)? Only a child span — its End never touches the
	// rings, so it is safe under the write lock we hold.
	_, ded := trace.Start(ctx, "answer.dedup")
	if s.led.isPending(w, t) {
		ded.Attr("pending", "true")
	}
	ded.End()
	// Is a full fit due once this answer is in, and who triggers it? The
	// scheduler, woken at its eager threshold (its tick picks up the rest);
	// without one, this submission when it completes the FullEMInterval,
	// unless a cycle in flight will cover the answer when it merges.
	var wakeScheduler bool
	if s.bg.scheduled {
		wakeScheduler = s.bg.backlog()+1 >= uint64(s.cfg.bgMinAnswers)
	} else {
		fitDue = s.cfg.fullEMInterval > 0 && s.sinceFull+1 >= s.cfg.fullEMInterval && len(s.bg.slot) == 0
	}
	// The engine's cheap per-answer update keeps the live parameters warm
	// between full fits; the answer a fit follows at once is only logged,
	// since the fit recomputes every estimate from the log.
	_, lrn := trace.Start(ctx, "answer.learn")
	if fitDue {
		err = s.eng.Observe(a)
	} else {
		err = s.eng.Learn(a)
	}
	if err != nil {
		lrn.Fail(err)
		lrn.End()
		return false, err
	}
	lrn.End()
	s.led.answer(w, t)
	if s.sincePlan != nil {
		// The published plan snapshot predates this answer; record the
		// pair so off-lock plans exclude it without re-reading the engine.
		s.sincePlan[w] = append(s.sincePlan[w], t)
	}
	s.sinceFull++
	s.dirty = true
	if s.observer != nil {
		s.observer.AnswerObserved(fitDue)
	}
	if wakeScheduler {
		s.bg.kickNow()
	}
	return fitDue, nil
}

// RequestTasks runs the task assigner for a set of requesting workers and
// returns up to TasksPerRequest tasks each, bounded by the remaining budget.
// Returned pairs are recorded as pending — they spend budget immediately and
// are excluded from later rounds until answered — so re-requesting without
// answering never hands out duplicates. When the budget is already exhausted
// RequestTasks returns ErrBudgetExhausted; when it runs out mid-round the
// round is trimmed to the remaining units.
//
// With a fit scheduler and the AccOpt assigner, on every engine shape,
// planning runs off the write lock against the last published parameter
// generation; only a short optimistic commit takes the write lock, re-checking
// each pick against the live pending set, answer log, and budget, and
// replanning conflicted picks. Every other configuration — other assigners,
// workers registered after the last publication, and every service without a
// scheduler, where the live engine is newer than any generation — plans from
// the live engine under the write lock. Both paths produce identical
// assignments on a quiesced service.
func (s *Service) RequestTasks(ctx context.Context, workerIDs []string) (map[string][]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, snapSp := trace.Start(ctx, "plan.snapshot")
	ws, pc, err := s.capturePlan(workerIDs)
	if err != nil {
		snapSp.Fail(err)
		snapSp.End()
		return nil, err
	}
	if pc == nil {
		snapSp.Attr("path", "locked")
		snapSp.End()
		return s.requestTasksLocked(ctx, ws)
	}
	snapSp.AttrInt("gen", int64(pc.pub.gen))
	snapSp.AttrInt("pending", int64(pc.pending))
	snapSp.End()
	return s.requestTasksLockFree(ctx, ws, pc)
}

// capturePlan is RequestTasks' snapshot phase: under the read lock, resolve
// the workers and capture what the off-lock planner works from. A nil
// planContext sends the round to the locked planner.
func (s *Service) capturePlan(workerIDs []string) ([]WorkerID, *planContext, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.led.exhausted() {
		return nil, nil, ErrBudgetExhausted
	}
	ws := make([]WorkerID, len(workerIDs))
	for i, id := range workerIDs {
		w, err := s.lookupWorker(id)
		if err != nil {
			return nil, nil, err
		}
		ws[i] = w
	}
	// Only AccOpt behind a fit scheduler publishes a plan view (planEnabled),
	// so a generation that carries one implies it.
	pub := s.published.Load()
	if s.forceLockedPlan || pub == nil || pub.plan == nil {
		return ws, nil, nil
	}
	// Workers registered after the snapshot was captured are invisible to
	// it; fall back to the locked planner for this round.
	for _, w := range ws {
		if int(w) >= len(pub.plan.Workers()) {
			return ws, nil, nil
		}
	}
	// Copy the requesting workers' live exclusions: their pending pairs plus
	// their answers accepted since the snapshot. The copy may go stale the
	// moment the lock drops — the optimistic commit re-validates every pick —
	// but starting close to live keeps conflicts rare. The ID tables are
	// append-only, so the captured slice headers stay valid off-lock.
	ex, pending := s.led.exclusions(ws)
	for w := range ex {
		ex[w] = append(ex[w], s.sincePlan[w]...)
	}
	return ws, &planContext{
		pub:       pub,
		exclude:   ex,
		pending:   pending,
		taskKeys:  s.taskKeys,
		workerKey: s.workerKey,
		observer:  s.observer,
	}, nil
}

// requestTasksLocked is the write-locked assignment path: plan from the live
// engine and commit in one critical section. It serves the non-planner
// assigners, services without a fit scheduler, the window before the first
// publication, and workers newer than the published snapshot.
func (s *Service) requestTasksLocked(ctx context.Context, ws []WorkerID) (map[string][]string, error) {
	_, sp := trace.Start(ctx, "plan.locked")
	defer sp.End()
	s.mu.Lock()
	defer s.mu.Unlock()
	// Re-check under the write lock: the budget may have been spent between
	// the caller's read-locked check and here.
	if s.led.exhausted() {
		return nil, ErrBudgetExhausted
	}
	if err := s.ensureEngine(); err != nil {
		return nil, err
	}
	s.planStats.locked.Add(1)
	// The live planner leaves out every answered and every pending pair and
	// the round is trimmed to the budget, so the commit takes it whole. The
	// budget is not spent (re-checked above), and h is positive.
	ex, pending := s.led.exclusions(ws)
	plan := assign.Trim(s.asg.AssignExcluding(s.eng.view(), ws, s.cfg.h, ex), s.led.budget)
	accepted, _, _ := s.led.commit(plan, nil)
	if pending > 0 && s.observer != nil {
		s.observer.DedupHitsObserved(pending)
	}
	out, committed := handOut(accepted, s.workerKey, s.taskKeys)
	sp.AttrInt("workers", int64(len(ws)))
	sp.AttrInt("committed", committed)
	return out, nil
}

// handOut translates a committed round into the stable IDs RequestTasks
// returns, and counts its pairs.
func handOut(accepted map[WorkerID][]TaskID, workerKey, taskKeys []string) (out map[string][]string, pairs int64) {
	out = make(map[string][]string, len(accepted))
	for w, ts := range accepted {
		ids := make([]string, len(ts))
		for i, t := range ts {
			ids[i] = taskKeys[t]
		}
		out[workerKey[w]] = ids
		pairs += int64(len(ts))
	}
	return out, pairs
}

// Fit brings the published generation up to a full fit over every answer
// accepted so far and reports whether that fit converged, building the engine
// first if nothing has yet. Without a scheduler it always refits — the caller
// runs the fit and waits for it, ctx honored between EM iterations; a
// cancelled fit keeps the last published generation. With WithBackgroundFit
// it is a barrier, not an unconditional refit: it returns as soon as a
// generation whose full fit covers every accepted answer is published, asking
// the scheduler for one only when the current generation falls short.
func (s *Service) Fit(ctx context.Context) (converged bool, err error) {
	if err := s.fullFitBarrier(ctx, true); err != nil {
		return false, err
	}
	return s.published.Load().converged, nil
}

// WaitFresh blocks until the published generation reflects, through a full
// EM fit, every answer accepted before the call — the barrier tests and
// pre-checkpoint hooks use to quiesce the service. With a scheduler it waits
// on (and requests) the scheduler's generations; without one the caller runs
// the fit when anything arrived since the last. It never builds the engine:
// before anything was inferred there is nothing to wait for.
func (s *Service) WaitFresh(ctx context.Context) error {
	return s.fullFitBarrier(ctx, false)
}

// fullFitBarrier is Fit (force) and WaitFresh (not): who triggers the full
// fit the caller waits for is the one thing a scheduler decides here.
func (s *Service) fullFitBarrier(ctx context.Context, force bool) error {
	if !s.bg.scheduled {
		c := cycle{caller: true, build: force, unless: clean}
		if force {
			c.unless = nil
		}
		return s.bg.runCycle(ctx, c)
	}
	if force {
		if err := s.ensurePublished(); err != nil {
			return err
		}
	}
	return s.bg.await(ctx)
}

// ensurePublished builds the engine — which publishes its prior-only
// generation — if nothing has been published yet.
func (s *Service) ensurePublished() error {
	if s.published.Load() != nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ensureEngine()
}

// servedGen is the one read path: the published generation, building the
// engine on the very first read. Without a scheduler a read is fresh by
// contract, so it first passes the barrier WaitFresh is (a read lock and a
// flag test on a settled service); with one it never waits.
func (s *Service) servedGen(ctx context.Context) (*paramGen, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var err error
	if s.bg.scheduled {
		err = s.ensurePublished()
	} else {
		err = s.bg.runCycle(ctx, cycle{caller: true, build: true, unless: clean})
	}
	if err != nil {
		return nil, err
	}
	return s.published.Load(), nil
}

// Results returns the current inference for every registered task, keyed by
// stable IDs, from the published generation. Without a scheduler the caller
// first runs a full fit if answers or registrations arrived since the last
// one, so the snapshot covers everything accepted before the call; on a
// settled service that is a flag test. With WithBackgroundFit it never triggers a
// fit and never waits on one — reads see generation N while N+1 is still
// fitting, and tasks registered since the last publication appear in the
// next generation; use WaitFresh first when a fully fitted snapshot matters
// more than latency. The returned slice is shared with other readers and
// must not be mutated.
func (s *Service) Results(ctx context.Context) ([]TaskResult, error) {
	pub, err := s.servedGen(ctx)
	if err != nil {
		return nil, err
	}
	return pub.results, nil
}

// EncodedResults is one published generation's results as the GET /results
// response body, with the facts about that same generation a response is
// stamped with.
type EncodedResults struct {
	// JSON is {"results":[...]} and a trailing newline: what encoding/json
	// writes for Results() of this generation. It is shared with every other
	// reader of the generation and must not be mutated.
	JSON []byte
	// Generation and PublishedAt identify the generation JSON encodes.
	Generation  uint64
	PublishedAt time.Time
	// Staleness is how long answers this generation does not cover have been
	// waiting (FitPipelineStats.Staleness, for this generation).
	Staleness time.Duration
	// Encoded reports that this call ran the generation's one encode; every
	// other read of the generation, concurrent or later, is served its bytes.
	Encoded bool
}

// ResultsJSON is Results already encoded: the generation Results would serve,
// under the same freshness contract, as its JSON response body. A generation
// is encoded at most once — by its first ResultsJSON reader, never at
// publication — and the bytes live and die with it, so a read of a generation
// somebody has read before costs a pointer load. An encoder failure (a NaN
// probability is the reachable one) is returned as the error, for every read
// of that generation.
func (s *Service) ResultsJSON(ctx context.Context) (EncodedResults, error) {
	pub, err := s.servedGen(ctx)
	if err != nil {
		return EncodedResults{}, err
	}
	body, encoded, err := pub.resultsJSON(&s.resultsSize)
	if err != nil {
		return EncodedResults{}, err
	}
	return EncodedResults{
		JSON:        body,
		Generation:  pub.gen,
		PublishedAt: pub.at,
		Staleness:   pub.staleness(s.led.answered()),
		Encoded:     encoded,
	}, nil
}

// ResultSet is Results in dense form: row t of the returned Result is the
// task registered t-th. The returned value is a copy the caller owns.
func (s *Service) ResultSet(ctx context.Context) (*Result, error) {
	pub, err := s.servedGen(ctx)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Prob:     make([][]float64, len(pub.dense.Prob)),
		Inferred: make([][]bool, len(pub.dense.Inferred)),
	}
	for t := range pub.dense.Prob {
		out.Prob[t] = append([]float64(nil), pub.dense.Prob[t]...)
		out.Inferred[t] = append([]bool(nil), pub.dense.Inferred[t]...)
	}
	return out, nil
}

// WorkerInfo returns one worker's estimate from the published generation
// (the lock is only taken to resolve the ID). It has no context and never
// fits: the estimate is as of the last full fit, and a worker registered
// after that publication — or before anything was published — reads as the
// model's priors, exactly what a fresh worker's estimate is.
func (s *Service) WorkerInfo(id string) (WorkerInfo, error) {
	s.mu.RLock()
	w, err := s.lookupWorker(id)
	s.mu.RUnlock()
	if err != nil {
		return WorkerInfo{}, err
	}
	info := WorkerInfo{Worker: id}
	if pub := s.published.Load(); pub != nil && int(w) < len(pub.pi) {
		info.Quality = pub.pi[w]
		info.DistanceSensitivity = append([]float64(nil), pub.pdw[w]...)
	} else {
		info.Quality = s.cfg.model.InitPI
		info.DistanceSensitivity = s.cfg.model.FuncSet.Uniform()
	}
	return info, nil
}

// RemainingBudget returns the number of assignments still available, or -1
// when the service was created without a budget.
func (s *Service) RemainingBudget() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.led.budget
}

// PendingCount returns the number of handed-out pairs still awaiting an
// answer.
func (s *Service) PendingCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.led.npending
}

// AnswerCount returns the number of answers accepted so far.
func (s *Service) AnswerCount() int {
	return int(s.led.answered())
}

// HealthStats is the service-level counter block /healthz and the gauge
// metrics serve, gathered in one pass.
type HealthStats struct {
	Tasks           int `json:"tasks"`
	Workers         int `json:"workers"`
	Answers         int `json:"answers"`
	Pending         int `json:"pending"`
	RemainingBudget int `json:"remaining_budget"`
}

// Health gathers every /healthz counter under a single read lock. The answer
// count is the accepted-answer sequence — which by invariant exactly tracks
// the engine's answer total, and is restored to it on checkpoint restore —
// so a scrape never recounts through the engine.
func (s *Service) Health() HealthStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return HealthStats{
		Tasks:           len(s.tasks),
		Workers:         len(s.workers),
		Answers:         int(s.led.answered()),
		Pending:         s.led.npending,
		RemainingBudget: s.led.budget,
	}
}

// SetObserver attaches (or, with nil, detaches) an instrumentation observer
// on a running service. The HTTP gateway uses it to wire the /metrics
// pipeline after construction.
func (s *Service) SetObserver(o Observer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observer = o
}

// NumTasks returns the number of registered tasks.
func (s *Service) NumTasks() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tasks)
}

// NumWorkers returns the number of registered workers.
func (s *Service) NumWorkers() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.workers)
}

// TaskIDs returns the stable IDs of all registered tasks in registration
// order (the dense order of ResultSet rows).
func (s *Service) TaskIDs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.taskKeys...)
}

// WorkerIDs returns the stable IDs of all registered workers in registration
// order.
func (s *Service) WorkerIDs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.workerKey...)
}

// EngineKind returns the configured engine kind.
func (s *Service) EngineKind() EngineKind {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cfg.engine
}
