package core

import (
	"fmt"
	"runtime"
	"slices"

	"poilabel/internal/distfunc"
	"poilabel/internal/geo"
	"poilabel/internal/model"
)

// Config controls the inference model. The zero value is not usable; use
// DefaultConfig as a starting point.
type Config struct {
	// Alpha is the mixing weight between the worker's distance-aware
	// quality and the POI influence in Equation 8. The paper uses 0.5.
	Alpha float64
	// FuncSet is the distance-function set F. The paper uses {f100, f10,
	// f0.1}.
	FuncSet *distfunc.Set
	// Tol is the convergence threshold on the maximum parameter change
	// between successive EM iterations. The paper uses 0.005.
	Tol float64
	// MaxIter caps the number of EM iterations of a full fit.
	MaxIter int
	// InitPI is the initial P(i_w = 1) for every worker. A value above 0.5
	// encodes the healthy-market assumption that most workers are
	// qualified.
	InitPI float64
	// InitPZ is the initial P(z_{t,k} = 1) prior before any evidence.
	InitPZ float64
	// IncrementalSweeps is the number of local E/M sweeps an incremental
	// update performs over the affected worker's and task's answers.
	IncrementalSweeps int
	// Parallelism is the number of goroutines the full-EM E-step fans out
	// to. Values below 2 run serially. The E-step is embarrassingly
	// parallel over answers; results are deterministic for a fixed
	// Parallelism value (chunks merge in order) but may differ from the
	// serial result in the last few floating-point bits.
	Parallelism int
	// Smoothing is the MAP pseudo-count mixed into every M-step estimate
	// (Beta prior on P(z) and P(i), symmetric Dirichlet on P(d_w) and
	// P(d_t)). It keeps estimates off the 0/1 boundary, where the model
	// has a known non-identifiability (a pure spammer is explained equally
	// well by i_w = 0 and by i_w = 1 with the steepest distance function),
	// and regularizes workers and tasks with few answers. Zero disables
	// smoothing, reproducing Equation 14 exactly.
	Smoothing float64
}

// DefaultConfig returns the configuration used in the paper's experiments,
// with the E-step fanning out over all available CPUs.
func DefaultConfig() Config {
	return Config{
		Alpha:             0.5,
		FuncSet:           distfunc.PaperSet(),
		Tol:               0.005,
		MaxIter:           100,
		InitPI:            0.7,
		InitPZ:            0.5,
		IncrementalSweeps: 2,
		Parallelism:       runtime.NumCPU(),
		Smoothing:         1,
	}
}

func (c *Config) validate() error {
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("core: alpha %v out of [0,1]", c.Alpha)
	}
	if c.FuncSet == nil || c.FuncSet.Len() == 0 {
		return fmt.Errorf("core: nil or empty function set")
	}
	if c.Tol <= 0 {
		return fmt.Errorf("core: non-positive tolerance %v", c.Tol)
	}
	if c.MaxIter <= 0 {
		return fmt.Errorf("core: non-positive MaxIter %d", c.MaxIter)
	}
	if c.InitPI <= 0 || c.InitPI >= 1 {
		return fmt.Errorf("core: InitPI %v out of (0,1)", c.InitPI)
	}
	if c.InitPZ <= 0 || c.InitPZ >= 1 {
		return fmt.Errorf("core: InitPZ %v out of (0,1)", c.InitPZ)
	}
	if c.IncrementalSweeps <= 0 {
		return fmt.Errorf("core: non-positive IncrementalSweeps %d", c.IncrementalSweeps)
	}
	if c.Smoothing < 0 {
		return fmt.Errorf("core: negative Smoothing %v", c.Smoothing)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("core: negative Parallelism %d", c.Parallelism)
	}
	return nil
}

// Model is the location-aware inference model bound to a fixed set of tasks
// and workers. It accumulates answers and exposes the estimated parameters,
// inference results, and answer-accuracy predictions the task assigner
// consumes.
//
// Model is not safe for concurrent use; the framework serializes inference
// and assignment, matching the paper's alternating protocol.
type Model struct {
	cfg     Config
	tasks   []model.Task
	workers []model.Worker
	norm    geo.Normalizer
	answers *model.AnswerSet
	params  *Params

	// dist[w] is worker w's normalized-distance row over all tasks. Rows
	// are allocated on the worker's first distance query (-1 marks unset
	// cells; normalized distances live in [0, 1]), so memory scales with
	// the workers actually queried instead of eagerly with |W|·|T|.
	dist [][]float64
	// afv is the answer-indexed f-value store: afv[i·|F| : (i+1)·|F|] is
	// [f_j(d(w,t))] for the i-th observed answer, resolved once at Observe
	// time. The E-step reads it sequentially — contiguous memory, no map
	// lookups — and it grows with observed answers, not with |W|·|T|.
	afv []float64
}

// NewModel creates a model for the given tasks and workers. The distance
// normalizer should span the dataset (for example geo.NormalizerFor over all
// POI locations), mirroring the paper's normalization by maximum POI
// distance.
func NewModel(tasks []model.Task, workers []model.Worker, norm geo.Normalizer, cfg Config) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(tasks) == 0 {
		return nil, fmt.Errorf("core: no tasks")
	}
	if len(workers) == 0 {
		return nil, fmt.Errorf("core: no workers")
	}
	m := &Model{
		cfg:     cfg,
		tasks:   tasks,
		workers: workers,
		norm:    norm,
		answers: model.NewAnswerSet(),
		dist:    make([][]float64, len(workers)),
	}
	m.params = m.initialParams()
	return m, nil
}

func (m *Model) initialParams() *Params {
	p := &Params{
		PZ:  make([][]float64, 0, len(m.tasks)),
		PI:  make([]float64, 0, len(m.workers)),
		PDW: make([][]float64, 0, len(m.workers)),
		PDT: make([][]float64, 0, len(m.tasks)),
	}
	m.appendPriors(p)
	return p
}

// appendPriors grows p with a row at the configured priors for every task
// and worker of the model it does not cover yet: InitPZ per label and a
// uniform POI influence, InitPI and a uniform distance sensitivity. It is how
// the initial parameters, a late registration and the adoption of a fit that
// predates one all give a newcomer the same start.
func (m *Model) appendPriors(p *Params) {
	for t := len(p.PZ); t < len(m.tasks); t++ {
		pz := make([]float64, len(m.tasks[t].Labels))
		for k := range pz {
			pz[k] = m.cfg.InitPZ
		}
		p.PZ = append(p.PZ, pz)
		p.PDT = append(p.PDT, m.cfg.FuncSet.Uniform())
	}
	for w := len(p.PI); w < len(m.workers); w++ {
		p.PI = append(p.PI, m.cfg.InitPI)
		p.PDW = append(p.PDW, m.cfg.FuncSet.Uniform())
	}
}

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// Tasks returns the task set the model was built over.
func (m *Model) Tasks() []model.Task { return m.tasks }

// Workers returns the worker set.
func (m *Model) Workers() []model.Worker { return m.workers }

// Answers returns the accumulated answer set. Callers must not mutate it
// directly; use Observe.
func (m *Model) Answers() *model.AnswerSet { return m.answers }

// Normalizer returns the distance normalizer the model was built with.
// Snapshot-planning views recompute worker–task distances through it.
func (m *Model) Normalizer() geo.Normalizer { return m.norm }

// HasAnswer reports whether worker w has already answered task t.
func (m *Model) HasAnswer(w model.WorkerID, t model.TaskID) bool {
	return m.answers.Has(w, t)
}

// AnsweredTasks appends T(w), the tasks worker w has answered, to buf in
// submission order and returns the extended slice.
func (m *Model) AnsweredTasks(w model.WorkerID, buf []model.TaskID) []model.TaskID {
	for _, i := range m.answers.ByWorker(w) {
		_, t := m.answers.Pair(i)
		buf = append(buf, t)
	}
	return buf
}

// WorkerAnswerCount returns |T(w)|, the number of answers worker w has given.
func (m *Model) WorkerAnswerCount(w model.WorkerID) int {
	return m.answers.WorkerAnswerCount(w)
}

// TaskAnswerCount returns |W(t)|, the number of answers task t has received.
func (m *Model) TaskAnswerCount(t model.TaskID) int {
	return m.answers.TaskAnswerCount(t)
}

// Params returns the current parameter estimates. The returned pointer
// aliases the model's state and is valid only until the next Fit, Update,
// or Restore — Fit recycles parameter buffers between iterations, so a
// previously returned pointer may be overwritten with intermediate values.
// Use Params().Clone() for a stable snapshot.
func (m *Model) Params() *Params { return m.params }

// Distance returns the normalized distance between worker w and task t,
// computing and caching it on first use. Rows of the cache are allocated
// lazily per worker; concurrent callers are safe only when no two
// goroutines query the same worker (the assignment init relies on this).
func (m *Model) Distance(w model.WorkerID, t model.TaskID) float64 {
	row := m.dist[w]
	if row == nil {
		row = make([]float64, len(m.tasks))
		for i := range row {
			row[i] = -1
		}
		m.dist[w] = row
	}
	if row[t] < 0 {
		row[t] = m.norm.MinDistance(m.workers[w].Locations, m.tasks[t].Location)
	}
	return row[t]
}

// fvalsAt returns the f-value vector [f_j(d(w,t))] of the i-th observed
// answer, a view into the flat answer-indexed store afv of nf-wide rows.
func fvalsAt(afv []float64, nf, i int) []float64 {
	return afv[i*nf : (i+1)*nf : (i+1)*nf]
}

func (m *Model) fvalsAt(i int) []float64 { return fvalsAt(m.afv, m.cfg.FuncSet.Len(), i) }

// Observe appends an answer to the model's log without updating any
// parameter estimates, resolving the answer's f-value vector into the flat
// store. Call Fit for a full EM run or Update for an incremental one.
func (m *Model) Observe(a model.Answer) error {
	if int(a.Task) < 0 || int(a.Task) >= len(m.tasks) {
		return fmt.Errorf("core: answer references unknown task %d", a.Task)
	}
	if int(a.Worker) < 0 || int(a.Worker) >= len(m.workers) {
		return fmt.Errorf("core: answer references unknown worker %d", a.Worker)
	}
	if err := a.Validate(&m.tasks[a.Task]); err != nil {
		return err
	}
	if err := m.answers.Add(a); err != nil {
		return err
	}
	m.appendFVals(a.Worker, a.Task)
	return nil
}

// appendFVals resolves the f-value vector of the pair (w, t) into the flat
// answer-indexed store. Callers must append answers and f-values in
// lockstep (Observe per answer, Restore over a rebuilt log).
func (m *Model) appendFVals(w model.WorkerID, t model.TaskID) {
	nf := m.cfg.FuncSet.Len()
	n := len(m.afv)
	m.afv = slices.Grow(m.afv, nf)[:n+nf]
	m.cfg.FuncSet.Eval(m.Distance(w, t), m.afv[n:n+nf])
}

// Reset discards all answers and restores the initial parameters. The
// experiment harness uses it to replay answer prefixes. Distance caches
// survive a reset: locations do not change.
func (m *Model) Reset() {
	m.answers = model.NewAnswerSet()
	m.afv = m.afv[:0]
	m.params = m.initialParams()
}

// AddTask appends a task to the model after construction. The task's ID must
// be the next dense index (len(Tasks())); its labels start at the InitPZ
// prior and its POI influence at the uniform multinomial, exactly as at
// construction time. Existing estimates, the answer log, and the flat
// answer-indexed stores are untouched, so the EM hot paths see the new task
// only through answers that mention it.
func (m *Model) AddTask(t model.Task) error {
	if int(t.ID) != len(m.tasks) {
		return fmt.Errorf("core: new task has ID %d, want next dense index %d", t.ID, len(m.tasks))
	}
	if len(t.Labels) == 0 {
		return fmt.Errorf("core: new task %d has no labels", t.ID)
	}
	m.tasks = append(m.tasks, t)
	m.appendPriors(m.params)
	// Cached distance rows were sized to the old task count; extend them
	// with the unset marker so the new column is computed on first query.
	for w := range m.dist {
		if m.dist[w] != nil {
			m.dist[w] = append(m.dist[w], -1)
		}
	}
	return nil
}

// AddWorker appends a worker to the model after construction. The worker's ID
// must be the next dense index (len(Workers())); their quality starts at the
// InitPI prior and their distance sensitivity at the uniform multinomial.
func (m *Model) AddWorker(w model.Worker) error {
	if int(w.ID) != len(m.workers) {
		return fmt.Errorf("core: new worker has ID %d, want next dense index %d", w.ID, len(m.workers))
	}
	if len(w.Locations) == 0 {
		return fmt.Errorf("core: new worker %d has no locations", w.ID)
	}
	m.workers = append(m.workers, w)
	m.appendPriors(m.params)
	m.dist = append(m.dist, nil)
	return nil
}

// DistanceAwareQuality returns DQ_w(d) for worker w at normalized distance
// d: the mixture of the function set under the worker's current sensitivity
// distribution (Definition 5).
func (m *Model) DistanceAwareQuality(w model.WorkerID, d float64) float64 {
	return m.cfg.FuncSet.Mixture(m.params.PDW[w], d)
}

// POIInfluenceQuality returns IQ_t(d) for task t at normalized distance d
// (Definition 6).
func (m *Model) POIInfluenceQuality(t model.TaskID, d float64) float64 {
	return m.cfg.FuncSet.Mixture(m.params.PDT[t], d)
}

// WorkerQuality returns WQ_w = P(i_w = 1) (Definition 2).
func (m *Model) WorkerQuality(w model.WorkerID) float64 { return m.params.PI[w] }

// AgreementProb returns P(z_{t,k} = r_{w,t,k}) from Equation 9 — the
// probability that worker w's answer to any label of task t matches the
// truth under the current parameters:
//
//	P(agree) = 0.5·P(i_w=0) + P(i_w=1)·(α·DQ_w(d) + (1−α)·IQ_t(d))
//
// Note the value is label-independent: the model ties one accuracy to the
// whole (worker, task) pair.
func (m *Model) AgreementProb(w model.WorkerID, t model.TaskID) float64 {
	d := m.Distance(w, t)
	pi := m.params.PI[w]
	dq := m.DistanceAwareQuality(w, d)
	iq := m.POIInfluenceQuality(t, d)
	return 0.5*(1-pi) + pi*(m.cfg.Alpha*dq+(1-m.cfg.Alpha)*iq)
}

// Publish returns a self-contained copy of the model's read state: the
// materialized inference result plus per-worker quality and
// distance-sensitivity estimates. Nothing in the returned values aliases the
// model, so a serving layer can hand them to lock-free readers while the
// model keeps fitting — this is the single-model end of the background-fit
// pipeline's atomic parameter swap.
func (m *Model) Publish() (*model.Result, []float64, [][]float64) {
	pi := append([]float64(nil), m.params.PI...)
	pdw := make([][]float64, len(m.params.PDW))
	for w := range m.params.PDW {
		pdw[w] = append([]float64(nil), m.params.PDW[w]...)
	}
	return m.Result(), pi, pdw
}

// Result materializes the current inference: label k of task t is inferred
// correct iff P(z_{t,k} = 1) >= 0.5.
func (m *Model) Result() *model.Result {
	res := model.NewResult(m.tasks)
	for t := range m.tasks {
		for k := range m.tasks[t].Labels {
			p := m.params.PZ[t][k]
			res.Prob[t][k] = p
			res.Inferred[t][k] = p >= 0.5
		}
	}
	return res
}
