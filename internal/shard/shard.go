// Package shard partitions one city's POI-labelling world into K geographic
// shards and fits the location-aware inference model of internal/core on
// every shard concurrently. The answer graph is naturally near-block-diagonal
// by geography — workers answer tasks near them — so carving tasks into
// contiguous regions keeps most (worker, task) edges inside one shard and
// lets the shards' EM runs proceed independently.
//
// Merging follows the structure of the parameters. Per-task quantities (the
// label posteriors P(z) and the POI influence P(d_t)) live entirely inside
// one shard and concatenate directly. Per-worker quantities (the inherent
// quality P(i_w) and the distance sensitivity P(d_w)) are shared: a roaming
// worker — one with answers in more than one shard — gets independent
// estimates from each shard, merged by answer-count-weighted averaging, the
// same per-partition pooling classic Dawid–Skene-style EM uses to combine
// worker confusion estimates.
//
// Shards are for fitting, not for planning. A node is an assign.View over its
// global task indices — task rows, distances and coverage from the child
// owning each task, worker rows from the merged estimates — so an assignment
// round over a sharded world is the single engine's: one AccOpt round over
// every task (Coordinator, or any assigner the caller holds).
//
// # One partition node
//
// Every partition decision — nearest-region task routing, answer routing with
// the local-ID remap and per-child answer counts, the concurrent child fits,
// the count-weighted worker merge, the result gather, and the node view an
// assignment round reads — is written once, on Sharded, over the small child
// interface below. A child is either a leaf (one core.Model) or another
// *Sharded, so the same node one level up is a federation: NewNested builds
// a node whose children are per-city nodes, and internal/federation is only
// the adapter that names its parts "cities". The extras that need the answer
// logs themselves — the arrival order, Rebuild, the ShardedState checkpoint —
// belong to a node over leaves.
package shard

import (
	"context"
	"fmt"
	"sync"
	"time"

	"poilabel/internal/assign"
	"poilabel/internal/core"
	"poilabel/internal/geo"
	"poilabel/internal/model"
	"poilabel/internal/trace"
)

// DefaultShards is the shard count used when Config.Shards is zero.
const DefaultShards = 4

// Config configures a sharded fitter.
type Config struct {
	// Shards is K, the number of geographic partitions. Zero means
	// DefaultShards; values above the task count are clamped to it.
	Shards int
	// Model configures every per-shard inference model. A zero FuncSet
	// means core.DefaultConfig().
	Model core.Config
}

// child is what a partition node needs from each of its regions: the fit
// side, the registration and answer routing, and an assign.View the node's
// own view reads task rows, distances and coverage through. Task IDs
// crossing the interface are the child's dense local indices; worker IDs are
// global, because every child is built over the full worker pool.
type child interface {
	fitKid
	assign.View
	AddTask(model.Task) error
	AddWorker(model.Worker) error
	Observe(model.Answer) error
	TotalAnswers() int
	// fork captures the child as a fit will see it, and adopt installs what
	// fitting that capture produced; see Sharded.Fork and Sharded.Adopt.
	fork() fitKid
	adopt(fitKid)
	// posterior returns task t's label posteriors, borrowed: the parent's
	// gather reads them in place.
	posterior(t model.TaskID) []float64
}

// leaf is the bottom of the tree: one inference model.
type leaf struct{ *core.Model }

func (l *leaf) TotalAnswers() int { return l.Answers().Len() }

func (l *leaf) fit(ctx context.Context) (core.FitStats, error) { return l.FitContext(ctx) }

func (l *leaf) estimate(w model.WorkerID) (float64, []float64) {
	p := l.Params()
	return p.PI[w], p.PDW[w]
}

func (l *leaf) posterior(t model.TaskID) []float64 { return l.Params().PZ[t] }

func (l *leaf) fork() fitKid { return forkLeaf{l.Model.Fork()} }

// adopt leaves the answers the fork did not see logged: a leaf's per-answer
// update is Observe.
func (l *leaf) adopt(k fitKid) { l.Model.Adopt(k.(forkLeaf).Fork, false) }

// Sharded is a partition node: a fixed set of tasks carved into K geographic
// regions, each owned by one child. Built by New its children are inference
// models (the K shards of one city); built by NewNested they are themselves
// Sharded (the cities of a federation). Answers are routed to the child
// owning their task; Fit runs all children concurrently and merges the
// per-worker estimates. The node is also an assign.View over its global task
// indices (coordinator.go), which is how every assigner plans over it.
//
// Sharded is not safe for concurrent use by multiple goroutines; Fit itself
// fans out over the children internally.
type Sharded struct {
	cfg     Config
	norm    geo.Normalizer
	tasks   []model.Task
	workers []model.Worker

	parts     [][]int    // child -> global task indices, ascending at construction
	baseParts [][]int    // construction-time layout, frozen (AddTask grows parts only)
	shardOf   []int32    // global task -> child
	localOf   []int32    // global task -> dense local index within its child
	regions   []geo.Rect // bounding box of each child's task locations

	kids   []child
	models []*core.Model // kids' models when they are leaves, nil otherwise

	// nodeFit is the node's fit state — what FitContext reads and rewrites in
	// place; a Fork carries a copy.
	nodeFit
	lastFit FitStats

	// view is the scratch Params rebuilds: the node's assign.View rows.
	view core.Params

	// order logs the shard index of every accepted answer in global
	// submission order. Together with the per-shard append-only answer logs
	// it reconstructs the exact global arrival stream, which Rebuild replays
	// so a migrated fitter is bit-identical to a fresh one fed the same
	// answers (float summation order inside each shard is preserved). Kept
	// only over leaves, where Rebuild can use it.
	order []int32
}

// nodeFit is a node fit's working set: the children as a fit sees them, the
// per-child answer counts the merge weights by, and everything the fit
// writes.
type nodeFit struct {
	// city is the node's index inside an enclosing node (-1 at the top); a
	// nested fit stamps it on its fit.shard spans so the four shards of a
	// 2x2 federation are told apart in a trace.
	city int
	fits []fitKid // the kids: live children fitting in place, or their forks
	// overLeaves reports the kids are models (or models' forks), whose fits
	// the node traces as fit.shard spans; nested kids trace their own.
	overLeaves bool
	counts     [][]int // counts[s][w]: answers by worker w routed to child s
	// lastFitDur[s] is the wall-clock duration of child s's most recent fit
	// — one of the imbalance signals the drift detector watches.
	lastFitDur []time.Duration
	// Merged per-worker estimates, refreshed by a fit.
	pi  []float64
	pdw [][]float64
}

// fitKid is what a node's fit needs from each region.
type fitKid interface {
	// fit runs the child's full fit and summarizes it for the parent.
	fit(ctx context.Context) (core.FitStats, error)
	// estimate returns worker w's current quality and sensitivity. The
	// slice is borrowed: the parent's merge reads it in place.
	estimate(w model.WorkerID) (float64, []float64)
}

// New creates a sharded fitter. Task and worker IDs must be dense indices
// (0..len-1), as in core.NewModel callers; the normalizer should span the
// whole city so per-shard distances stay on the same scale as an unsharded
// model's.
func New(tasks []model.Task, workers []model.Worker, norm geo.Normalizer, cfg Config) (*Sharded, error) {
	return newNode(tasks, workers, norm, cfg, nil, nil)
}

// NewWithLayout creates a sharded fitter over an explicit partition instead
// of the kd-tree default. layout must partition the task indices 0..len-1
// into non-empty, strictly ascending groups; its length overrides
// Config.Shards. A nil layout falls back to geo.KDPartition, making New a
// thin wrapper. Elastic re-partitioning uses explicit layouts to rebuild a
// fitter at a migrated shard boundary and to restore snapshots whose layout
// no longer matches the kd construction over the current task set.
func NewWithLayout(tasks []model.Task, workers []model.Worker, norm geo.Normalizer, cfg Config, layout [][]int) (*Sharded, error) {
	return newNode(tasks, workers, norm, cfg, layout, nil)
}

// NewNested creates the same node one level up: the tasks are kd-partitioned
// into outer regions (clamped to the task count, like Config.Shards) and each
// region is itself a sharded fitter built by New with cfg over the full
// worker pool. Region estimates merge exactly as shard estimates do, and a
// one-region nested node is bit-identical to the plain fitter inside it.
func NewNested(tasks []model.Task, workers []model.Worker, norm geo.Normalizer, outer int, cfg Config) (*Sharded, error) {
	top := Config{Shards: outer, Model: cfg.Model}
	return newNode(tasks, workers, norm, top, nil, func(ci int, local []model.Task) (child, error) {
		c, err := New(local, workers, norm, cfg)
		if err != nil {
			return nil, err
		}
		c.city = ci
		return c, nil
	})
}

// newNode is the one constructor: it validates the dense-ID contract,
// settles the layout, and builds one child per group — a leaf unless nested
// supplies something else.
func newNode(tasks []model.Task, workers []model.Worker, norm geo.Normalizer, cfg Config, layout [][]int,
	nested func(si int, local []model.Task) (child, error)) (*Sharded, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("shard: no tasks")
	}
	if len(workers) == 0 {
		return nil, fmt.Errorf("shard: no workers")
	}
	for i := range tasks {
		if int(tasks[i].ID) != i {
			return nil, fmt.Errorf("shard: task at index %d has ID %d; IDs must be dense indices", i, tasks[i].ID)
		}
	}
	for i := range workers {
		if int(workers[i].ID) != i {
			return nil, fmt.Errorf("shard: worker at index %d has ID %d; IDs must be dense indices", i, workers[i].ID)
		}
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("shard: negative shard count %d", cfg.Shards)
	}
	if cfg.Shards == 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.Shards > len(tasks) {
		cfg.Shards = len(tasks)
	}
	if cfg.Model.FuncSet == nil {
		cfg.Model = core.DefaultConfig()
	}

	pts := make([]geo.Point, len(tasks))
	for i := range tasks {
		pts[i] = tasks[i].Location
	}
	if layout == nil {
		layout = geo.KDPartition(pts, cfg.Shards)
	} else {
		if err := ValidateLayout(layout, len(tasks)); err != nil {
			return nil, err
		}
		layout = cloneLayout(layout)
	}
	cfg.Shards = len(layout)
	s := &Sharded{
		cfg:       cfg,
		norm:      norm,
		tasks:     tasks,
		workers:   workers,
		parts:     layout,
		baseParts: cloneLayout(layout),
		shardOf:   make([]int32, len(tasks)),
		localOf:   make([]int32, len(tasks)),
		nodeFit:   nodeFit{overLeaves: nested == nil, city: -1, lastFitDur: make([]time.Duration, len(layout))},
	}
	for si, part := range s.parts {
		local := make([]model.Task, len(part))
		locs := make([]geo.Point, len(part))
		for j, g := range part {
			local[j] = tasks[g].WithID(model.TaskID(j))
			locs[j] = tasks[g].Location
			s.shardOf[g] = int32(si)
			s.localOf[g] = int32(j)
		}
		var kid child
		var err error
		if nested != nil {
			kid, err = nested(si, local)
		} else {
			var m *core.Model
			if m, err = core.NewModel(local, workers, norm, cfg.Model); err == nil {
				s.models = append(s.models, m)
				kid = &leaf{m}
			}
		}
		if err != nil {
			return nil, err
		}
		s.kids = append(s.kids, kid)
		s.fits = append(s.fits, kid)
		s.counts = append(s.counts, make([]int, len(workers)))
		s.regions = append(s.regions, geo.Bound(locs))
	}
	s.pi = make([]float64, len(workers))
	s.pdw = make([][]float64, len(workers))
	for w := range workers {
		s.pi[w] = cfg.Model.InitPI
		s.pdw[w] = cfg.Model.FuncSet.Uniform()
	}
	return s, nil
}

// AddTask appends a task after construction. The task's ID must be the next
// dense global index; it is routed to the child whose task region is nearest
// to its location (ties to the lowest index) and appended to that child with
// the next dense local index — a nested child routes it on to its own
// nearest shard. The owning region grows to cover the new location, so
// subsequent routing sees it.
func (s *Sharded) AddTask(t model.Task) error {
	if int(t.ID) != len(s.tasks) {
		return fmt.Errorf("shard: new task has ID %d, want next dense index %d", t.ID, len(s.tasks))
	}
	si := s.nearestRegion(t.Location)
	local := t.WithID(model.TaskID(len(s.parts[si])))
	if err := s.kids[si].AddTask(local); err != nil {
		return err
	}
	s.tasks = append(s.tasks, t)
	s.parts[si] = append(s.parts[si], int(t.ID))
	s.shardOf = append(s.shardOf, int32(si))
	s.localOf = append(s.localOf, int32(local.ID))
	s.regions[si] = s.regions[si].Union(geo.Rect{Min: t.Location, Max: t.Location})
	return nil
}

// AddWorker appends a worker after construction. The worker's ID must be the
// next dense global index; like construction-time workers they are registered
// with every child (answers decide which children actually estimate them)
// and start at the configured priors.
func (s *Sharded) AddWorker(w model.Worker) error {
	if int(w.ID) != len(s.workers) {
		return fmt.Errorf("shard: new worker has ID %d, want next dense index %d", w.ID, len(s.workers))
	}
	for _, k := range s.kids {
		if err := k.AddWorker(w); err != nil {
			return err
		}
	}
	s.workers = append(s.workers, w)
	for si := range s.counts {
		s.counts[si] = append(s.counts[si], 0)
	}
	s.pi = append(s.pi, s.cfg.Model.InitPI)
	s.pdw = append(s.pdw, s.cfg.Model.FuncSet.Uniform())
	return nil
}

// nearestRegion returns the child whose task region is nearest to p
// (distance zero when p falls inside; ties to the lowest index).
func (s *Sharded) nearestRegion(p geo.Point) int {
	best, bestD := 0, p.Dist(s.regions[0].Clamp(p))
	for si := 1; si < len(s.regions); si++ {
		if d := p.Dist(s.regions[si].Clamp(p)); d < bestD {
			best, bestD = si, d
		}
	}
	return best
}

// Region returns the bounding box of shard si's task locations.
func (s *Sharded) Region(si int) geo.Rect { return s.regions[si] }

// Observe routes an answer to the child owning its task, remapping the task
// ID to the child's local index. Like core.Model.Observe it only appends to
// the log; call Fit to update estimates.
func (s *Sharded) Observe(a model.Answer) error {
	if int(a.Task) < 0 || int(a.Task) >= len(s.tasks) {
		return fmt.Errorf("shard: answer references unknown task %d", a.Task)
	}
	if int(a.Worker) < 0 || int(a.Worker) >= len(s.workers) {
		return fmt.Errorf("shard: answer references unknown worker %d", a.Worker)
	}
	si := s.shardOf[a.Task]
	local := a
	local.Task = model.TaskID(s.localOf[a.Task])
	if err := s.kids[si].Observe(local); err != nil {
		return err
	}
	s.counts[si][a.Worker]++
	if s.models != nil {
		s.order = append(s.order, si)
	}
	return nil
}

// FitStats reports the outcome of a sharded fit.
type FitStats struct {
	// Shards holds every shard's full-EM stats. Over nested children each entry summarizes one child's whole fit
	// (Iterations, Converged, Elapsed); the child's LastFit has the detail.
	Shards []core.FitStats
	// Converged reports whether every shard's fit converged.
	Converged bool
	// Iterations is the maximum iteration count over the per-shard fits —
	// the depth of the critical path, comparable to a single model's
	// iteration count on the same answers.
	Iterations int
	// Roaming is the number of workers with answers in more than one shard.
	Roaming int
	// Elapsed is the wall-clock duration of the whole sharded fit,
	// including the merge.
	Elapsed time.Duration
}

// Fit runs full EM on every shard concurrently and merges the per-worker
// estimates (answer-count-weighted for roaming workers).
func (s *Sharded) Fit() FitStats {
	//lint:ignore ctxflow context-free compat API; callers with deadlines use FitContext
	st, _ := s.FitContext(context.Background())
	return st
}

// FitContext is Fit with cooperative cancellation, checked between EM
// iterations inside every shard. On
// cancellation every shard keeps its last completed iteration's parameters
// and the merged per-worker estimates are refreshed from them, so the
// fitter is left in a consistent (if unconverged) state. The fit runs in
// place: every child fits its own model and the merge rewrites the node's own
// estimates.
func (s *Sharded) FitContext(ctx context.Context) (FitStats, error) {
	st, err := s.fitContext(ctx)
	s.lastFit = st
	return st, err
}

// LastFit returns the stats of the node's most recent fit — how an enclosing
// node's caller reads the per-shard detail behind one nested child's summary.
func (s *Sharded) LastFit() FitStats { return s.lastFit }

// fit is FitContext seen from an enclosing node.
func (s *Sharded) fit(ctx context.Context) (core.FitStats, error) {
	st, err := s.FitContext(ctx)
	return st.summary(), err
}

func (st FitStats) summary() core.FitStats {
	return core.FitStats{Iterations: st.Iterations, Converged: st.Converged, Elapsed: st.Elapsed}
}

func (n *nodeFit) fitContext(ctx context.Context) (FitStats, error) {
	start := time.Now()
	st := FitStats{Shards: make([]core.FitStats, len(n.fits))}
	// Even a cancelled fit leaves the merged estimates refreshed from
	// whatever iteration each child reached.
	err := n.fitAll(ctx, st.Shards)
	n.mergeWorkers()
	st.Converged = err == nil
	for _, fs := range st.Shards {
		st.Iterations = max(st.Iterations, fs.Iterations)
		st.Converged = st.Converged && fs.Converged
	}
	if err == nil {
		st.Roaming = n.roaming()
	}
	st.Elapsed = time.Since(start)
	return st, err
}

// fitAll fits every child in one goroutine each. Children share no mutable
// state, and each goroutine writes a distinct stats slot, so the fan-out is
// race-free; the per-child results do not depend on the interleaving. The
// first context error observed by any child is returned.
func (n *nodeFit) fitAll(ctx context.Context, into []core.FitStats) error {
	var wg sync.WaitGroup
	errs := make([]error, len(n.fits))
	for i := range n.fits {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Per-shard child span, minted and ended on this goroutine — the
			// concurrent-emission case the arena mutex exists for. No-op
			// unless the caller's context carries a fit/migrate trace, and
			// only over leaves: a nested child's own fan-out mints them.
			var sp *trace.Span
			if n.overLeaves {
				_, sp = trace.Start(ctx, "fit.shard")
				if n.city >= 0 {
					sp.AttrInt("city", int64(n.city))
				}
				sp.AttrInt("shard", int64(i))
			}
			into[i], errs[i] = n.fits[i].fit(ctx)
			if errs[i] != nil {
				sp.Fail(errs[i])
			}
			sp.AttrInt("iterations", int64(into[i].Iterations))
			sp.End()
			n.lastFitDur[i] = into[i].Elapsed
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// mergeWorkers refreshes the merged per-worker estimates: each worker's
// quality and sensitivity are the answer-count-weighted average of the
// estimates from the children holding their answers. Workers with no answers
// keep their initial values.
func (n *nodeFit) mergeWorkers() {
	for w := range n.pi {
		wid := model.WorkerID(w)
		total, contributors, last := 0, 0, -1
		for si := range n.fits {
			if c := n.counts[si][w]; c > 0 {
				total += c
				contributors++
				last = si
			}
		}
		if total == 0 {
			continue
		}
		if contributors == 1 {
			// A non-roaming worker's merged estimate is their only child's
			// estimate, copied verbatim: the weighted-average path's
			// multiply-then-divide round trip would perturb the last bit.
			// This is what makes a one-child node bit-identical to its child.
			pi, pdw := n.fits[last].estimate(wid)
			n.pi[w] = pi
			copy(n.pdw[w], pdw)
			continue
		}
		pi := 0.0
		pdw := n.pdw[w]
		for j := range pdw {
			pdw[j] = 0
		}
		for si, k := range n.fits {
			c := float64(n.counts[si][w])
			if c == 0 {
				continue
			}
			kpi, kpdw := k.estimate(wid)
			pi += c * kpi
			for j := range pdw {
				pdw[j] += c * kpdw[j]
			}
		}
		inv := 1 / float64(total)
		n.pi[w] = pi * inv
		for j := range pdw {
			pdw[j] *= inv
		}
	}
}

// roaming counts the workers with answers in more than one child.
func (n *nodeFit) roaming() int {
	count := 0
	for w := range n.pi {
		shards := 0
		for si := range n.fits {
			if n.counts[si][w] > 0 {
				shards++
			}
		}
		if shards > 1 {
			count++
		}
	}
	return count
}

// estimate and posterior are the node seen from an enclosing node: its merged
// worker estimates, and its children's label posteriors one remap further
// down.
func (s *Sharded) estimate(w model.WorkerID) (float64, []float64) { return s.pi[w], s.pdw[w] }

func (s *Sharded) posterior(t model.TaskID) []float64 {
	return s.kids[s.shardOf[t]].posterior(model.TaskID(s.localOf[t]))
}

// Result materializes the node-wide inference: every task's label
// posteriors gathered from the leaf that owns it, in global task order.
func (s *Sharded) Result() *model.Result {
	res := model.NewResult(s.tasks)
	for g := range s.tasks {
		pz := s.posterior(model.TaskID(g))
		copy(res.Prob[g], pz)
		for k, v := range pz {
			res.Inferred[g][k] = v >= 0.5
		}
	}
	return res
}

// Publish returns a self-contained copy of the fitter's read state: the
// merged city-wide result plus the merged per-worker quality and sensitivity
// estimates. Nothing in the returned values aliases the fitter, so a serving
// layer can hand them to lock-free readers while the fitter keeps working.
func (s *Sharded) Publish() (*model.Result, []float64, [][]float64) {
	pi := append([]float64(nil), s.pi...)
	pdw := make([][]float64, len(s.pdw))
	for w := range s.pdw {
		pdw[w] = append([]float64(nil), s.pdw[w]...)
	}
	return s.Result(), pi, pdw
}

// WorkerQuality returns the merged estimate of P(i_w = 1) — for a roaming
// worker, the answer-count-weighted average over the shards they answered
// in. Valid after Fit.
func (s *Sharded) WorkerQuality(w model.WorkerID) float64 { return s.pi[w] }

// DistanceSensitivity returns a copy of the merged sensitivity multinomial
// of worker w over the distance-function set.
func (s *Sharded) DistanceSensitivity(w model.WorkerID) []float64 {
	return append([]float64(nil), s.pdw[w]...)
}

// NumShards returns K, the number of children.
func (s *Sharded) NumShards() int { return len(s.kids) }

// TaskShard returns the child owning task t.
func (s *Sharded) TaskShard(t model.TaskID) int { return int(s.shardOf[t]) }

// Nested returns child si when it is itself a partition node (the node was
// built by NewNested), nil when it is a model.
func (s *Sharded) Nested(si int) *Sharded {
	c, _ := s.kids[si].(*Sharded)
	return c
}

// Partition returns the global task indices of every shard, ascending within
// each shard. The returned slices are owned by the fitter; callers must not
// mutate them.
func (s *Sharded) Partition() [][]int { return s.parts }

// Workers returns the worker set the fitter was built over.
func (s *Sharded) Workers() []model.Worker { return s.workers }

// Tasks returns the task set the fitter was built over.
func (s *Sharded) Tasks() []model.Task { return s.tasks }

// Models exposes the per-shard inference models for advanced use (parameter
// inspection); nil over nested children. Mutating them bypasses the fitter's
// merge bookkeeping.
func (s *Sharded) Models() []*core.Model { return s.models }

// TotalAnswers returns the number of answers observed across all children.
func (s *Sharded) TotalAnswers() int {
	n := 0
	for _, k := range s.kids {
		n += k.TotalAnswers()
	}
	return n
}

// AnswerCount returns the number of answers worker w has in shard si — the
// weight their estimate from that shard carries in the merge.
func (s *Sharded) AnswerCount(si int, w model.WorkerID) int { return s.counts[si][w] }

// Normalizer returns the city-wide distance normalizer the fitter was built
// with. Rebuild and snapshot capture need it so a migrated or restored
// fitter keeps per-shard distances on the same scale.
func (s *Sharded) Normalizer() geo.Normalizer { return s.norm }

// BaseLayout returns a deep copy of the construction-time partition: the
// global task indices of every shard before any AddTask calls. Restoring a
// snapshot rebuilds the fitter from this layout over the construction-time
// task prefix, then replays the AddTask sequence.
func (s *Sharded) BaseLayout() [][]int { return cloneLayout(s.baseParts) }

// ShardStat is one shard's slice of the imbalance signals the drift
// detector and the /metrics endpoint share: size, answer mass, boundary
// (roaming) answer mass, and the duration of the last EM run.
type ShardStat struct {
	// Tasks is the number of tasks currently owned by the shard.
	Tasks int
	// Answers is the number of answers routed to the shard so far.
	Answers int
	// BoundaryAnswers is the subset of Answers submitted by roaming
	// workers — workers who also have answers in at least one other shard.
	// High boundary mass means the answer graph has drifted across this
	// shard's partition boundary.
	BoundaryAnswers int
	// LastFitDuration is the wall-clock time of the shard's most recent EM
	// run (zero before the first fit).
	LastFitDuration time.Duration
	// Region is the bounding box of the shard's task locations.
	Region geo.Rect
}

// Stats returns a fresh per-shard snapshot of the imbalance signals. It
// reads only the fitter's bookkeeping (never the models), so it is cheap
// enough to call at every metrics scrape and detector tick.
func (s *Sharded) Stats() []ShardStat {
	out := make([]ShardStat, len(s.kids))
	// A worker's answers count as boundary mass in every shard they touch
	// when they touch more than one.
	nshard := make([]int, len(s.workers))
	for si := range s.counts {
		for w, c := range s.counts[si] {
			if c > 0 {
				nshard[w]++
			}
		}
	}
	for si := range s.kids {
		st := ShardStat{
			Tasks:           len(s.parts[si]),
			LastFitDuration: s.lastFitDur[si],
			Region:          s.regions[si],
		}
		for w, c := range s.counts[si] {
			st.Answers += c
			if nshard[w] > 1 {
				st.BoundaryAnswers += c
			}
		}
		out[si] = st
	}
	return out
}
