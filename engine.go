package poilabel

import (
	"context"
	"fmt"
	"math/rand"

	"poilabel/internal/assign"
	"poilabel/internal/core"
	"poilabel/internal/federation"
	"poilabel/internal/geo"
	"poilabel/internal/shard"
)

// EngineKind selects the inference/assignment backend behind a Service.
type EngineKind int

// Available engines. See PERFORMANCE.md for guidance on choosing one.
const (
	// EngineSingle runs one inference model over the whole task set:
	// per-answer incremental EM with periodic full fits. The right choice
	// for interactive workloads up to one city's scale.
	EngineSingle EngineKind = iota
	// EngineSharded partitions one city's tasks into K geographic shards
	// fitted concurrently (internal/shard). The right choice for batch
	// workloads where a single model's full EM is the wall-clock
	// bottleneck.
	EngineSharded
	// EngineFederated routes tasks and workers across per-city sharded
	// instances by geography (internal/federation), merging cross-city
	// worker estimates the same answer-count-weighted way shards do. The
	// right choice when the task universe spans several cities.
	EngineFederated
)

// String implements fmt.Stringer.
func (k EngineKind) String() string {
	switch k {
	case EngineSingle:
		return "single"
	case EngineSharded:
		return "sharded"
	case EngineFederated:
		return "federated"
	}
	return fmt.Sprintf("EngineKind(%d)", int(k))
}

// Engine is the backend behind a Service: an inference model over dense
// task/worker indices, and the assign.View a round plans over. The Service
// owns ID interning, the assigner, budget accounting, pending-pair dedup, and
// locking; engines only infer. WithEngine selects one of two
// implementations: a single model, or a partition node in the sharded or the
// federated shape.
//
// An engine has no read methods: what a fit inferred leaves it only through
// Publish, as the generation every Service read serves. Engines are not safe
// for concurrent use on their own — the Service serializes access.
type Engine interface {
	// Name returns the engine's short display name.
	Name() string
	// Observe appends an answer to the log without updating estimates.
	Observe(a Answer) error
	// Learn appends an answer and applies the engine's cheap per-answer
	// update where it has one (incremental EM for the single engine);
	// batch engines just observe.
	Learn(a Answer) error
	// fork captures the engine as one full fit will see it: the Service
	// never fits an engine in place, it fits a fork with no lock held.
	fork() engineFork
	// view is the live engine as every assigner reads it, over dense global
	// indices: the model itself, or the partition node's view of its
	// children. It is valid under the Service's lock only.
	view() assign.View
	// AddTask registers a task with the next dense index.
	AddTask(t Task) error
	// AddWorker registers a worker with the next dense index.
	AddWorker(w Worker) error
	// TotalAnswers returns the number of answers observed so far.
	TotalAnswers() int
	// Publish returns a self-contained copy of the engine's read state —
	// the dense result plus per-worker quality and sensitivity estimates.
	// Nothing in it aliases the engine, so the Service can hand it to
	// lock-free readers while the engine keeps mutating.
	Publish() *PublishedParams
	// PlanSnapshot returns an immutable capture of view (parameters,
	// coverage, distances), which lets the Service run assignment planning
	// off the write lock and validate picks in a short optimistic commit;
	// see assign.SnapshotModel.
	PlanSnapshot() *assign.Snapshot
}

// engineFork is an engine as one fit sees it (core.Fork, shard.Fork): the
// append-only evidence shared with the live engine, the parameters its own —
// a parameter copy to take, whatever the length of the answer log.
type engineFork interface {
	// Fit runs the full fit over what the fork sees, reporting convergence
	// and honoring ctx between EM iterations. The live engine is not touched.
	Fit(ctx context.Context) (converged bool, err error)
	// adopt makes the fitted parameters the live engine's own and brings them
	// up to what it took in since the fork (Model.Adopt, Sharded.Adopt). The
	// fork must not be used again.
	adopt()
}

// PublishedParams is an immutable copy of an engine's read state, produced
// by Engine.Publish and published to lock-free readers through an atomic
// pointer swap. Once published it must never be mutated.
type PublishedParams struct {
	// Result is the dense inference over all tasks known at publish time.
	Result *Result
	// PI holds each worker's estimated quality P(i_w = 1), dense order.
	PI []float64
	// PDW holds each worker's distance-sensitivity multinomial, dense order.
	PDW [][]float64
}

// newAssigner builds the configured assignment strategy, the same on every
// engine shape. Every assigner in the assign package supports planner-level
// pair exclusion, which the pending-dedup contract relies on.
func newAssigner(kind AssignerKind, tasks []Task, seed int64) (assign.ExcludingAssigner, error) {
	switch kind {
	case AssignerAccOpt:
		return assign.NewPlanner(), nil
	case AssignerSpatialFirst:
		return assign.NewSpatialFirst(tasks), nil
	case AssignerRandom:
		return assign.Random{Rand: rand.New(rand.NewSource(seed))}, nil
	}
	return nil, fmt.Errorf("poilabel: unknown assigner kind %d", kind)
}

// singleEngine backs a Service with one core.Model — the paper's framework
// path: incremental EM per answer, full EM on demand.
type singleEngine struct{ m *core.Model }

func newSingleEngine(tasks []Task, workers []Worker, norm geo.Normalizer, cfg core.Config) (*singleEngine, error) {
	m, err := core.NewModel(tasks, workers, norm, cfg)
	if err != nil {
		return nil, err
	}
	return &singleEngine{m: m}, nil
}

func (e *singleEngine) Name() string           { return "single" }
func (e *singleEngine) Observe(a Answer) error { return e.m.Observe(a) }
func (e *singleEngine) Learn(a Answer) error   { return e.m.Update(a) }

func (e *singleEngine) fork() engineFork { return singleFork{e.m, e.m.Fork()} }

type singleFork struct {
	m *core.Model
	f *core.Fork
}

func (f singleFork) Fit(ctx context.Context) (bool, error) {
	st, err := f.f.FitContext(ctx)
	return st.Converged, err
}

func (f singleFork) adopt() { f.m.Adopt(f.f, true) }

func (e *singleEngine) view() assign.View        { return e.m }
func (e *singleEngine) AddTask(t Task) error     { return e.m.AddTask(t) }
func (e *singleEngine) AddWorker(w Worker) error { return e.m.AddWorker(w) }
func (e *singleEngine) TotalAnswers() int        { return e.m.Answers().Len() }

func (e *singleEngine) Publish() *PublishedParams {
	res, pi, pdw := e.m.Publish()
	return &PublishedParams{Result: res, PI: pi, PDW: pdw}
}

func (e *singleEngine) PlanSnapshot() *assign.Snapshot { return assign.SnapshotModel(e.m) }

// partitionEngine backs a Service with a partition node (internal/shard):
// one city's K shards for EngineSharded, or C cities of K shards each for
// EngineFederated. Both are the same shard.Sharded mechanism — only the
// tree's shape and the checkpoint wire type differ — so one adapter serves
// both.
type partitionEngine struct {
	sh *shard.Sharded
	// fed is the federation whose root sh is, nil for the sharded engine; it
	// owns the federated checkpoint wire type.
	fed *federation.Federation
}

// newShardedEngine wraps one city's fitter. A freshly built one comes from
// shard.New / NewWithLayout; the migration swap path passes the fitter
// shard.Rebuild produced off-lock.
func newShardedEngine(sh *shard.Sharded) *partitionEngine {
	return &partitionEngine{sh: sh}
}

func newFederatedEngine(fed *federation.Federation) *partitionEngine {
	return &partitionEngine{sh: fed.Sharded, fed: fed}
}

func (e *partitionEngine) Name() string {
	if e.fed != nil {
		return "federated"
	}
	return "sharded"
}

func (e *partitionEngine) Observe(a Answer) error { return e.sh.Observe(a) }
func (e *partitionEngine) Learn(a Answer) error   { return e.sh.Observe(a) }

func (e *partitionEngine) fork() engineFork { return partitionFork{e.sh, e.sh.Fork()} }

type partitionFork struct {
	sh *shard.Sharded
	f  *shard.Fork
}

func (f partitionFork) Fit(ctx context.Context) (bool, error) {
	st, err := f.f.FitContext(ctx)
	return st.Converged, err
}

func (f partitionFork) adopt() { f.sh.Adopt(f.f) }

func (e *partitionEngine) view() assign.View { return e.sh }

func (e *partitionEngine) AddTask(t Task) error     { return e.sh.AddTask(t) }
func (e *partitionEngine) AddWorker(w Worker) error { return e.sh.AddWorker(w) }
func (e *partitionEngine) TotalAnswers() int        { return e.sh.TotalAnswers() }

func (e *partitionEngine) Publish() *PublishedParams {
	res, pi, pdw := e.sh.Publish()
	return &PublishedParams{Result: res, PI: pi, PDW: pdw}
}

func (e *partitionEngine) PlanSnapshot() *assign.Snapshot { return assign.SnapshotModel(e.sh) }
