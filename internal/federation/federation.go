// Package federation runs the POI-labelling framework over several cities at
// once: the task universe is carved into geographic cities, each city is
// fitted by its own geo-sharded fitter, and one federation object routes
// answers to the right city, merges what crosses city lines, and plans
// assignments over every city at once.
//
// It is internal/shard's partition node one level up, literally: New calls
// shard.NewNested, which builds a shard.Sharded whose children are per-city
// shard.Sharded instead of models. Routing, the count-weighted worker merge
// (a single-city worker's estimate copied verbatim, so a federation of one
// city is bit-identical to that city's sharded fit), the result gather and
// the node view an assignment round plans over are that package's one
// implementation running at both levels. What lives here is the vocabulary —
// cities instead of shards — and the adapters for the two types whose shape
// differs one level up: FitStats and the snapshot.FederationState wire
// format.
package federation

import (
	"context"
	"fmt"
	"time"

	"poilabel/internal/assign"
	"poilabel/internal/geo"
	"poilabel/internal/model"
	"poilabel/internal/shard"
	"poilabel/internal/snapshot"
)

// DefaultCities is the city count used when Config.Cities is zero.
const DefaultCities = 2

// Config configures a federation.
type Config struct {
	// Cities is the number of geographic city partitions. Zero means
	// DefaultCities; values above the task count are clamped to it.
	Cities int
	// Shard configures every city's geo-sharded fitter (shard count,
	// refinement sweeps, model config).
	Shard shard.Config
}

// Federation fits the inference model over C geographic cities, each backed
// by a per-city sharded fitter over the full worker pool. The embedded node
// provides Observe, AddTask, AddWorker, Result, Publish, WorkerQuality,
// DistanceSensitivity, Tasks, Workers and TotalAnswers; its shards are the
// cities.
//
// Federation is not safe for concurrent use by multiple goroutines; Fit fans
// out over the cities internally.
type Federation struct {
	*shard.Sharded
	co *shard.Coordinator
}

// New creates a federation. Task and worker IDs must be dense indices
// (0..len-1); the normalizer should span the whole federation so distances in
// every city stay on one scale.
func New(tasks []model.Task, workers []model.Worker, norm geo.Normalizer, cfg Config) (*Federation, error) {
	if cfg.Cities < 0 {
		return nil, fmt.Errorf("federation: negative city count %d", cfg.Cities)
	}
	if cfg.Cities == 0 {
		cfg.Cities = DefaultCities
	}
	root, err := shard.NewNested(tasks, workers, norm, cfg.Cities, cfg.Shard)
	if err != nil {
		return nil, err
	}
	return &Federation{Sharded: root, co: shard.NewCoordinator(root)}, nil
}

// FitStats reports the outcome of a federated fit.
type FitStats struct {
	// Cities holds every city's sharded-fit stats.
	Cities []shard.FitStats
	// Converged reports whether every city's fit converged.
	Converged bool
	// Roaming is the number of workers with answers in more than one city.
	Roaming int
	// Elapsed is the wall-clock duration of the whole federated fit.
	Elapsed time.Duration
}

// Fit runs every city's sharded fit concurrently and merges cross-city worker
// estimates by answer-count-weighted averaging.
func (f *Federation) Fit() FitStats {
	//lint:ignore ctxflow context-free compat API; callers with deadlines use FitContext
	st, _ := f.FitContext(context.Background())
	return st
}

// FitContext is Fit with cooperative cancellation, propagated into every
// city's per-shard EM loops. On cancellation the merged estimates are still
// refreshed from whatever iteration each city reached.
func (f *Federation) FitContext(ctx context.Context) (FitStats, error) {
	top, err := f.Sharded.FitContext(ctx)
	st := FitStats{
		Cities:    make([]shard.FitStats, f.NumCities()),
		Converged: top.Converged,
		Roaming:   top.Roaming,
		Elapsed:   top.Elapsed,
	}
	for ci := range st.Cities {
		st.Cities[ci] = f.City(ci).LastFit()
	}
	return st, err
}

// Assign chooses up to h tasks per requesting worker, spending at most budget
// (worker, task) pairs in total (negative budget means unlimited): one AccOpt
// round over every task of every city, through the federation's node view
// (shard.Coordinator), trimmed to the budget. The tasks ex lists for a worker
// are excluded during planning; a nil ex excludes nothing. Returned task IDs
// are federation-global.
func (f *Federation) Assign(workers []model.WorkerID, h, budget int, ex assign.Exclusions) assign.Assignment {
	return f.co.AssignExcluding(workers, h, budget, ex)
}

// NumCities returns the number of city partitions in use.
func (f *Federation) NumCities() int { return f.NumShards() }

// TaskCity returns the city owning task t.
func (f *Federation) TaskCity(t model.TaskID) int { return f.TaskShard(t) }

// City exposes city ci's sharded fitter for inspection; mutating it bypasses
// the federation's routing and merge bookkeeping.
func (f *Federation) City(ci int) *shard.Sharded { return f.Nested(ci) }

// CheckpointState captures the federation's learned state in the durable
// snapshot wire format: every city's sharded state (answer logs carry
// city-shard-local task IDs) plus the merged cross-city per-worker
// estimates. The city partition itself is not serialized — the restoring
// side reconstructs it deterministically from the same task sequence before
// calling RestoreState.
func (f *Federation) CheckpointState() *snapshot.FederationState {
	nw := len(f.Workers())
	st := &snapshot.FederationState{
		Cities: make([]snapshot.ShardedState, f.NumCities()),
		PI:     make([]float64, nw),
		PDW:    make([][]float64, nw),
	}
	for ci := range st.Cities {
		st.Cities[ci] = *f.City(ci).CheckpointState()
	}
	for w := range st.PI {
		st.PI[w] = f.WorkerQuality(model.WorkerID(w))
		st.PDW[w] = f.DistanceSensitivity(model.WorkerID(w))
	}
	return st
}

// RestoreState replaces the federation's learned state with one captured by
// CheckpointState. The federation must have been constructed over the same
// task and worker sets; per-city answer counts are recomputed from the
// restored logs. On error the federation may hold a partially restored
// state and should be discarded.
func (f *Federation) RestoreState(st *snapshot.FederationState) error {
	if st == nil {
		return fmt.Errorf("federation: nil state")
	}
	if len(st.Cities) != f.NumCities() {
		return fmt.Errorf("federation: snapshot has %d cities, federation has %d", len(st.Cities), f.NumCities())
	}
	for ci := range st.Cities {
		if err := f.City(ci).RestoreState(&st.Cities[ci]); err != nil {
			return fmt.Errorf("city %d: %w", ci, err)
		}
	}
	return f.RestoreMerged(st.PI, st.PDW)
}
