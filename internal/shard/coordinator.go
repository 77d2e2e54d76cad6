package shard

import (
	"math"
	"sort"
	"sync"

	"poilabel/internal/assign"
	"poilabel/internal/model"
)

// Coordinator plans task assignment over a sharded world. The paper's AccOpt
// greedy plans within each shard — every leaf holds a reusable
// assign.Planner whose O(|W_s|·|T_s|) scratch persists across rounds — and
// the coordinator stays thin: it routes each requesting worker to their home
// shard (the shard whose task region is nearest to any of the worker's
// locations), plans the populated shards concurrently, and balances the
// round's budget across shards proportionally to what each shard's greedy
// could actually use. Over a nested fitter the same round runs at both
// levels: the home city plans through its own shards with no cap, and the
// budget is balanced across cities here.
//
// Coordinator is not safe for concurrent use; a single round fans out over
// the shards internally.
type Coordinator struct {
	s *Sharded
}

// NewCoordinator builds a coordinator over a sharded fitter. Shard task
// regions and planners are owned by the fitter, so routing follows tasks
// added after construction.
func NewCoordinator(s *Sharded) *Coordinator { return &Coordinator{s: s} }

// regionDist returns the minimum distance from any of worker w's locations
// to child si's task region (zero when a location falls inside it). Home
// routing and the fallback search order both derive from it, so they can
// never disagree.
func (s *Sharded) regionDist(w model.WorkerID, si int) float64 {
	r := s.regions[si]
	d := math.Inf(1)
	for _, loc := range s.workers[w].Locations {
		if dd := loc.Dist(r.Clamp(loc)); dd < d {
			d = dd
		}
	}
	return d
}

// HomeShard returns the shard whose task region is nearest to any of worker
// w's locations (distance zero when a location falls inside the region; ties
// go to the lowest shard index).
func (c *Coordinator) HomeShard(w model.WorkerID) int { return c.s.home(w) }

func (s *Sharded) home(w model.WorkerID) int {
	best, bestD := 0, math.Inf(1)
	for si := range s.kids {
		if d := s.regionDist(w, si); d < bestD {
			best, bestD = si, d
		}
	}
	return best
}

// Assign chooses up to h tasks per requesting worker, at most budget
// (worker, task) pairs in total (negative budget means unlimited). Each
// worker is planned inside their home shard; a worker whose home shard has
// no assignable tasks left falls back to the next-nearest shards rather
// than receiving an empty plan. The budget is split across shards
// proportionally to each shard's realizable demand (largest-remainder
// rounding), and per-shard cuts fall round-robin across that shard's
// workers so no single worker absorbs them. Returned task IDs are global.
// Duplicate workers are dropped by the per-shard planners.
func (c *Coordinator) Assign(workers []model.WorkerID, h, budget int) assign.Assignment {
	return c.AssignExcluding(workers, h, budget, nil)
}

// AssignExcluding is Assign with per-worker exclusion lists: the tasks ex
// lists for a worker (global task IDs) are left out of the per-shard plans
// before the budget is balanced, so excluded pairs — e.g. assignments
// already pending an answer — consume no budget and the shares reflect only
// realizable demand. A nil ex excludes nothing.
func (c *Coordinator) AssignExcluding(workers []model.WorkerID, h, budget int, ex assign.Exclusions) assign.Assignment {
	return c.s.assign(workers, h, budget, ex)
}

// assign is one round at this node: home child, concurrent uncapped plans,
// next-nearest fallback for dry workers, then the budget balance.
func (s *Sharded) assign(workers []model.WorkerID, h, budget int, ex assign.Exclusions) assign.Assignment {
	out := make(assign.Assignment)
	if h <= 0 || len(workers) == 0 || budget == 0 {
		return out
	}

	byShard := make([][]model.WorkerID, len(s.kids))
	for _, w := range workers {
		si := s.home(w)
		byShard[si] = append(byShard[si], w)
	}

	// Plan every populated shard concurrently. Each goroutine touches only
	// its own child's planners and models (including the models' lazy
	// distance caches), so the fan-out is race-free and the per-shard output
	// does not depend on the interleaving.
	local := make([]assign.Assignment, len(s.kids))
	var wg sync.WaitGroup
	for si := range byShard {
		if len(byShard[si]) == 0 {
			continue
		}
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			local[si] = s.kids[si].plan(byShard[si], h, s.localExclusions(si, byShard[si], ex))
		}(si)
	}
	wg.Wait()

	// Home-shard fallback: a worker whose home shard produced nothing for
	// them — its supply exhausted by answered, pending, or excluded pairs —
	// is planned in the next-nearest shards instead of walking away with an
	// empty round while neighboring shards still have work. The pass runs
	// sequentially after the fan-out, so it touches other shards' planners
	// without racing them, and its picks join the demand pool before the
	// budget is balanced. Cost: one extra planner pass per dry worker per
	// child probed; in a fully drained world every polling worker pays the
	// full sweep, which is the end-state of a load run, not the steady state
	// a budget targets.
	fellBack := make(map[model.WorkerID]bool)
	for si := range byShard {
		for _, w := range byShard[si] {
			if len(local[si][w]) > 0 || fellBack[w] {
				continue
			}
			fellBack[w] = true
			for _, alt := range s.shardsByDistance(w) {
				if alt == si {
					continue
				}
				single := []model.WorkerID{w}
				plan := s.kids[alt].plan(single, h, s.localExclusions(alt, single, ex))
				if len(plan[w]) == 0 {
					continue
				}
				if local[alt] == nil {
					local[alt] = make(assign.Assignment)
				}
				local[alt][w] = plan[w]
				break
			}
		}
	}

	// Balance the budget over what each shard's greedy actually produced,
	// then trim and remap local task IDs back to global.
	want := make([]int, len(local))
	for si := range local {
		want[si] = local[si].TotalTasks()
	}
	shares := assign.Shares(budget, want)
	for si := range local {
		for w, ts := range assign.Trim(local[si], shares[si]) {
			for _, lt := range ts {
				out[w] = append(out[w], model.TaskID(s.parts[si][lt]))
			}
		}
	}
	return out
}

// plan is an uncapped round seen from an enclosing node.
func (s *Sharded) plan(workers []model.WorkerID, h int, ex assign.Exclusions) assign.Assignment {
	return s.assign(workers, h, -1, ex)
}

// localExclusions remaps workers' exclusion lists (global task IDs) into
// child si's local index space through shardOf/localOf, keeping only the
// child's own tasks; a nil ex stays nil.
func (s *Sharded) localExclusions(si int, workers []model.WorkerID, ex assign.Exclusions) assign.Exclusions {
	if ex == nil {
		return nil
	}
	local := make(assign.TaskLists, len(workers))
	var global []model.TaskID
	for _, w := range workers {
		global = ex.ExcludedTasks(w, global[:0])
		for _, t := range global {
			if int(t) < len(s.shardOf) && int(s.shardOf[t]) == si {
				local[w] = append(local[w], model.TaskID(s.localOf[t]))
			}
		}
	}
	return local
}

// shardsByDistance returns every shard index ordered by the minimum
// distance from any of worker w's locations to the shard's task region
// (ties to the lowest index) — the fallback search order when the home
// shard has nothing to assign.
func (s *Sharded) shardsByDistance(w model.WorkerID) []int {
	type entry struct {
		si int
		d  float64
	}
	entries := make([]entry, len(s.kids))
	for si := range s.kids {
		entries[si] = entry{si: si, d: s.regionDist(w, si)}
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].d != entries[b].d {
			return entries[a].d < entries[b].d
		}
		return entries[a].si < entries[b].si
	})
	order := make([]int, len(entries))
	for i, e := range entries {
		order[i] = e.si
	}
	return order
}
