// Package assign implements the paper's online task assignment (Section
// IV): estimating how much a task's inference accuracy would improve if
// assigned to a set of the currently available workers (Equations 15–20,
// Lemmas 1–2), and the greedy AccOpt algorithm (Algorithm 1) that maximizes
// the overall expected accuracy improvement. The Random and Spatial-First
// baselines of the paper's Section V-D live here too, along with an
// exhaustive optimal assigner used to validate the greedy on small
// instances (the exact problem is NP-hard, Lemma 3).
//
// # The row kernel
//
// AccOpt's cost is the O(|W|·|T|) init of its improvement matrix. That
// loop exists once, in rowKernel.fill: a worker's agreement row and initial
// improvement row over every task, with whatever a round does not change
// read once — configuration and parameters per round, the task answer
// counts and U_t = Σ_k z_k(1 − z_k) per round into dense slices, π_w, P(d_w)
// and the worker's cold flag per row — the function set evaluated once per
// pair for both mixtures, answered and excluded pairs marked from the
// worker's own lists (View.AnsweredTasks, Exclusions) instead of one probe
// per task, and the improvement in O(1) by Lemma 2 in closed form
// (lemma2Delta). Planner (every round, over a model, a partition node's view
// or a snapshot) and Candidates (every list build) call it; a task's bundle
// state is two numbers, its size and Σ p(1 − p). Estimator.Agreement stays
// the reference for the agreement, which the kernel reproduces bit for bit;
// the Lemma 2 recursion as the paper writes it lives in the tests, and
// TestRowKernelMatchesEstimator holds the closed form to it within the
// tests' one tolerance, deltaTol.
//
// # Snapshot planning
//
// Every assigner reads model state through the View interface: the live
// *core.Model or partition node (caller must hold its lock for the whole
// round), or the immutable *Snapshot captured by SnapshotModel (no locking,
// safe for concurrent planners). Snapshot numbers are bit-identical
// to the model they were captured from — same cloned parameters, same
// normalizer arithmetic, same coverage — so a plan computed against a
// quiesced snapshot equals the plan the live model would produce.
//
// A plan computed against a stale snapshot can propose pairs that the live
// state has since answered or handed out. ExcludingAssigner is the
// contract that makes optimistic commits work: the committer passes the
// pairs it must avoid (its own exclusion set plus pairs that conflicted in
// earlier attempts) as per-worker Exclusions lists, and the assigner spends
// each worker's h picks only on pairs outside them. Because exclusions are
// monotone — an answered or pending pair never becomes assignable again
// within a round — retrying a conflicted pick with grown lists terminates.
//
// # Candidate lists
//
// Candidates maintains per-worker top-K candidate prefixes over a Snapshot
// so the single-worker hot path replans in O(K·log K) instead of O(|T|).
// Invalidation is by construction rather than by notification: every list
// is stamped with the snapshot generation it was built from and dropped
// wholesale when a new generation publishes (parameters changed, so every
// delta is stale); within a generation, exclusions only shrink the valid
// prefix, and a list is rebuilt longer — long enough that the exclusions
// cannot hide the true top h — the moment it cannot prove it still covers
// the worker's true top h (see PlanWorker).
package assign

import (
	"math/rand"
	"sort"

	"poilabel/internal/geo"
	"poilabel/internal/model"
)

// Assignment maps each available worker to the h tasks chosen for them,
// i.e. A(W) = {A(w) | w ∈ W}.
type Assignment map[model.WorkerID][]model.TaskID

// TotalTasks returns the number of (worker, task) pairs in the assignment,
// the number of budget units it will consume.
func (a Assignment) TotalTasks() int {
	n := 0
	for _, ts := range a {
		n += len(ts)
	}
	return n
}

// Assigner chooses h tasks for each available worker, given a View of the
// inference state (answer history, estimated qualities). Implementations
// must not assign a worker a task they already answered, and must not
// assign the same task twice to one worker in a round. The View must stay
// frozen for the duration of the call: pass the live model only under its
// lock, or a Snapshot from SnapshotModel.
type Assigner interface {
	// Name returns the short display name used in experiment tables.
	Name() string
	// Assign returns the chosen tasks. Workers may receive fewer than h
	// tasks only when fewer than h undone tasks remain for them; h <= 0
	// asks for nothing and returns an empty Assignment.
	Assign(v View, workers []model.WorkerID, h int) Assignment
}

// Exclusions lists, per worker, the tasks an assignment round must leave out
// on top of the pairs the worker has answered — typically pairs handed out
// earlier and still pending an answer. It is shaped like View.AnsweredTasks:
// an assigner reads each requesting worker's list once per round, never one
// pair at a time. Planning may fan out over goroutines, so ExcludedTasks
// must be safe for concurrent calls.
type Exclusions interface {
	// ExcludedTasks appends the tasks worker w must not be assigned to buf,
	// in no particular order, and returns the extended slice. Tasks outside
	// the view's task set are ignored.
	ExcludedTasks(w model.WorkerID, buf []model.TaskID) []model.TaskID
}

// TaskLists is the plain Exclusions: each worker's excluded tasks. A worker
// without an entry excludes nothing.
type TaskLists map[model.WorkerID][]model.TaskID

// ExcludedTasks implements Exclusions.
func (l TaskLists) ExcludedTasks(w model.WorkerID, buf []model.TaskID) []model.TaskID {
	return append(buf, l[w]...)
}

// excludedSet returns worker w's exclusions as a set, built once per worker
// for the baseline assigners' per-task checks.
func excludedSet(ex Exclusions, w model.WorkerID) map[model.TaskID]bool {
	set := make(map[model.TaskID]bool)
	if ex != nil {
		for _, t := range ex.ExcludedTasks(w, nil) {
			set[t] = true
		}
	}
	return set
}

// ExcludingAssigner is implemented by assigners that can exclude arbitrary
// pairs during planning, so excluded pairs never crowd out a worker's h
// picks. All assigners in this package implement it; the serving layer uses
// it for pending-pair dedup, and the optimistic-commit path additionally
// relies on it to retry conflicted picks: each retry re-plans with the
// conflicted pairs added to the exclusion lists, so the worker's h picks
// land on pairs that were still free at the last look.
type ExcludingAssigner interface {
	Assigner
	// AssignExcluding is Assign with the tasks ex lists for each worker
	// treated exactly like already-answered pairs. A nil ex excludes
	// nothing.
	AssignExcluding(v View, workers []model.WorkerID, h int, ex Exclusions) Assignment
}

// Random assigns h undone tasks uniformly at random to each worker — the
// paper's RANDOM baseline.
type Random struct {
	Rand *rand.Rand
}

// Name implements Assigner.
func (Random) Name() string { return "Random" }

// Assign implements Assigner.
func (r Random) Assign(v View, workers []model.WorkerID, h int) Assignment {
	return r.AssignExcluding(v, workers, h, nil)
}

// AssignExcluding implements ExcludingAssigner.
func (r Random) AssignExcluding(v View, workers []model.WorkerID, h int, ex Exclusions) Assignment {
	if h <= 0 {
		return Assignment{}
	}
	out := make(Assignment, len(workers))
	tasks := v.Tasks()
	for _, w := range workers {
		excluded := excludedSet(ex, w)
		var avail []model.TaskID
		for t := range tasks {
			tid := model.TaskID(t)
			if !v.HasAnswer(w, tid) && !excluded[tid] {
				avail = append(avail, tid)
			}
		}
		r.Rand.Shuffle(len(avail), func(i, j int) { avail[i], avail[j] = avail[j], avail[i] })
		if len(avail) > h {
			avail = avail[:h]
		}
		out[w] = avail
	}
	return out
}

// SpatialFirst assigns each worker the h closest undone tasks — the paper's
// SF baseline, which optimizes worker–task distance and nothing else. It
// uses a uniform grid index over task locations and takes, for workers with
// several locations, the minimum distance over all of them.
type SpatialFirst struct {
	grid *geo.Grid
}

// NewSpatialFirst builds the task-location index for the given tasks.
func NewSpatialFirst(tasks []model.Task) *SpatialFirst {
	pts := make([]geo.Point, len(tasks))
	for i := range tasks {
		pts[i] = tasks[i].Location
	}
	return &SpatialFirst{grid: geo.NewGrid(pts)}
}

// Name implements Assigner.
func (*SpatialFirst) Name() string { return "SF" }

// Assign implements Assigner.
func (s *SpatialFirst) Assign(v View, workers []model.WorkerID, h int) Assignment {
	return s.AssignExcluding(v, workers, h, nil)
}

// AssignExcluding implements ExcludingAssigner.
func (s *SpatialFirst) AssignExcluding(v View, workers []model.WorkerID, h int, ex Exclusions) Assignment {
	if h <= 0 {
		return Assignment{}
	}
	out := make(Assignment, len(workers))
	allWorkers := v.Workers()
	tasks := v.Tasks()
	for _, w := range workers {
		excluded := excludedSet(ex, w)
		accept := func(i int) bool {
			tid := model.TaskID(i)
			return !v.HasAnswer(w, tid) && !excluded[tid]
		}
		// Query the nearest candidates from each of the worker's
		// locations, then merge by true (minimum-over-locations) distance.
		seen := make(map[int]bool)
		type cand struct {
			idx  int
			dist float64
		}
		var cands []cand
		for _, loc := range allWorkers[w].Locations {
			for _, idx := range s.grid.Nearest(loc, h, accept) {
				if seen[idx] {
					continue
				}
				seen[idx] = true
				d := geo.MinDist(allWorkers[w].Locations, tasks[idx].Location)
				cands = append(cands, cand{idx: idx, dist: d})
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].dist != cands[j].dist {
				return cands[i].dist < cands[j].dist
			}
			return cands[i].idx < cands[j].idx
		})
		if len(cands) > h {
			cands = cands[:h]
		}
		ts := make([]model.TaskID, len(cands))
		for i, c := range cands {
			ts[i] = model.TaskID(c.idx)
		}
		out[w] = ts
	}
	return out
}
