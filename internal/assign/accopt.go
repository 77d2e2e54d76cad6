package assign

import (
	"math"
	"runtime"
	"sync"

	"poilabel/internal/model"
)

// AccOpt is the paper's greedy assignment algorithm (Algorithm 1). Each
// round it repeatedly picks the (worker, task) pair with the largest
// expected accuracy improvement (Equation 20), extends the task's accuracy
// state with the chosen worker (Lemma 2), refreshes the improvement entries
// of that task for the remaining workers, and stops when every available
// worker holds h tasks.
//
// The improvement matrix stores the marginal gain Δ(Ŵ(t) ∪ {w}) − Δ(Ŵ(t)) of
// adding w to the workers already picked for t this round: each pick is
// credited with what it adds to Definition 7's objective, and diminishing
// increments are what spreads assignments across tasks. Storing the total of
// the bundle instead — the other way to read Algorithm 1's pseudocode —
// credits every later pick on a task with its predecessors' improvement as
// well, piles workers onto the tasks picked first, and loses the paper's
// AccOpt > SF ordering on the seeded worlds; EXPERIMENTS.md has the numbers.
//
// AccOpt is stateless: every call builds fresh scratch state. Loops that
// assign round after round against the same model should hold a Planner,
// which reuses its O(|W|·|T|) buffers across rounds.
type AccOpt struct{}

// Name implements Assigner.
func (AccOpt) Name() string { return "AccOpt" }

// Assign implements Assigner.
func (AccOpt) Assign(v View, workers []model.WorkerID, h int) Assignment {
	return NewPlanner().Assign(v, workers, h)
}

// AssignExcluding implements ExcludingAssigner.
func (AccOpt) AssignExcluding(v View, workers []model.WorkerID, h int, ex Exclusions) Assignment {
	return NewPlanner().AssignExcluding(v, workers, h, ex)
}

var unavailable = math.Inf(-1)

// Planner runs the greedy assignment with round-scoped scratch buffers that
// persist across calls: the O(|W|·|T|) probability and improvement
// matrices, the per-task answer counts and label spreads, the bundles a
// round picks, the per-worker cached bests, and the pick heap. A Planner
// amortizes those allocations across the many assignment rounds of an
// experiment sweep — a steady-state round allocates only the Assignment it
// returns, plus its goroutines when the init fans out — and is not safe for
// concurrent use. It implements Assigner.
type Planner struct {
	matrix []float64 // backing store for the p and delta rows
	p      [][]float64
	delta  [][]float64
	// taskN and taskU are |W(t)| and U_t per task, read from the view once
	// per round (taskState).
	taskN []int
	taskU []float64
	// picked[t] is what this round has added to task t so far — the Lemma 2
	// state lemma2Delta needs — reset at the top of every round.
	picked   []bundle
	scratch  [][]model.TaskID // per-row list scratch of rowKernel.fill
	bestT    []int
	bestD    []float64
	active   []bool
	assigned []int
	heap     pickHeap
	seen     map[model.WorkerID]bool // dedup scratch, cleared after use
}

// NewPlanner returns a reusable AccOpt planner.
func NewPlanner() *Planner { return &Planner{} }

// Name implements Assigner.
func (pl *Planner) Name() string { return "AccOpt" }

// grow resizes the planner's buffers for a round over nW workers and nT
// tasks, reusing prior capacity where possible, and forgets the previous
// round's picks.
func (pl *Planner) grow(nW, nT int) {
	if need := 2 * nW * nT; cap(pl.matrix) < need {
		pl.matrix = make([]float64, need)
	}
	pl.matrix = pl.matrix[:2*nW*nT]
	pl.p = growSlices(pl.p, nW)
	pl.delta = growSlices(pl.delta, nW)
	for i := 0; i < nW; i++ {
		pl.p[i] = pl.matrix[2*i*nT : (2*i+1)*nT]
		pl.delta[i] = pl.matrix[(2*i+1)*nT : (2*i+2)*nT]
	}
	if cap(pl.taskN) < nT {
		pl.taskN = make([]int, nT)
		pl.taskU = make([]float64, nT)
		pl.picked = make([]bundle, nT)
	}
	pl.taskN = pl.taskN[:nT]
	pl.taskU = pl.taskU[:nT]
	pl.picked = pl.picked[:nT]
	clear(pl.picked)
	for len(pl.scratch) < nW {
		pl.scratch = append(pl.scratch, nil)
	}
	if cap(pl.bestT) < nW {
		pl.bestT = make([]int, nW)
		pl.bestD = make([]float64, nW)
		pl.active = make([]bool, nW)
		pl.assigned = make([]int, nW)
	}
	pl.bestT = pl.bestT[:nW]
	pl.bestD = pl.bestD[:nW]
	pl.active = pl.active[:nW]
	pl.assigned = pl.assigned[:nW]
	for i := 0; i < nW; i++ {
		pl.assigned[i] = 0
	}
	pl.heap = pl.heap[:0]
}

// bundle is the workers a round has picked for one task, as Lemma 2 in
// closed form sees them: how many (m) and r = Σ p(1 − p) over their
// agreement probabilities.
type bundle struct {
	m int
	r float64
}

// Assign implements Assigner. Duplicate workers in the list are dropped
// after their first occurrence: the Assigner contract caps each worker at
// h tasks with no repeats, and the parallel matrix init requires each
// worker's rows (including the model's per-worker distance cache) to be
// owned by exactly one goroutine.
func (pl *Planner) Assign(v View, workers []model.WorkerID, h int) Assignment {
	return pl.AssignExcluding(v, workers, h, nil)
}

// AssignExcluding implements ExcludingAssigner: the tasks ex lists for a
// worker are marked unavailable in the improvement matrix, exactly like
// already-answered pairs, so the greedy spends each worker's h picks on
// assignable pairs only.
func (pl *Planner) AssignExcluding(v View, workers []model.WorkerID, h int, ex Exclusions) Assignment {
	if h <= 0 {
		return Assignment{}
	}
	workers = pl.dedupWorkers(workers)
	params := v.Params()
	nT := len(v.Tasks())
	nW := len(workers)

	out := make(Assignment, nW)
	pl.grow(nW, nT)
	taskState(v, params, pl.taskN, pl.taskU)

	// p[i][t]: agreement probability of workers[i] on task t.
	// delta[i][t]: matrix entry per Algorithm 1, the marginal gain of adding
	// workers[i] to the workers picked for t so far this round. unavailable
	// marks pairs that cannot be assigned (already answered, excluded by
	// ex, or assigned this round).
	//
	// The O(|W|·|T|·|F|) init dominates a round, is embarrassingly parallel
	// over workers, and each chunk touches only its own workers' rows, so
	// it fans out over the CPUs. Row contents do not depend on the chunk
	// split; the result is deterministic.
	kern := newRowKernel(v, params, pl.taskN, pl.taskU)
	if procs := runtime.GOMAXPROCS(0); procs > 1 && nW > 1 && nW*nT >= 4096 {
		chunk := (nW + procs - 1) / procs
		var wg sync.WaitGroup
		for lo := 0; lo < nW; lo += chunk {
			wg.Add(1)
			go func(lo int, chunk []model.WorkerID) {
				defer wg.Done()
				pl.initRows(kern, chunk, ex, lo)
			}(lo, workers[lo:min(lo+chunk, nW)])
		}
		wg.Wait()
	} else {
		pl.initRows(kern, workers, ex, 0)
	}

	// Max-heap over the workers' cached best entries, replacing the O(|W|)
	// argmax scan per pick. Entries are lazily invalidated: a popped entry
	// is acted on only if it still matches the worker's cached best.
	// Ordering (largest delta first, ties to the lowest worker index)
	// reproduces the linear scan's pick exactly.
	for i := 0; i < nW; i++ {
		if pl.active[i] {
			pl.heap = append(pl.heap, pickEntry{d: pl.bestD[i], i: int32(i)})
		}
	}
	pl.heap.init()

	for {
		// Pick the active worker whose cached best is globally largest.
		imax := -1
		for len(pl.heap) > 0 {
			top := pl.heap.pop()
			if pl.active[top.i] && top.d == pl.bestD[top.i] {
				imax = int(top.i)
				break
			}
		}
		if imax < 0 {
			break // nobody can take more tasks
		}
		tmax := pl.bestT[imax]
		w := workers[imax]

		out[w] = append(out[w], model.TaskID(tmax))
		pl.assigned[imax]++
		pl.delta[imax][tmax] = unavailable

		// Add the chosen worker to the task's bundle. With the bundle at
		// (m, r), another worker i adds Δ(m+1, r + p_i(1−p_i)) − Δ(m, r).
		b := &pl.picked[tmax]
		pt := pl.p[imax][tmax]
		b.m++
		b.r += pt * (1 - pt)
		u, l, n := pl.taskU[tmax], float64(len(params.PZ[tmax])), pl.taskN[tmax]
		base := lemma2Delta(u, l, n, b.m, b.r)

		// Refresh the tmax column for every other active worker and fix
		// their cached best entries. Entries for other tasks are
		// untouched, so a full row rescan is needed only when a worker's
		// cached best was tmax and its entry shrank.
		for i := 0; i < nW; i++ {
			if !pl.active[i] || i == imax {
				continue
			}
			if pl.delta[i][tmax] != unavailable {
				pw := pl.p[i][tmax]
				pl.delta[i][tmax] = lemma2Delta(u, l, n, b.m+1, b.r+pw*(1-pw)) - base
			}
			if pl.delta[i][tmax] > pl.bestD[i] {
				pl.bestD[i] = pl.delta[i][tmax]
				pl.bestT[i] = tmax
				pl.heap.push(pickEntry{d: pl.bestD[i], i: int32(i)})
			} else if pl.bestT[i] == tmax {
				pl.rescan(i)
				if pl.active[i] {
					pl.heap.push(pickEntry{d: pl.bestD[i], i: int32(i)})
				}
			}
		}

		if pl.assigned[imax] >= h {
			pl.active[imax] = false
		} else {
			pl.rescan(imax)
			if pl.active[imax] {
				pl.heap.push(pickEntry{d: pl.bestD[imax], i: int32(imax)})
			}
		}
	}
	return out
}

// initRows fills the matrix rows lo, lo+1, … for workers, and their cached
// bests.
func (pl *Planner) initRows(kern rowKernel, workers []model.WorkerID, ex Exclusions, lo int) {
	for k, w := range workers {
		i := lo + k
		pl.scratch[i] = kern.fill(w, ex, pl.p[i], pl.delta[i], pl.scratch[i])
		pl.rescan(i)
	}
}

// rescan recomputes worker i's cached best entry from its delta row,
// deactivating the worker when no task remains available.
func (pl *Planner) rescan(i int) {
	bestT, bestD := -1, unavailable
	row := pl.delta[i]
	for t := range row {
		if row[t] > bestD {
			bestD = row[t]
			bestT = t
		}
	}
	pl.bestT[i] = bestT
	pl.bestD[i] = bestD
	pl.active[i] = bestT >= 0
}

// dedupWorkers returns workers with repeated IDs removed (first occurrence
// wins). The scratch map persists across rounds and a new slice is built
// only when a duplicate actually exists, so the steady-state round with
// distinct workers stays allocation-free.
func (pl *Planner) dedupWorkers(workers []model.WorkerID) []model.WorkerID {
	if pl.seen == nil {
		pl.seen = make(map[model.WorkerID]bool, len(workers))
	}
	defer clear(pl.seen)
	for i, w := range workers {
		if pl.seen[w] {
			out := make([]model.WorkerID, i, len(workers))
			copy(out, workers[:i])
			for _, v := range workers[i:] {
				if !pl.seen[v] {
					pl.seen[v] = true
					out = append(out, v)
				}
			}
			return out
		}
		pl.seen[w] = true
	}
	return workers
}

func growSlices(s [][]float64, n int) [][]float64 {
	if cap(s) < n {
		return make([][]float64, n)
	}
	return s[:n]
}

// pickEntry is one candidate in the pick heap: worker index i with cached
// best improvement d.
type pickEntry struct {
	d float64
	i int32
}

// pickHeap is a binary max-heap of pick entries ordered by (d desc, i asc),
// matching the tie-breaking of a left-to-right linear argmax scan.
type pickHeap []pickEntry

func prior(a, b pickEntry) bool {
	return a.d > b.d || (a.d == b.d && a.i < b.i)
}

func (h pickHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h *pickHeap) push(e pickEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !prior((*h)[i], (*h)[parent]) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *pickHeap) pop() pickEntry {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	if n > 0 {
		(*h).siftDown(0)
	}
	return top
}

func (h pickHeap) siftDown(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && prior(h[l], h[best]) {
			best = l
		}
		if r < n && prior(h[r], h[best]) {
			best = r
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}
