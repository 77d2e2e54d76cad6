package assign

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"poilabel/internal/core"
	"poilabel/internal/geo"
	"poilabel/internal/model"
)

// referenceGreedy is the pre-refactor greedy assignment: serial matrix
// init through the Estimator, every task's accuracy state built up front, a
// linear O(|W|) argmax scan per pick, and fresh scratch per call. The
// heap-based, parallel-init, kernel-filled Planner must reproduce its output
// byte for byte — same picks, same order, same per-worker task lists.
func referenceGreedy(m *core.Model, workers []model.WorkerID, h int, ex Exclusions) Assignment {
	est := NewEstimator(m)
	tasks := m.Tasks()
	answers := m.Answers()
	params := m.Params()
	nT := len(tasks)
	nW := len(workers)

	out := make(Assignment, nW)

	taskAcc := make([]*LabelAcc, nT)
	taskDelta := make([]float64, nT)
	for t := 0; t < nT; t++ {
		taskAcc[t] = est.TaskAcc(model.TaskID(t))
	}

	p := make([][]float64, nW)
	delta := make([][]float64, nW)
	for i, w := range workers {
		p[i] = make([]float64, nT)
		delta[i] = make([]float64, nT)
		excluded := excludedSet(ex, w)
		for t := 0; t < nT; t++ {
			tid := model.TaskID(t)
			if answers.Has(w, tid) || excluded[tid] {
				delta[i][t] = unavailable
				continue
			}
			p[i][t] = est.Agreement(w, tid)
			delta[i][t] = taskAcc[t].SingleDelta(params.PZ[t], p[i][t])
		}
	}

	bestT := make([]int, nW)
	bestD := make([]float64, nW)
	active := make([]bool, nW)
	rescan := func(i int) {
		bestT[i] = -1
		bestD[i] = unavailable
		row := delta[i]
		for t := 0; t < nT; t++ {
			if row[t] > bestD[i] {
				bestD[i] = row[t]
				bestT[i] = t
			}
		}
		if bestT[i] < 0 {
			active[i] = false
		}
	}
	for i := range workers {
		active[i] = true
		rescan(i)
	}

	assigned := make([]int, nW)
	for {
		imax := -1
		for i := range workers {
			if !active[i] {
				continue
			}
			if imax < 0 || bestD[i] > bestD[imax] {
				imax = i
			}
		}
		if imax < 0 {
			break
		}
		tmax := bestT[imax]
		w := workers[imax]

		out[w] = append(out[w], model.TaskID(tmax))
		assigned[imax]++
		delta[imax][tmax] = unavailable

		taskAcc[tmax].Extend(p[imax][tmax])
		taskDelta[tmax] = taskAcc[tmax].Delta(params.PZ[tmax])

		for i := range workers {
			if !active[i] || i == imax {
				continue
			}
			if delta[i][tmax] != unavailable {
				delta[i][tmax] = taskAcc[tmax].SingleDelta(params.PZ[tmax], p[i][tmax]) - taskDelta[tmax]
			}
			if delta[i][tmax] > bestD[i] {
				bestD[i] = delta[i][tmax]
				bestT[i] = tmax
			} else if bestT[i] == tmax {
				rescan(i)
			}
		}

		if assigned[imax] >= h {
			active[imax] = false
		} else {
			rescan(imax)
		}
	}
	return out
}

// regressionWorld builds a benchmark-scale warm model: nT tasks, nW
// workers, ~nT/4 warm answers, one full fit.
func regressionWorld(t *testing.T, nT, nW int, seed int64) *core.Model {
	t.Helper()
	m := smallWorld(t, nT, nW, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	var pairs [][2]int
	for task := 0; task < nT; task += 4 {
		pairs = append(pairs, [2]int{rng.Intn(nW), task})
	}
	warm(t, m, pairs, rng)
	return m
}

// The Planner (heap pick, parallel init, reused scratch, lazily built bundle
// state) must be byte-identical to the reference greedy across scales,
// views, exclusions, and repeated rounds on the same planner while
// the model grows under it.
func TestPlannerMatchesReferenceGreedy(t *testing.T) {
	// Force several P so the goroutine-chunked init actually runs even on
	// single-CPU hosts; the chunk split must not change the output.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cases := []struct {
		nT, nW, h int
		seed      int64
	}{
		{40, 4, 2, 5},
		{200, 8, 3, 6},
		{600, 24, 2, 7}, // large enough to cross the parallel-init threshold
	}
	for _, tc := range cases {
		m := regressionWorld(t, tc.nT, tc.nW, tc.seed)
		workers := allWorkers(tc.nW)
		pl := NewPlanner()
		// Three rounds on the same planner, each against a fresh
		// reference run: the later ones exercise the buffer-reuse path,
		// an exclusion set, and a task and a worker the planner's
		// buffers were not sized for.
		for round := 0; round < 3; round++ {
			var ex Exclusions
			if round > 0 {
				ex = listsWhere(workers, len(m.Tasks()), func(w model.WorkerID, tid model.TaskID) bool { return (int(w)+int(tid)+round)%7 == 0 })
			}
			want := referenceGreedy(m, workers, tc.h, ex)
			got := pl.AssignExcluding(m, workers, tc.h, ex)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("nT=%d nW=%d round %d: planner diverges from reference\n got: %v\nwant: %v",
					tc.nT, tc.nW, round, got, want)
			}
			// The same round once more, over a snapshot. The run above
			// extended the bundle state of every task it picked; a
			// state that outlived its round would be extended twice.
			if again := pl.AssignExcluding(SnapshotModel(m), workers, tc.h, ex); !reflect.DeepEqual(again, want) {
				t.Fatalf("nT=%d nW=%d round %d: replanning over a snapshot diverges from reference\n got: %v\nwant: %v",
					tc.nT, tc.nW, round, again, want)
			}
			// Execute the round so the next one starts from a
			// different model state.
			rng := rand.New(rand.NewSource(tc.seed + int64(round)))
			for _, w := range workers {
				for _, tid := range got[w] {
					sel := make([]bool, 3)
					for k := range sel {
						sel[k] = rng.Intn(2) == 0
					}
					if err := m.Observe(model.Answer{Worker: w, Task: tid, Selected: sel}); err != nil {
						t.Fatal(err)
					}
				}
			}
			if round == 0 {
				growWorld(t, m)
				workers = allWorkers(len(m.Workers()))
			}
			m.Fit()
		}
	}
}

// growWorld registers one more task and one more worker, both cold, beside
// the first ones.
func growWorld(t *testing.T, m *core.Model) {
	t.Helper()
	task := m.Tasks()[0]
	task.ID = model.TaskID(len(m.Tasks()))
	task.Location.Y += 0.25
	if err := m.AddTask(task); err != nil {
		t.Fatal(err)
	}
	worker := m.Workers()[0]
	worker.ID = model.WorkerID(len(m.Workers()))
	worker.Locations = []geo.Point{{X: worker.Locations[0].X, Y: worker.Locations[0].Y + 0.25}}
	if err := m.AddWorker(worker); err != nil {
		t.Fatal(err)
	}
}

// Duplicate workers in the request list must collapse to their first
// occurrence: each worker gets at most h distinct tasks, identical to a
// deduplicated request.
func TestPlannerDeduplicatesWorkers(t *testing.T) {
	m := regressionWorld(t, 80, 6, 11)
	dup := []model.WorkerID{2, 0, 2, 5, 0, 3, 2}
	want := NewPlanner().Assign(m, []model.WorkerID{2, 0, 5, 3}, 2)
	got := NewPlanner().Assign(m, dup, 2)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("duplicated request diverges:\n got: %v\nwant: %v", got, want)
	}
}

// The pick heap must order by (delta desc, worker index asc), exactly the
// tie-breaking of the linear scan it replaces.
func TestPickHeapOrdering(t *testing.T) {
	var h pickHeap
	entries := []pickEntry{
		{d: 0.5, i: 3}, {d: 0.9, i: 7}, {d: 0.9, i: 2},
		{d: math.Inf(-1), i: 0}, {d: 0.1, i: 5}, {d: 0.9, i: 4},
	}
	h = append(h, entries...)
	h.init()
	wantOrder := []pickEntry{
		{d: 0.9, i: 2}, {d: 0.9, i: 4}, {d: 0.9, i: 7},
		{d: 0.5, i: 3}, {d: 0.1, i: 5}, {d: math.Inf(-1), i: 0},
	}
	for n, want := range wantOrder {
		got := h.pop()
		if got != want {
			t.Fatalf("pop %d = %+v, want %+v", n, got, want)
		}
	}
	h.push(pickEntry{d: 0.3, i: 1})
	h.push(pickEntry{d: 0.8, i: 9})
	h.push(pickEntry{d: 0.8, i: 0})
	if got := h.pop(); got != (pickEntry{d: 0.8, i: 0}) {
		t.Fatalf("pop after push = %+v, want {0.8 0}", got)
	}
}
