package assign

import (
	"math"
	"math/rand"
	"testing"

	"poilabel/internal/core"
	"poilabel/internal/distfunc"
	"poilabel/internal/model"
)

// The row kernel must reproduce the reference — Estimator.Agreement for the
// agreement, bit for bit, and the Lemma 2 recursion (TaskAcc().SingleDelta)
// for the improvement, within deltaTol — on cold and warm workers and tasks,
// on answered and excluded pairs, against both View implementations, and on
// function sets that fit the kernel's stack buffer and one that does not. It
// must also read the exclusions exactly once per row: they arrive as the
// worker's list, never as a question about each pair.
func TestRowKernelMatchesEstimator(t *testing.T) {
	sets := map[string]*distfunc.Set{
		"F1":  distfunc.MustSet(10),
		"F3":  distfunc.PaperSet(),
		"F11": distfunc.MustSet(300, 100, 30, 10, 3, 1, 0.3, 0.1, 0.03, 0.01, 0.003),
	}
	if n := sets["F11"].Len(); n <= kernelFuncs {
		t.Fatalf("the large set has %d functions, need more than the kernel's stack buffer of %d", n, kernelFuncs)
	}
	for name, set := range sets {
		for seed := int64(1); seed <= 3; seed++ {
			const nT, nW = 60, 6
			cfg := core.DefaultConfig()
			cfg.FuncSet = set
			m := smallWorldCfg(t, nT, nW, 60+seed, cfg)
			// Workers nW-2 and nW-1 and every third task stay cold; task 1
			// collects an answer from every other worker.
			rng := rand.New(rand.NewSource(70 + seed))
			var pairs [][2]int
			for task := 0; task < nT; task++ {
				switch {
				case task%3 == 0:
				case task == 1:
					for w := 0; w < nW-2; w++ {
						pairs = append(pairs, [2]int{w, task})
					}
				default:
					pairs = append(pairs, [2]int{rng.Intn(nW - 2), task})
				}
			}
			warm(t, m, pairs, rng)

			for _, v := range []View{m, SnapshotModel(m)} {
				for _, excluding := range []bool{false, true} {
					checkKernelRows(t, name, v, excluding)
				}
			}
		}
	}
}

// countedExclusions is an Exclusions that counts its reads.
type countedExclusions struct {
	TaskLists
	reads map[model.WorkerID]int
}

func (c countedExclusions) ExcludedTasks(w model.WorkerID, buf []model.TaskID) []model.TaskID {
	c.reads[w]++
	return c.TaskLists.ExcludedTasks(w, buf)
}

// checkKernelRows compares every worker's kernel rows over v with the
// Estimator reference.
func checkKernelRows(t *testing.T, name string, v View, excluding bool) {
	t.Helper()
	est := NewEstimator(v)
	nT := len(v.Tasks())
	taskN, taskU := make([]int, nT), make([]float64, nT)
	params := v.Params()
	taskState(v, params, taskN, taskU)
	kern := newRowKernel(v, params, taskN, taskU)
	p, delta := make([]float64, nT), make([]float64, nT)
	// Every fourth pair is excluded — answered ones too, which must stay
	// simply answered — plus a task beyond the view, which must be ignored.
	excluded := func(w model.WorkerID, task model.TaskID) bool { return (int(w)+int(task))%4 == 0 }
	var ex Exclusions
	counted := countedExclusions{TaskLists: TaskLists{}, reads: map[model.WorkerID]int{}}
	if excluding {
		for w := range v.Workers() {
			wid := model.WorkerID(w)
			counted.TaskLists[wid] = append(listWhere(nT, func(task model.TaskID) bool { return excluded(wid, task) }), model.TaskID(nT+w))
		}
		ex = counted
	}
	wantReads := 0
	if excluding {
		wantReads = 1
	}
	var scratch []model.TaskID
	for w := range v.Workers() {
		wid := model.WorkerID(w)
		// Whatever an earlier round left in the buffers must not show.
		for task := range p {
			p[task], delta[task] = math.NaN(), unavailable
		}
		scratch = kern.fill(wid, ex, p, delta, scratch)
		if counted.reads[wid] != wantReads {
			t.Fatalf("%s %T worker %d: exclusions read %d times in one row, want %d", name, v, w, counted.reads[wid], wantReads)
		}

		for task := 0; task < nT; task++ {
			tid := model.TaskID(task)
			if v.HasAnswer(wid, tid) || (excluding && excluded(wid, tid)) {
				if p[task] != 0 || delta[task] != unavailable {
					t.Fatalf("%s %T excluding=%v pair (%d,%d): kernel p=%v delta=%v, want 0 and unavailable",
						name, v, excluding, w, task, p[task], delta[task])
				}
				continue
			}
			wantP := est.Agreement(wid, tid)
			wantD := est.TaskAcc(tid).SingleDelta(v.Params().PZ[task], wantP)
			if math.Float64bits(p[task]) != math.Float64bits(wantP) || !deltaClose(delta[task], wantD) {
				t.Fatalf("%s %T excluding=%v pair (%d,%d): kernel p=%v delta=%v, reference p=%v delta=%v",
					name, v, excluding, w, task, p[task], delta[task], wantP, wantD)
			}
		}
	}
}

// listsWhere returns, for each of workers, the tasks below nT for which in
// holds.
func listsWhere(workers []model.WorkerID, nT int, in func(model.WorkerID, model.TaskID) bool) TaskLists {
	out := make(TaskLists, len(workers))
	for _, w := range workers {
		out[w] = listWhere(nT, func(t model.TaskID) bool { return in(w, t) })
	}
	return out
}

// listWhere returns the tasks below nT for which in holds, in order.
func listWhere(nT int, in func(model.TaskID) bool) []model.TaskID {
	var out []model.TaskID
	for task := 0; task < nT; task++ {
		if in(model.TaskID(task)) {
			out = append(out, model.TaskID(task))
		}
	}
	return out
}

// A round on a reused Planner allocates the Assignment it returns and
// nothing else: no scratch whose size follows the task count.
func TestPlannerRoundAllocsIndependentOfTasks(t *testing.T) {
	const nW, h = 4, 2
	workers := allWorkers(nW)
	pairs := [][2]int{{0, 0}, {0, 5}, {1, 5}, {1, 9}, {2, 7}, {3, 2}, {3, 11}}
	allocs := func(nT int) float64 {
		m := smallWorld(t, nT, nW, 80)
		warm(t, m, pairs, rand.New(rand.NewSource(81)))
		pl := NewPlanner()
		var sink Assignment
		n := testing.AllocsPerRun(5, func() { sink = pl.Assign(m, workers, h) })
		if sink.TotalTasks() != nW*h {
			t.Fatalf("nT=%d: assigned %d pairs, want %d", nT, sink.TotalTasks(), nW*h)
		}
		return n
	}
	small, large := allocs(200), allocs(4000)
	if small != large {
		t.Errorf("a round allocates %v times over 200 tasks and %v over 4000", small, large)
	}
	// The map, and one growth step per pick of a worker's task list.
	if limit := float64(2 + nW*h); large > limit {
		t.Errorf("a round allocates %v times, want at most %v (the returned Assignment)", large, limit)
	}
}
