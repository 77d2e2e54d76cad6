package assign

import (
	"math"
	"math/rand"
	"testing"

	"poilabel/internal/core"
	"poilabel/internal/distfunc"
	"poilabel/internal/model"
)

// The row kernel must reproduce the reference pair Estimator.Agreement +
// TaskAcc().SingleDelta bit for bit — not to a tolerance: the greedy's argmax
// and the candidate lists' sort order break ties on the last bit — on cold
// and warm workers and tasks, on answered and skipped pairs, against both
// View implementations, and on function sets that fit the kernel's stack
// buffer and one that does not. It must also consult skip for exactly the
// pairs the view has not answered, once each: the serving layer counts the
// calls that return true.
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
				for _, skipping := range []bool{false, true} {
					checkKernelRows(t, name, v, skipping)
				}
			}
		}
	}
}

// checkKernelRows compares every worker's kernel rows over v with the
// Estimator reference.
func checkKernelRows(t *testing.T, name string, v View, skipping bool) {
	t.Helper()
	est := NewEstimator(v)
	nT := len(v.Tasks())
	taskN := make([]int, nT)
	for task := range taskN {
		taskN[task] = v.TaskAnswerCount(model.TaskID(task))
	}
	kern := newRowKernel(v, taskN)
	p, delta := make([]float64, nT), make([]float64, nT)
	var answered []model.TaskID
	for w := range v.Workers() {
		wid := model.WorkerID(w)
		skipped := func(w model.WorkerID, task model.TaskID) bool { return (int(w)+int(task))%4 == 0 }
		asked := make(map[model.TaskID]int)
		var skip SkipFunc
		if skipping {
			skip = func(w model.WorkerID, task model.TaskID) bool {
				asked[task]++
				return skipped(w, task)
			}
		}
		// Whatever an earlier round left in the buffers must not show.
		for task := range p {
			p[task], delta[task] = math.NaN(), unavailable
		}
		answered = kern.fill(wid, skip, p, delta, answered)

		for task := 0; task < nT; task++ {
			tid := model.TaskID(task)
			wantP, wantD := 0.0, unavailable
			wantAsked := 0
			if !v.HasAnswer(wid, tid) {
				if skipping {
					wantAsked = 1
				}
				if !skipping || !skipped(wid, tid) {
					wantP = est.Agreement(wid, tid)
					wantD = est.TaskAcc(tid).SingleDelta(v.Params().PZ[task], wantP)
				}
			}
			if math.Float64bits(p[task]) != math.Float64bits(wantP) || math.Float64bits(delta[task]) != math.Float64bits(wantD) {
				t.Fatalf("%s %T skip=%v pair (%d,%d): kernel p=%v delta=%v, reference p=%v delta=%v",
					name, v, skipping, w, task, p[task], delta[task], wantP, wantD)
			}
			if asked[tid] != wantAsked {
				t.Fatalf("%s %T pair (%d,%d): skip consulted %d times, want %d (answered: %v)",
					name, v, w, task, asked[tid], wantAsked, v.HasAnswer(wid, tid))
			}
		}
	}
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
