package core

import (
	"math"
	"math/rand"
	"testing"

	"poilabel/internal/geo"
	"poilabel/internal/model"
)

// buildRandomModel constructs a small in-package model with a random answer
// log, for white-box tests and benchmarks of the E-step internals.
func buildRandomModel(t testing.TB, nTasks, nLabels, nWorkers, nAnswers int, seed int64) *Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var tasks []model.Task
	var pts []geo.Point
	for i := 0; i < nTasks; i++ {
		loc := geo.Pt(rng.Float64()*10, rng.Float64()*10)
		labels := make([]string, nLabels)
		for k := range labels {
			labels[k] = "l"
		}
		tasks = append(tasks, model.Task{ID: model.TaskID(i), Name: "t", Location: loc, Labels: labels})
		pts = append(pts, loc)
	}
	var workers []model.Worker
	for i := 0; i < nWorkers; i++ {
		loc := geo.Pt(rng.Float64()*10, rng.Float64()*10)
		workers = append(workers, model.Worker{ID: model.WorkerID(i), Name: "w", Locations: []geo.Point{loc}})
		pts = append(pts, loc)
	}
	m, err := NewModel(tasks, workers, geo.NormalizerFor(pts), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nAnswers; i++ {
		w := model.WorkerID(rng.Intn(nWorkers))
		task := model.TaskID(rng.Intn(nTasks))
		if m.answers.Has(w, task) {
			continue
		}
		sel := make([]bool, nLabels)
		for k := range sel {
			sel[k] = rng.Intn(2) == 0
		}
		if err := m.Observe(model.Answer{Worker: w, Task: task, Selected: sel}); err != nil {
			t.Fatal(err)
		}
	}
	// Perturb the parameters away from the uniform start so the E-step
	// sees non-trivial values.
	for ti := range m.params.PZ {
		for k := range m.params.PZ[ti] {
			m.params.PZ[ti][k] = 0.05 + 0.9*rng.Float64()
		}
	}
	for w := range m.params.PI {
		m.params.PI[w] = 0.05 + 0.9*rng.Float64()
	}
	return m
}

// accumulateRef is the pre-refactor E-step for one answer: per-label
// computePosterior calls with the full O(|F|) marginal loops, f-values
// resolved per (worker, task) pair. The flattened accumulate must reproduce
// its sufficient statistics.
func (m *Model) accumulateRef(a *model.Answer, p *Params, acc *accumulators, post *posterior) {
	w, t := a.Worker, a.Task
	fv := m.cfg.FuncSet.Eval(m.Distance(w, t), nil)
	pdw, pdt := p.PDW[w], p.PDT[t]
	pi := p.PI[w]
	for k, r := range a.Selected {
		computePosterior(r, p.PZ[t][k], pi, pdw, pdt, fv, m.cfg.Alpha, post)
		acc.zSum[t][k] += post.z1
		acc.zCount[t][k]++
		acc.iSum[w] += post.i1
		acc.iCount[w]++
		for j := range post.dw {
			acc.dwSum[w][j] += post.dw[j]
			acc.dtSum[t][j] += post.dt[j]
		}
		acc.dtCount[t]++
		acc.logLik += math.Log(post.lik)
	}
}

// The flattened E-step (hoisted dot products, SoA answer and f-value
// stores, affine marginal folding) must agree with the pre-refactor serial
// formula to within 1e-9 over a full randomized sweep.
func TestFlatEStepMatchesReferenceSweep(t *testing.T) {
	for _, seed := range []int64{3, 17, 92} {
		m := buildRandomModel(t, 12, 4, 6, 50, seed)

		f := m.inPlace()
		got := f.newAccumulators()
		got.reset()
		for i := 0; i < m.answers.Len(); i++ {
			f.accumulate(i, m.params, got)
		}

		want := f.newAccumulators()
		want.reset()
		post := newPosterior(m.cfg.FuncSet.Len())
		for i := 0; i < m.answers.Len(); i++ {
			m.accumulateRef(m.answers.Answer(i), m.params, want, post)
		}

		approx := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
		for ti := range want.zSum {
			for k := range want.zSum[ti] {
				if !approx(got.zSum[ti][k], want.zSum[ti][k]) || got.zCount[ti][k] != want.zCount[ti][k] {
					t.Fatalf("seed %d: zSum[%d][%d] = %v, want %v", seed, ti, k, got.zSum[ti][k], want.zSum[ti][k])
				}
			}
			for j := range want.dtSum[ti] {
				if !approx(got.dtSum[ti][j], want.dtSum[ti][j]) {
					t.Fatalf("seed %d: dtSum[%d][%d] = %v, want %v", seed, ti, j, got.dtSum[ti][j], want.dtSum[ti][j])
				}
			}
			if got.dtCount[ti] != want.dtCount[ti] {
				t.Fatalf("seed %d: dtCount[%d] = %v, want %v", seed, ti, got.dtCount[ti], want.dtCount[ti])
			}
		}
		for w := range want.iSum {
			if !approx(got.iSum[w], want.iSum[w]) || got.iCount[w] != want.iCount[w] {
				t.Fatalf("seed %d: iSum[%d] = %v, want %v", seed, w, got.iSum[w], want.iSum[w])
			}
			for j := range want.dwSum[w] {
				if !approx(got.dwSum[w][j], want.dwSum[w][j]) {
					t.Fatalf("seed %d: dwSum[%d][%d] = %v, want %v", seed, w, j, got.dwSum[w][j], want.dwSum[w][j])
				}
			}
		}
		if !approx(got.logLik, want.logLik) {
			t.Fatalf("seed %d: logLik = %v, want %v", seed, got.logLik, want.logLik)
		}
	}
}
