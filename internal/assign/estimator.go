package assign

import (
	"slices"

	"poilabel/internal/model"
)

// Estimator predicts how a task's inference accuracy changes when the task
// is assigned to additional workers, implementing Section IV-B of the
// paper: Agreement is a worker's probability of answering a task correctly
// (Equation 9), and lemma2Delta turns a bundle of such probabilities into
// the expected accuracy improvement (Lemma 2 and Equation 20) in O(1),
// instead of enumerating the 2^|Ŵ| possible answer combinations.
type Estimator struct {
	v View
}

// NewEstimator returns an estimator reading the state of v. The view must
// stay frozen while the estimator is in use (see View).
func NewEstimator(v View) *Estimator { return &Estimator{v: v} }

// Agreement returns P(z_{t,k} = r_{w,t,k}) for the pair (w, t) — Equation 9
// under the current parameters, with the paper's optimistic prior for cold
// pairs (Section IV-B, footnote 3): a worker with no answer history is
// assumed perfectly qualified and maximally distance-insensitive, and a
// task with no answers is assumed maximally influential. The optimism makes
// the assigner probe unknown workers and tasks early so their real
// parameters get estimated quickly.
func (e *Estimator) Agreement(w model.WorkerID, t model.TaskID) float64 {
	params := e.v.Params()
	cfg := e.v.Config()
	set := cfg.FuncSet
	d := e.v.Distance(w, t)

	pi := params.PI[w]
	var dq, iq float64
	if e.v.WorkerAnswerCount(w) == 0 {
		pi = 1
		dq = set.Func(set.WidestIndex()).Eval(d)
	} else {
		dq = set.Mixture(params.PDW[w], d)
	}
	if e.v.TaskAnswerCount(t) == 0 {
		iq = set.Func(set.WidestIndex()).Eval(d)
	} else {
		iq = set.Mixture(params.PDT[t], d)
	}
	return 0.5*(1-pi) + pi*(cfg.Alpha*dq+(1-cfg.Alpha)*iq)
}

// TotalDelta scores an arbitrary assignment under the estimator — the
// objective value of Definition 7: the sum over tasks of the Equation 20
// improvement of the bundle of workers the assignment gives each task
// (lemma2Delta). Workers are taken in ascending order and tasks summed in
// ascending order, so the value does not depend on map iteration order.
// Shared by tests comparing greedy against exhaustive and by the experiment
// harness's ablation-greedy statistics.
func TotalDelta(v View, a Assignment) float64 {
	est := NewEstimator(v)
	pz := v.Params().PZ
	workers := make([]model.WorkerID, 0, len(a))
	for w := range a {
		workers = append(workers, w)
	}
	slices.Sort(workers)
	picked := make([]bundle, len(v.Tasks()))
	for _, w := range workers {
		for _, t := range a[w] {
			p := est.Agreement(w, t)
			picked[t].m++
			picked[t].r += p * (1 - p)
		}
	}
	var total float64
	for t, b := range picked {
		if b.m == 0 {
			continue
		}
		total += lemma2Delta(spread(pz[t]), float64(len(pz[t])), v.TaskAnswerCount(model.TaskID(t)), b.m, b.r)
	}
	return total
}
