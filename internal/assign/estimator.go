package assign

import (
	"poilabel/internal/model"
)

// Estimator predicts how a task's inference accuracy changes when the task
// is assigned to additional workers, implementing Section IV-B of the
// paper. All estimates are expectations over the unknown truth z_{t,k},
// tracked as a pair of branches:
//
//	acc1 — the estimated accuracy assuming z_{t,k} ≡ 1 (starts at P(z=1))
//	acc0 — the estimated accuracy assuming z_{t,k} ≡ 0 (starts at P(z=0))
//
// Extending a branch by one worker with agreement probability p follows
// Lemma 2's recursion, so a bundle of workers is evaluated in linear time
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

// LabelAcc is the per-label accuracy state of one task during assignment:
// the two conditional accuracy branches for each label plus the effective
// answer count n = |W(t)| + |Ŵ(t)|.
type LabelAcc struct {
	Acc1 []float64
	Acc0 []float64
	N    int
}

// TaskAcc returns the current (pre-assignment) accuracy state of task t:
// acc1 = P(z=1), acc0 = P(z=0) per label, n = |W(t)|.
func (e *Estimator) TaskAcc(t model.TaskID) *LabelAcc {
	pz := e.v.Params().PZ[t]
	la := &LabelAcc{
		Acc1: make([]float64, len(pz)),
		Acc0: make([]float64, len(pz)),
		N:    e.v.TaskAnswerCount(t),
	}
	for k, p := range pz {
		la.Acc1[k] = p
		la.Acc0[k] = 1 - p
	}
	return la
}

// Clone returns a deep copy of the state.
func (la *LabelAcc) Clone() *LabelAcc {
	return &LabelAcc{
		Acc1: append([]float64(nil), la.Acc1...),
		Acc0: append([]float64(nil), la.Acc0...),
		N:    la.N,
	}
}

// Extend applies Lemma 2: incorporate one more worker whose agreement
// probability is p, updating both branches of every label in place.
//
//	acc' = (n·acc + p)/(n+1)·p + (n·acc + (1−p))/(n+1)·(1−p)
//
// where n is the count before this worker.
func (la *LabelAcc) Extend(p float64) {
	n := float64(la.N)
	q := 1 - p
	for k := range la.Acc1 {
		la.Acc1[k] = (n*la.Acc1[k]+p)/(n+1)*p + (n*la.Acc1[k]+q)/(n+1)*q
		la.Acc0[k] = (n*la.Acc0[k]+p)/(n+1)*p + (n*la.Acc0[k]+q)/(n+1)*q
	}
	la.N++
}

// Extended returns a copy of la extended by p, leaving la unchanged.
func (la *LabelAcc) Extended(p float64) *LabelAcc {
	c := la.Clone()
	c.Extend(p)
	return c
}

// Delta returns the expected accuracy improvement of the bundle relative to
// the task's pre-assignment accuracy (Equation 20), summed over labels:
//
//	Σ_k  P(z=1)·(acc1_k − P(z=1)) + P(z=0)·(acc0_k − P(z=0))
//
// pz is the task's current P(z_{t,k}=1) vector.
func (la *LabelAcc) Delta(pz []float64) float64 {
	var sum float64
	for k := range la.Acc1 {
		p := pz[k]
		sum += p*(la.Acc1[k]-p) + (1-p)*(la.Acc0[k]-(1-p))
	}
	return sum
}

// SingleDelta is the common inner-loop query of the greedy assigner: the
// Equation 20 improvement of the bundle la ∪ {worker with agreement p},
// computed without mutating or copying la.
func (la *LabelAcc) SingleDelta(pz []float64, p float64) float64 {
	n := float64(la.N)
	q := 1 - p
	var sum float64
	for k := range la.Acc1 {
		a1 := (n*la.Acc1[k]+p)/(n+1)*p + (n*la.Acc1[k]+q)/(n+1)*q
		a0 := (n*la.Acc0[k]+p)/(n+1)*p + (n*la.Acc0[k]+q)/(n+1)*q
		z := pz[k]
		sum += z*(a1-z) + (1-z)*(a0-(1-z))
	}
	return sum
}

// TotalDelta scores an arbitrary assignment under the estimator — the
// objective value of Definition 7. Shared by tests comparing greedy against
// exhaustive and by the experiment harness's ablation-greedy statistics.
func TotalDelta(v View, a Assignment) float64 {
	est := NewEstimator(v)
	params := v.Params()
	bundle := make(map[model.TaskID][]float64)
	for w, ts := range a {
		for _, t := range ts {
			bundle[t] = append(bundle[t], est.Agreement(w, t))
		}
	}
	var total float64
	for t, ps := range bundle {
		la := est.TaskAcc(t)
		for _, pv := range ps {
			la.Extend(pv)
		}
		total += la.Delta(params.PZ[t])
	}
	return total
}
