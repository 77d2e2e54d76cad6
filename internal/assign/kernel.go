package assign

import (
	"poilabel/internal/core"
	"poilabel/internal/distfunc"
	"poilabel/internal/model"
)

// kernelFuncs is the function-set size the row kernel evaluates into a stack
// buffer; larger sets cost one allocation per row.
const kernelFuncs = 8

// rowKernel is the package's one per-pair loop: it fills a worker's
// agreement row and initial improvement row over every task, with everything
// that does not change within a planning round read once. Planner's matrix
// init and Candidates.build both run it.
//
// Its agreement is Estimator.Agreement bit for bit — every floating-point
// operation keeps the reference's order — and its improvement is lemma2Delta
// for a bundle of one, which matches the Lemma 2 recursion the paper writes
// (kept in the tests as the reference) within the tests' deltaTol.
// TestRowKernelMatchesEstimator enforces both.
type rowKernel struct {
	v      View
	params *core.Params
	set    *distfunc.Set
	alpha  float64   // α of Equation 8
	rest   float64   // 1 − α
	widest int       // index of the optimistic prior's function
	taskN  []int     // |W(t)| per task
	taskU  []float64 // U_t = Σ_k z_k(1 − z_k) per task
}

// newRowKernel hoists a round's invariants out of v. params is v.Params(),
// read once per round by the caller (a partition node's view builds it per
// call); taskN and taskU must hold what taskState writes for them.
func newRowKernel(v View, params *core.Params, taskN []int, taskU []float64) rowKernel {
	cfg := v.Config()
	return rowKernel{
		v:      v,
		params: params,
		set:    cfg.FuncSet,
		alpha:  cfg.Alpha,
		rest:   1 - cfg.Alpha,
		widest: cfg.FuncSet.WidestIndex(),
		taskN:  taskN,
		taskU:  taskU,
	}
}

// taskState writes, for every task of v, its answer count |W(t)| into taskN
// and U_t into taskU under v's parameters params — the per-task numbers
// lemma2Delta reads, computed once per round (Planner) or once per snapshot
// (Snapshot).
func taskState(v View, params *core.Params, taskN []int, taskU []float64) {
	pz := params.PZ
	for t := range taskN {
		taskN[t] = v.TaskAnswerCount(model.TaskID(t))
		taskU[t] = spread(pz[t])
	}
}

// spread returns U_t = Σ_k z_k(1 − z_k) over a task's label posteriors.
func spread(pz []float64) float64 {
	var u float64
	for _, z := range pz {
		u += z * (1 - z)
	}
	return u
}

// lemma2Delta is the Equation 20 improvement, summed over a task's l labels,
// of adding a bundle of m workers to the task's n answers — Lemma 2 in closed
// form, Δ(m, r) = 2·(m·u − l·r)/(n + m), with u = U_t = Σ_k z_k(1 − z_k) over
// the task's current P(z) and r = Σ_i p_i(1 − p_i) over the bundle. One
// Lemma 2 step is affine because p + (1 − p) = 1; PERFORMANCE.md §AccOpt has
// the derivation.
func lemma2Delta(u, l float64, n, m int, r float64) float64 {
	return 2 * (float64(m)*u - l*r) / float64(n+m)
}

// fill computes, for worker w and every task t, the agreement probability
// p[t] (Equation 9 under the cold-pair priors of Estimator.Agreement) and
// the Equation 20 improvement delta[t] of assigning t to w alone. The tasks w
// has answered and those ex excludes for w — both read as w's own lists,
// once per row, never probed pair by pair — get delta[t] = unavailable and
// p[t] = 0. scratch holds the lists; fill returns it, possibly grown, for the
// next call.
func (k rowKernel) fill(w model.WorkerID, ex Exclusions, p, delta []float64, scratch []model.TaskID) []model.TaskID {
	scratch = k.v.AnsweredTasks(w, scratch[:0])
	if ex != nil {
		scratch = ex.ExcludedTasks(w, scratch)
	}
	clear(delta)
	for _, t := range scratch {
		if uint(t) < uint(len(delta)) {
			delta[t] = unavailable
		}
	}

	var buf [kernelFuncs]float64
	fv := buf[:]
	if n := k.set.Len(); n > len(buf) {
		fv = make([]float64, n)
	}
	pi, pdw := k.params.PI[w], k.params.PDW[w]
	coldW := k.v.WorkerAnswerCount(w) == 0
	if coldW {
		pi = 1
	}
	guess := 0.5 * (1 - pi)
	for t := range delta {
		if delta[t] == unavailable {
			p[t] = 0
			continue
		}
		// One evaluation of F serves both mixtures, each summed in
		// distfunc.Set.Mixture's order.
		fv = k.set.Eval(k.v.Distance(w, model.TaskID(t)), fv)
		var dq, iq float64
		if coldW {
			dq = fv[k.widest]
		} else {
			for j, f := range fv {
				dq += pdw[j] * f
			}
		}
		n := k.taskN[t]
		if n == 0 {
			iq = fv[k.widest]
		} else {
			pdt := k.params.PDT[t]
			for j, f := range fv {
				iq += pdt[j] * f
			}
		}
		pt := guess + pi*(k.alpha*dq+k.rest*iq)
		p[t] = pt
		delta[t] = lemma2Delta(k.taskU[t], float64(len(k.params.PZ[t])), n, 1, pt*(1-pt))
	}
	return scratch
}
