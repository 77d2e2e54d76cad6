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
// Its numbers are those of the reference pair Estimator.Agreement +
// TaskAcc().SingleDelta bit for bit — every floating-point operation keeps
// the reference's order — which TestRowKernelMatchesEstimator enforces; the
// reference stays in the tree as that oracle (and for Exhaustive and
// TotalDelta, where speed does not matter).
type rowKernel struct {
	v      View
	params *core.Params
	set    *distfunc.Set
	alpha  float64 // α of Equation 8
	rest   float64 // 1 − α
	widest int     // index of the optimistic prior's function
	taskN  []int   // |W(t)| per task
}

// newRowKernel hoists a round's invariants out of v. taskN must hold
// v.TaskAnswerCount(t) for every task.
func newRowKernel(v View, taskN []int) rowKernel {
	cfg := v.Config()
	return rowKernel{
		v:      v,
		params: v.Params(),
		set:    cfg.FuncSet,
		alpha:  cfg.Alpha,
		rest:   1 - cfg.Alpha,
		widest: cfg.FuncSet.WidestIndex(),
		taskN:  taskN,
	}
}

// fill computes, for worker w and every task t, the agreement probability
// p[t] (Equation 9 under the cold-pair priors of Estimator.Agreement) and
// the Equation 20 improvement delta[t] of assigning t to w alone. Pairs w
// has answered — read off w's own answer list rather than probed one by one
// — and, of the others only, pairs skip rejects get delta[t] = unavailable
// and p[t] = 0. answered is scratch for the answer list; fill returns it,
// possibly grown, for the next call.
func (k rowKernel) fill(w model.WorkerID, skip SkipFunc, p, delta []float64, answered []model.TaskID) []model.TaskID {
	answered = k.v.AnsweredTasks(w, answered[:0])
	clear(delta)
	for _, t := range answered {
		delta[t] = unavailable
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
		tid := model.TaskID(t)
		if delta[t] == unavailable || (skip != nil && skip(w, tid)) {
			delta[t] = unavailable
			p[t] = 0
			continue
		}
		// One evaluation of F serves both mixtures, each summed in
		// distfunc.Set.Mixture's order.
		fv = k.set.Eval(k.v.Distance(w, tid), fv)
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
		p[t] = guess + pi*(k.alpha*dq+k.rest*iq)
		delta[t] = firstDelta(k.params.PZ[t], float64(n), p[t])
	}
	return answered
}

// firstDelta is LabelAcc.SingleDelta on a task's pre-assignment state — acc1
// = pz, acc0 = 1 − pz, n answers — without materialising that state: the
// same operations in the same order.
func firstDelta(pz []float64, n, p float64) float64 {
	q := 1 - p
	var sum float64
	for _, z := range pz {
		nz := 1 - z
		a1 := (n*z+p)/(n+1)*p + (n*z+q)/(n+1)*q
		a0 := (n*nz+p)/(n+1)*p + (n*nz+q)/(n+1)*q
		sum += z*(a1-z) + nz*(a0-nz)
	}
	return sum
}
