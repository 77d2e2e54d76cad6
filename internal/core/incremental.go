package core

import (
	"sort"

	"poilabel/internal/model"
)

// Update performs the incremental EM of Section III-D after a single answer
// submission: instead of re-running EM over the whole answer set, it
// re-estimates only the parameters the new answer touches — the submitting
// worker's quality (P(i_w), P(d_w)) from that worker's answers, and the
// answered task's inferred results (P(z_{t,k})) and POI influence (P(d_t))
// from that task's answers. All other parameters are held fixed, which is
// exactly the partial E-step justified by Neal & Hinton's incremental EM
// view [18].
//
// The answer is observed (appended to the log) and then IncrementalSweeps
// local E/M sweeps run over the affected slices.
func (m *Model) Update(a model.Answer) error {
	if err := m.Observe(a); err != nil {
		return err
	}
	m.refreshLocal(a.Worker, a.Task, m.answers.Len())
	return nil
}

// refreshLocal runs the localized E/M sweeps for one (worker, task) pair over
// the first upto answers of the log — all of it for the answer just observed,
// a prefix when Adopt re-applies the update of an earlier one.
func (m *Model) refreshLocal(w model.WorkerID, t model.TaskID, upto int) {
	for sweep := 0; sweep < m.cfg.IncrementalSweeps; sweep++ {
		m.refreshWorker(w, upto)
		m.refreshTask(t, upto)
	}
}

// refreshWorker re-estimates P(i_w) and P(d_w) from w's answers among the
// first upto under the current values of every other parameter. Like the full
// E-step, it hoists the pair dot products out of the label loop and folds the
// d_w marginals through the per-answer affine coefficients.
func (m *Model) refreshWorker(w model.WorkerID, upto int) {
	idxs := m.answers.ByWorker(w)
	idxs = idxs[:sort.SearchInts(idxs, upto)]
	if len(idxs) == 0 {
		return
	}
	nf := m.cfg.FuncSet.Len()
	var iSum, n float64
	dwSum := make([]float64, nf)
	pdw := m.params.PDW[w]
	pi := m.params.PI[w]
	var lp labelPosterior
	for _, idx := range idxs {
		t := m.answers.Answer(idx).Task
		fv := m.fvalsAt(idx)
		dq, iq := pairDots(pdw, m.params.PDT[t], fv)
		pz := m.params.PZ[t]
		var awA, awB float64
		for k, r := range m.answers.Votes(idx) {
			evalLabel(r, pz[k], pi, m.cfg.Alpha, dq, iq, &lp)
			iSum += lp.i1
			n++
			awA += lp.awA
			awB += lp.awB
		}
		for j := range fv {
			dwSum[j] += pdw[j] * (awA + awB*fv[j])
		}
	}
	if n > 0 {
		m.params.PI[w] = m.cfg.blend(iSum, n, m.cfg.InitPI)
		m.cfg.normalizeSmoothed(pdw, dwSum)
	}
}

// refreshTask re-estimates P(z_{t,k}) for every label of t and P(d_t) from
// the answers on t among the first upto under the current values of every other
// parameter.
func (m *Model) refreshTask(t model.TaskID, upto int) {
	idxs := m.answers.ByTask(t)
	idxs = idxs[:sort.SearchInts(idxs, upto)]
	if len(idxs) == 0 {
		return
	}
	nf := m.cfg.FuncSet.Len()
	nk := len(m.tasks[t].Labels)
	zSum := make([]float64, nk)
	zCount := make([]float64, nk)
	dtSum := make([]float64, nf)
	pdt := m.params.PDT[t]
	pz := m.params.PZ[t]
	var lp labelPosterior
	for _, idx := range idxs {
		w := m.answers.Answer(idx).Worker
		fv := m.fvalsAt(idx)
		dq, iq := pairDots(m.params.PDW[w], pdt, fv)
		pi := m.params.PI[w]
		var atA, atB float64
		for k, r := range m.answers.Votes(idx) {
			evalLabel(r, pz[k], pi, m.cfg.Alpha, dq, iq, &lp)
			zSum[k] += lp.z1
			zCount[k]++
			atA += lp.atA
			atB += lp.atB
		}
		for j := range fv {
			dtSum[j] += pdt[j] * (atA + atB*fv[j])
		}
	}
	for k := 0; k < nk; k++ {
		if zCount[k] > 0 {
			pz[k] = m.cfg.blend(zSum[k], zCount[k], m.cfg.InitPZ)
		}
	}
	m.cfg.normalizeSmoothed(pdt, dtSum)
}
