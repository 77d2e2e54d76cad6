package core

import (
	"context"
	"math"
	"sync"
	"time"
)

// FitStats reports the outcome of a full EM run.
type FitStats struct {
	// Iterations is the number of E/M passes executed.
	Iterations int
	// Converged reports whether the max parameter change fell below Tol
	// before MaxIter was reached.
	Converged bool
	// DeltaTrace[i] is the maximum parameter change after iteration i —
	// the convergence statistic plotted in Figure 10.
	DeltaTrace []float64
	// LogLikTrace[i] is the observed-data log-likelihood after iteration i.
	LogLikTrace []float64
	// Elapsed is the wall-clock duration of the fit.
	Elapsed time.Duration
}

// posterior holds the per-(answer, label) posterior marginals computed by
// the E-step: the four-case joint of Equation 12 collapsed to the marginals
// the M-step needs. The joint over (z, i, d_w, d_t) factors so that each
// marginal costs O(|F|) instead of O(4·|F|²).
type posterior struct {
	z1 float64   // P(z_{t,k}=1 | r)
	i1 float64   // P(i_w=1 | r)
	dw []float64 // P(d_w=f_j | r)
	dt []float64 // P(d_t=f_j | r)
	// lik is the observed likelihood P(r_{w,t,k}) under the current
	// parameters (the normalizer of the joint posterior).
	lik float64
}

func newPosterior(nf int) *posterior {
	return &posterior{dw: make([]float64, nf), dt: make([]float64, nf)}
}

// computePosterior evaluates the E-step for one (answer, label) cell.
//
// It is the reference implementation: the hot path (pairDots + evalLabel)
// factors the same computation so that the two O(|F|) dot products are
// hoisted out of the per-label loop and the d_w/d_t marginals collapse to
// affine coefficients. Tests assert the two paths agree; keep them in sync.
//
//	r   — the worker's vote r_{w,t,k}
//	pz  — current prior P(z_{t,k}=1)
//	pi  — current P(i_w=1)
//	pdw, pdt — current multinomials over F
//	fv  — precomputed f_j(d(w,t)) for every function in F
//	alpha — the Equation 8 mixing weight
//
// The four cases of Equation 12 are:
//
//	(i=0, z)   likelihood 0.5 regardless of d_w, d_t
//	(i=1, z=1) likelihood q     if r=1, 1−q if r=0
//	(i=1, z=0) likelihood 1−q   if r=1, q   if r=0
//
// with q = α·f_{d_w}(d) + (1−α)·f_{d_t}(d). Because q is affine in the two
// function values, marginalizing over d_w and d_t is a pair of dot
// products.
func computePosterior(r bool, pz, pi float64, pdw, pdt, fv []float64, alpha float64, out *posterior) {
	var dq, iq float64
	for j := range fv {
		dq += pdw[j] * fv[j]
		iq += pdt[j] * fv[j]
	}
	eq := alpha*dq + (1-alpha)*iq // E[q] over (d_w, d_t)

	// a1 = P(r | z=1, i=1) marginalized over d_w, d_t; a0 is the z=0 twin.
	a1 := eq
	if !r {
		a1 = 1 - eq
	}
	a0 := 1 - a1

	m10 := 0.5 * pz * (1 - pi)       // z=1, i=0
	m00 := 0.5 * (1 - pz) * (1 - pi) // z=0, i=0
	m11 := pz * pi * a1              // z=1, i=1
	m01 := (1 - pz) * pi * a0        // z=0, i=1
	z := m10 + m00 + m11 + m01
	if z <= 0 || math.IsNaN(z) {
		// Degenerate priors (e.g. pz exactly 0 with a contradicting
		// answer). Fall back to an uninformative posterior rather than
		// dividing by zero.
		out.z1 = pz
		out.i1 = pi
		copy(out.dw, pdw)
		copy(out.dt, pdt)
		out.lik = math.SmallestNonzeroFloat64
		return
	}

	out.lik = z
	out.z1 = (m10 + m11) / z
	out.i1 = (m11 + m01) / z

	// Marginal over d_w: P(j) ∝ pdw[j]·[0.5(1−pi) + pi·(pz·b1 + (1−pz)·(1−b1))]
	// where b1 = P(r | z=1, i=1, d_w=f_j) marginalized over d_t only.
	base := 0.5 * (1 - pi)
	for j := range fv {
		qj := alpha*fv[j] + (1-alpha)*iq
		b1 := qj
		if !r {
			b1 = 1 - qj
		}
		out.dw[j] = pdw[j] * (base + pi*(pz*b1+(1-pz)*(1-b1))) / z
	}
	for j := range fv {
		qj := alpha*dq + (1-alpha)*fv[j]
		c1 := qj
		if !r {
			c1 = 1 - qj
		}
		out.dt[j] = pdt[j] * (base + pi*(pz*c1+(1-pz)*(1-c1))) / z
	}
}

// pairDots returns the two dot products dq = Σ_j pdw[j]·fv[j] and
// iq = Σ_j pdt[j]·fv[j]. They depend only on the (worker, task) pair — not
// on the label or the vote — so the E-step computes them once per answer
// instead of once per label, dropping the per-answer cost from O(|F|·L) to
// O(|F| + L).
func pairDots(pdw, pdt, fv []float64) (dq, iq float64) {
	for j := range fv {
		dq += pdw[j] * fv[j]
		iq += pdt[j] * fv[j]
	}
	return dq, iq
}

// labelPosterior is the flattened per-(answer, label) E-step output: the
// scalar marginals plus the affine coefficients that reconstruct the d_w
// and d_t marginals from the pair's f-value vector:
//
//	P(d_w = f_j | r) = pdw[j]·(awA + awB·fv[j])
//	P(d_t = f_j | r) = pdt[j]·(atA + atB·fv[j])
//
// Because the coefficients are additive across labels, an answer's L labels
// contribute to the M-step's d_w/d_t sums through one O(|F|) pass over the
// summed coefficients rather than L separate O(|F|) marginal loops.
type labelPosterior struct {
	z1, i1, lik        float64
	awA, awB, atA, atB float64
}

// evalLabel evaluates the E-step for one label given the pair-level dot
// products from pairDots. It is the hot-path twin of computePosterior: the
// per-label work is O(1), with the O(|F|) marginal reconstruction deferred
// to the caller via the affine coefficients.
func evalLabel(r bool, pz, pi, alpha, dq, iq float64, out *labelPosterior) {
	eq := alpha*dq + (1-alpha)*iq
	a1 := eq
	if !r {
		a1 = 1 - eq
	}
	a0 := 1 - a1

	m10 := 0.5 * pz * (1 - pi)       // z=1, i=0
	m00 := 0.5 * (1 - pz) * (1 - pi) // z=0, i=0
	m11 := pz * pi * a1              // z=1, i=1
	m01 := (1 - pz) * pi * a0        // z=0, i=1
	z := m10 + m00 + m11 + m01
	if z <= 0 || math.IsNaN(z) {
		// Same degenerate-prior fallback as computePosterior: keep the
		// priors, which in coefficient form is the constant factor 1.
		out.z1, out.i1 = pz, pi
		out.awA, out.awB, out.atA, out.atB = 1, 0, 1, 0
		out.lik = math.SmallestNonzeroFloat64
		return
	}
	inv := 1 / z
	out.lik = z
	out.z1 = (m10 + m11) * inv
	out.i1 = (m11 + m01) * inv

	// The per-function likelihood b1 = P(r | z=1, i=1, d_w=f_j), with d_t
	// marginalized, is affine in fv[j]: b1 = b1c + s·α·fv[j] where s = ±1
	// flips for a "no" vote. The marginal's bracket
	// base + pi·(pz·b1 + (1−pz)·(1−b1)) rewrites as
	// base + pi·(1−pz) + pi·(2pz−1)·b1, so the whole marginal is affine in
	// fv[j] too. The d_t branch is symmetric with dq and 1−α.
	s, off := 1.0, 0.0
	if !r {
		s, off = -1, 1
	}
	base := 0.5 * (1 - pi)
	swing := pi * (2*pz - 1) * inv
	cons := (base + pi*(1-pz)) * inv
	out.awA = cons + swing*(off+s*(1-alpha)*iq)
	out.awB = swing * s * alpha
	out.atA = cons + swing*(off+s*alpha*dq)
	out.atB = swing * s * (1 - alpha)
}

// accumulators collects the M-step sufficient statistics: per-parameter sums
// of posterior marginals and their denominators (Equation 14).
type accumulators struct {
	zSum    [][]float64
	zCount  [][]float64
	iSum    []float64
	iCount  []float64
	dwSum   [][]float64
	dtSum   [][]float64
	dtCount []float64
	logLik  float64
}

func (f *Fork) newAccumulators() *accumulators {
	nf := f.cfg.FuncSet.Len()
	acc := &accumulators{
		zSum:    make([][]float64, len(f.tasks)),
		zCount:  make([][]float64, len(f.tasks)),
		iSum:    make([]float64, len(f.workers)),
		iCount:  make([]float64, len(f.workers)),
		dwSum:   make([][]float64, len(f.workers)),
		dtSum:   make([][]float64, len(f.tasks)),
		dtCount: make([]float64, len(f.tasks)),
	}
	for t := range f.tasks {
		acc.zSum[t] = make([]float64, len(f.tasks[t].Labels))
		acc.zCount[t] = make([]float64, len(f.tasks[t].Labels))
		acc.dtSum[t] = make([]float64, nf)
	}
	for w := range f.workers {
		acc.dwSum[w] = make([]float64, nf)
	}
	return acc
}

// reset zeroes acc for reuse across EM iterations, avoiding the per-
// iteration reallocation of O(|T|·|L|) slices that dominates at scale.
func (acc *accumulators) reset() {
	for t := range acc.zSum {
		zero(acc.zSum[t])
		zero(acc.zCount[t])
		zero(acc.dtSum[t])
	}
	zero(acc.iSum)
	zero(acc.iCount)
	for w := range acc.dwSum {
		zero(acc.dwSum[w])
	}
	zero(acc.dtCount)
	acc.logLik = 0
}

func zero(xs []float64) {
	for i := range xs {
		xs[i] = 0
	}
}

// accumulate runs the E-step for the i-th observed answer under params p
// and adds its posterior marginals into acc. The (worker, task) pair, vote
// bits, and f-values all come from flat answer-indexed stores; the two
// dot products are computed once for the pair, each label costs O(1), and
// one O(|F|) pass folds the summed affine coefficients into the d_w/d_t
// sums. It allocates nothing.
func (f *Fork) accumulate(i int, p *Params, acc *accumulators) {
	w, t := f.answers.Pair(i)
	votes := f.answers.Votes(i)
	fv := fvalsAt(f.afv, f.cfg.FuncSet.Len(), i)
	pdw, pdt := p.PDW[w], p.PDT[t]
	pi := p.PI[w]
	alpha := f.cfg.Alpha
	dq, iq := pairDots(pdw, pdt, fv)

	pz := p.PZ[t]
	zSum, zCount := acc.zSum[t], acc.zCount[t]
	var lp labelPosterior
	var iSum, awA, awB, atA, atB float64
	// One log per answer instead of per label: likelihoods multiply, so
	// the log is taken once over the product, with a flush whenever the
	// running product nears the subnormal range so it stays finite even
	// for degenerate (SmallestNonzeroFloat64) likelihoods.
	likProd := 1.0
	for k, r := range votes {
		evalLabel(r, pz[k], pi, alpha, dq, iq, &lp)
		zSum[k] += lp.z1
		zCount[k]++
		iSum += lp.i1
		awA += lp.awA
		awB += lp.awB
		atA += lp.atA
		atB += lp.atB
		if lp.lik < 1e-50 {
			// Near-denormal likelihood (degenerate-prior fallback): log it
			// directly so the running product cannot underflow to zero and
			// silently drop the pre-underflow mass.
			acc.logLik += math.Log(likProd) + math.Log(lp.lik)
			likProd = 1
		} else {
			likProd *= lp.lik
			if likProd < 1e-250 {
				// Flush well above the subnormal range: with lik >= 1e-50
				// the product stays a normal float, so the log is exact.
				acc.logLik += math.Log(likProd)
				likProd = 1
			}
		}
	}
	n := float64(len(votes))
	acc.iSum[w] += iSum
	acc.iCount[w] += n
	acc.dtCount[t] += n
	acc.logLik += math.Log(likProd)
	dwSum, dtSum := acc.dwSum[w], acc.dtSum[t]
	for j := range fv {
		dwSum[j] += pdw[j] * (awA + awB*fv[j])
		dtSum[j] += pdt[j] * (atA + atB*fv[j])
	}
}

// estimate converts accumulated statistics into the next parameter set,
// keeping the previous value wherever a parameter received no evidence
// (unanswered task, inactive worker). It writes into the caller-provided
// buffer so the M-step allocates nothing; Fit flips between two buffers.
func (f *Fork) estimate(next, prev *Params, acc *accumulators) {
	next.CopyFrom(prev)
	for t := range f.tasks {
		for k := range next.PZ[t] {
			if acc.zCount[t][k] > 0 {
				next.PZ[t][k] = f.cfg.blend(acc.zSum[t][k], acc.zCount[t][k], f.cfg.InitPZ)
			}
		}
		if acc.dtCount[t] > 0 {
			f.cfg.normalizeSmoothed(next.PDT[t], acc.dtSum[t])
		}
	}
	for w := range f.workers {
		if acc.iCount[w] > 0 {
			next.PI[w] = f.cfg.blend(acc.iSum[w], acc.iCount[w], f.cfg.InitPI)
			f.cfg.normalizeSmoothed(next.PDW[w], acc.dwSum[w])
		}
	}
}

// blend applies the MAP pseudo-count to a Bernoulli estimate: the posterior
// sum is mixed with Smoothing pseudo-observations at the prior value.
func (c *Config) blend(sum, count, prior float64) float64 {
	s := c.Smoothing
	return (sum + s*prior) / (count + s)
}

// normalizeSmoothed writes src, plus a symmetric Dirichlet pseudo-count of
// Smoothing split across the components, normalized to sum 1 into dst.
// A zero-sum unsmoothed source leaves dst untouched.
func (c *Config) normalizeSmoothed(dst, src []float64) {
	s := c.Smoothing
	var sum float64
	for _, v := range src {
		sum += v
	}
	if sum+s <= 0 {
		return
	}
	pseudo := s / float64(len(src))
	for j := range dst {
		dst[j] = (src[j] + pseudo) / (sum + s)
	}
}

// Fit runs the full EM of Section III-C over all observed answers until the
// maximum parameter change drops below Tol or MaxIter is reached. With
// Config.Parallelism > 1 the E-step fans out over that many goroutines.
func (m *Model) Fit() FitStats {
	//lint:ignore ctxflow context-free compat API; callers with deadlines use FitContext
	stats, _ := m.FitContext(context.Background())
	return stats
}

// FitContext is Fit with cooperative cancellation: the context is checked
// once per EM iteration, so a long fit over a large answer log can be
// abandoned between iterations. On cancellation the model keeps the
// parameters of the last completed iteration — a valid (if unconverged)
// estimate — and the context's error is returned alongside the stats
// accumulated so far. The fit runs in place: over the model's own evidence,
// rewriting the model's own parameters.
func (m *Model) FitContext(ctx context.Context) (FitStats, error) {
	f := m.inPlace()
	stats, err := f.FitContext(ctx)
	m.params = f.params
	return stats, err
}

// FitContext runs the full EM of Section III-C over the answers the fork
// sees, rewriting the fork's parameters; the model it was taken from is not
// touched until it adopts them. Cancellation is Model.FitContext's.
func (f *Fork) FitContext(ctx context.Context) (FitStats, error) {
	start := time.Now()
	stats := FitStats{}
	// f-values are resolved at Observe time into the flat answer-indexed
	// store, so both E-step paths are read-only over the shared evidence.
	parallel := f.cfg.Parallelism > 1 && f.answers.Len() >= 2*f.cfg.Parallelism
	var serialAcc *accumulators
	var pool *accPool
	if parallel {
		pool = f.newAccPool()
	} else {
		serialAcc = f.newAccumulators()
	}
	// Double-buffered parameters: each M-step writes into the spare buffer
	// and the two flip, so a fit allocates one extra parameter set total
	// instead of one per iteration.
	spare := f.params.Clone()
	for iter := 0; iter < f.cfg.MaxIter; iter++ {
		if err := ctx.Err(); err != nil {
			stats.Elapsed = time.Since(start)
			return stats, err
		}
		var acc *accumulators
		if parallel {
			acc = f.estepParallel(pool)
		} else {
			serialAcc.reset()
			acc = serialAcc
			for i := 0; i < f.answers.Len(); i++ {
				f.accumulate(i, f.params, acc)
			}
		}
		next := spare
		f.estimate(next, f.params, acc)
		delta := next.MaxDelta(f.params)
		spare = f.params
		f.params = next
		stats.Iterations++
		stats.DeltaTrace = append(stats.DeltaTrace, delta)
		stats.LogLikTrace = append(stats.LogLikTrace, acc.logLik)
		if delta < f.cfg.Tol {
			stats.Converged = true
			break
		}
	}
	stats.Elapsed = time.Since(start)
	return stats, nil
}

// accPool holds the per-goroutine accumulators a parallel fit reuses
// across iterations.
type accPool struct {
	accs  []*accumulators
	total *accumulators
}

func (f *Fork) newAccPool() *accPool {
	p := f.cfg.Parallelism
	pool := &accPool{
		accs:  make([]*accumulators, p),
		total: f.newAccumulators(),
	}
	for g := 0; g < p; g++ {
		pool.accs[g] = f.newAccumulators()
	}
	return pool
}

// estepParallel runs one E-step over all answers using Parallelism
// goroutines with per-goroutine accumulators, merged in chunk order so the
// result is deterministic for a fixed Parallelism.
func (f *Fork) estepParallel(pool *accPool) *accumulators {
	p := f.cfg.Parallelism
	n := f.answers.Len()
	chunk := (n + p - 1) / p
	var wg sync.WaitGroup
	used := 0
	for g := 0; g < p; g++ {
		lo := g * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		used++
		pool.accs[g].reset()
		wg.Add(1)
		go func(g, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				f.accumulate(i, f.params, pool.accs[g])
			}
		}(g, lo, hi)
	}
	wg.Wait()

	pool.total.reset()
	for g := 0; g < used; g++ {
		pool.total.merge(pool.accs[g])
	}
	return pool.total
}

// merge adds other's sufficient statistics into acc.
func (acc *accumulators) merge(other *accumulators) {
	for t := range acc.zSum {
		for k := range acc.zSum[t] {
			acc.zSum[t][k] += other.zSum[t][k]
			acc.zCount[t][k] += other.zCount[t][k]
		}
		for j := range acc.dtSum[t] {
			acc.dtSum[t][j] += other.dtSum[t][j]
		}
		acc.dtCount[t] += other.dtCount[t]
	}
	for w := range acc.iSum {
		acc.iSum[w] += other.iSum[w]
		acc.iCount[w] += other.iCount[w]
		for j := range acc.dwSum[w] {
			acc.dwSum[w][j] += other.dwSum[w][j]
		}
	}
	acc.logLik += other.logLik
}

// LogLikelihood returns the observed-data log-likelihood of all answers
// under the current parameters: Σ log P(r_{w,t,k}). Only the likelihood is
// needed, so the per-label O(|F|) marginal reconstruction is skipped
// entirely.
func (m *Model) LogLikelihood() float64 {
	var ll float64
	var lp labelPosterior
	for i := 0; i < m.answers.Len(); i++ {
		w, t := m.answers.Pair(i)
		dq, iq := pairDots(m.params.PDW[w], m.params.PDT[t], m.fvalsAt(i))
		pz := m.params.PZ[t]
		pi := m.params.PI[w]
		for k, r := range m.answers.Votes(i) {
			evalLabel(r, pz[k], pi, m.cfg.Alpha, dq, iq, &lp)
			ll += math.Log(lp.lik)
		}
	}
	return ll
}
