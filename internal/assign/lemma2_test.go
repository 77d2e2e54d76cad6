package assign

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"poilabel/internal/model"
)

// The Lemma 2 recursion as the paper writes it (Section IV-B), kept as the
// reference the closed form (lemma2Delta) is tested against: every estimate
// is an expectation over the unknown truth z_{t,k}, tracked as a pair of
// branches —
//
//	acc1 — the estimated accuracy assuming z_{t,k} ≡ 1 (starts at P(z=1))
//	acc0 — the estimated accuracy assuming z_{t,k} ≡ 0 (starts at P(z=0))
//
// — each extended by one worker with agreement probability p per step.

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

// SingleDelta is the Equation 20 improvement of the bundle la ∪ {worker with
// agreement p}, computed without mutating or copying la.
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

// deltaTol is the one tolerance between lemma2Delta and the recursion: an
// improvement may differ from the reference by at most deltaTol of
// max(|reference|, 1e-3). The two are the same arithmetic in different
// orders; the recursion's rounding over up to eight steps and eight labels
// reaches about 1e-15 absolute, which TestLemma2ClosedFormMatchesRecursion
// logs as a worst relative difference of about 1.3e-12 against the floor.
// The floor keeps near-zero improvements from turning those ulps into a
// large relative error.
const deltaTol = 1e-11

// deltaClose reports whether got is within deltaTol of the reference want.
func deltaClose(got, want float64) bool {
	return math.Abs(got-want) <= deltaTol*math.Max(math.Abs(want), 1e-3)
}

// TestLemma2ClosedFormMatchesRecursion is the closed form's property test:
// on random task states — n ≤ 30 answers, L ≤ 8 labels, P(z) drawn from
// each table row's distribution — and bundles grown one random worker at a
// time to m = 8, lemma2Delta agrees with the recursion within deltaTol on
// the bundle's improvement and on every marginal refresh the greedy makes,
// Δ(m+1, r + p(1−p)) − Δ(m, r) against SingleDelta − Delta.
func TestLemma2ClosedFormMatchesRecursion(t *testing.T) {
	cases := []struct {
		name string
		z    func(*rand.Rand) float64 // one label's P(z = 1)
		p    func(*rand.Rand) float64 // one worker's agreement probability
	}{
		{"uniform", (*rand.Rand).Float64, (*rand.Rand).Float64},
		{"settled labels", func(r *rand.Rand) float64 { return float64(r.Intn(2)) + (0.5-float64(r.Intn(2)))*1e-3*r.Float64() }, (*rand.Rand).Float64},
		{"uncertain labels", func(r *rand.Rand) float64 { return 0.5 + 0.02*(r.Float64()-0.5) }, (*rand.Rand).Float64},
		{"good workers", (*rand.Rand).Float64, func(r *rand.Rand) float64 { return 0.5 + 0.5*r.Float64() }},
		{"coin-flip workers", (*rand.Rand).Float64, func(r *rand.Rand) float64 { return 0.5 + 1e-3*(r.Float64()-0.5) }},
	}
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + ci)))
			worst := 0.0
			for trial := 0; trial < 2000; trial++ {
				n, labels := rng.Intn(31), 1+rng.Intn(8)
				pz := make([]float64, labels)
				for k := range pz {
					pz[k] = c.z(rng)
				}
				la := &LabelAcc{Acc1: slices.Clone(pz), Acc0: make([]float64, labels), N: n}
				for k, z := range pz {
					la.Acc0[k] = 1 - z
				}
				u, l := spread(pz), float64(labels)
				check := func(what string, m int, got, want float64) {
					t.Helper()
					if !deltaClose(got, want) {
						t.Fatalf("trial %d, n=%d L=%d, %s at m=%d: closed form %v, recursion %v", trial, n, labels, what, m, got, want)
					}
					worst = max(worst, math.Abs(got-want)/math.Max(math.Abs(want), 1e-3))
				}
				var b bundle
				for b.m < 8 {
					p := c.p(rng)
					var base float64
					if b.m > 0 {
						base = lemma2Delta(u, l, n, b.m, b.r)
					}
					check("refresh", b.m, lemma2Delta(u, l, n, b.m+1, b.r+p*(1-p))-base, la.SingleDelta(pz, p)-la.Delta(pz))
					la.Extend(p)
					b.m++
					b.r += p * (1 - p)
					check("bundle", b.m, lemma2Delta(u, l, n, b.m, b.r), la.Delta(pz))
				}
			}
			t.Logf("worst relative difference %.2g (bound %g)", worst, deltaTol)
		})
	}
}
