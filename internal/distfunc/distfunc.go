// Package distfunc implements the paper's distance-quality machinery:
// bell-shaped functions f_λ (Definition 3), the distance-function set F
// (Definition 4), and the mixture qualities built on top of it — the
// distance-aware worker quality DQ (Definition 5) and the POI influence IQ
// (Definition 6).
//
// A bell-shaped function maps a normalized distance d ∈ [0,1] to a quality
// in [0.5, 1]:
//
//	f_λ(d) = (1 + exp(-λ·d²)) / 2
//
// λ controls how fast quality decays with distance: λ=100 reaches the
// random-guess floor of 0.5 by d≈0.2, while λ=0.1 stays above 0.9 across
// the whole unit interval (paper Figure 4). The floor is 0.5 because the
// worst a binary worker can do is answer at random.
package distfunc

import (
	"fmt"
	"math"
	"sort"
)

// Func is a bell-shaped distance-quality function with a fixed decay
// parameter λ.
type Func struct {
	Lambda float64
}

// New returns the bell-shaped function f_λ.
// It panics if λ is negative; λ=0 gives the constant function 1.
func New(lambda float64) Func {
	if lambda < 0 {
		panic(fmt.Sprintf("distfunc: negative lambda %v", lambda))
	}
	return Func{Lambda: lambda}
}

// Eval returns f_λ(d) = (1 + e^(−λd²)) / 2 for a normalized distance d.
// Inputs outside [0, 1] are clamped, matching the normalizer contract.
func (f Func) Eval(d float64) float64 {
	if d < 0 {
		d = 0
	} else if d > 1 {
		d = 1
	}
	return (1 + math.Exp(-f.Lambda*d*d)) / 2
}

// String implements fmt.Stringer.
func (f Func) String() string { return fmt.Sprintf("f(λ=%g)", f.Lambda) }

// Set is the distance-function set F of Definition 4: a fixed family of
// bell-shaped functions over which worker sensitivity (d_w) and POI
// influence (d_t) are multinomial distributions.
//
// The set is sorted from most to least distance-sensitive, so index 0 is
// the steepest function and index len-1 the widest-reaching one. That
// ordering gives "last index = widest reach", which the assignment module
// relies on when it grants unseen workers and tasks the most optimistic
// prior (P(d = f_minλ) = 1, paper Section IV-B footnote 3).
type Set struct {
	funcs []Func
}

// NewSet builds a bell-shaped Set from the given λ values, sorted by
// decreasing λ. The paper's experiments use λ ∈ {0.1, 10, 100}. Duplicates
// are rejected because they would make the multinomial over F
// unidentifiable.
func NewSet(lambdas ...float64) (*Set, error) {
	if len(lambdas) == 0 {
		return nil, fmt.Errorf("distfunc: empty function set")
	}
	sorted := append([]float64(nil), lambdas...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	funcs := make([]Func, len(sorted))
	for i, l := range sorted {
		if l < 0 {
			return nil, fmt.Errorf("distfunc: negative lambda %v", l)
		}
		if i > 0 && sorted[i-1] == l {
			return nil, fmt.Errorf("distfunc: duplicate lambda %v", l)
		}
		funcs[i] = New(l)
	}
	return &Set{funcs: funcs}, nil
}

// MustSet is NewSet but panics on error, for use with constant λ lists.
func MustSet(lambdas ...float64) *Set {
	s, err := NewSet(lambdas...)
	if err != nil {
		panic(err)
	}
	return s
}

// PaperSet returns the distance-function set used throughout the paper's
// experiments: F = {f100, f10, f0.1}.
func PaperSet() *Set { return MustSet(100, 10, 0.1) }

// Len returns |F|.
func (s *Set) Len() int { return len(s.funcs) }

// Func returns the i-th function (ordered from steepest to widest).
func (s *Set) Func(i int) Func { return s.funcs[i] }

// Lambdas returns the λ values by decreasing magnitude.
func (s *Set) Lambdas() []float64 {
	out := make([]float64, len(s.funcs))
	for i, f := range s.funcs {
		out[i] = f.Lambda
	}
	return out
}

// WidestIndex returns the index of the function least sensitive to
// distance (the smallest λ). It is the optimistic prior used for unseen
// workers and high-influence POIs.
func (s *Set) WidestIndex() int { return len(s.funcs) - 1 }

// Eval returns the vector [f_1(d), ..., f_|F|(d)], reusing dst when it has
// sufficient capacity.
func (s *Set) Eval(d float64, dst []float64) []float64 {
	if cap(dst) < len(s.funcs) {
		dst = make([]float64, len(s.funcs))
	}
	dst = dst[:len(s.funcs)]
	for i, f := range s.funcs {
		dst[i] = f.Eval(d)
	}
	return dst
}

// Mixture returns Σ_i weights[i]·f_i(d), the common form of both DQ
// (Definition 5) and IQ (Definition 6). weights must have length |F|; it is
// not required to be normalized here, but every caller in this repository
// passes a probability vector.
func (s *Set) Mixture(weights []float64, d float64) float64 {
	if len(weights) != len(s.funcs) {
		panic(fmt.Sprintf("distfunc: weight vector length %d != |F| %d", len(weights), len(s.funcs)))
	}
	var q float64
	for i, f := range s.funcs {
		q += weights[i] * f.Eval(d)
	}
	return q
}

// Uniform returns the uniform distribution over F, the EM starting point.
func (s *Set) Uniform() []float64 {
	w := make([]float64, len(s.funcs))
	for i := range w {
		w[i] = 1 / float64(len(s.funcs))
	}
	return w
}

// Delta returns the distribution placing all mass on function index i.
func (s *Set) Delta(i int) []float64 {
	if i < 0 || i >= len(s.funcs) {
		panic(fmt.Sprintf("distfunc: delta index %d out of range [0,%d)", i, len(s.funcs)))
	}
	w := make([]float64, len(s.funcs))
	w[i] = 1
	return w
}

// Names returns the display names of the set's functions in order.
func (s *Set) Names() []string {
	out := make([]string, len(s.funcs))
	for i, f := range s.funcs {
		out[i] = f.String()
	}
	return out
}
