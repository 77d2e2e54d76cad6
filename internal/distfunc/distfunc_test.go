package distfunc

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFuncKnownValues(t *testing.T) {
	tests := []struct {
		lambda, d, want float64
	}{
		{100, 0, 1},        // any function is 1 at distance 0
		{0, 1, 1},          // λ=0 is the constant function 1
		{100, 1, 0.5},      // steep function bottoms out (e^-100 ≈ 0)
		{10, 1, 0.5000227}, // (1+e^-10)/2
		{0.1, 1, 0.9524187},
	}
	for _, tt := range tests {
		got := New(tt.lambda).Eval(tt.d)
		if math.Abs(got-tt.want) > 1e-6 {
			t.Errorf("f_%v(%v) = %v, want %v", tt.lambda, tt.d, got, tt.want)
		}
	}
}

func TestFuncClampsInput(t *testing.T) {
	f := New(10)
	if got := f.Eval(-0.5); got != f.Eval(0) {
		t.Errorf("Eval(-0.5) = %v, want Eval(0) = %v", got, f.Eval(0))
	}
	if got := f.Eval(2); got != f.Eval(1) {
		t.Errorf("Eval(2) = %v, want Eval(1) = %v", got, f.Eval(1))
	}
}

// The paper's Definition 3 requires f_λ(d) ∈ [0.5, 1].
func TestFuncRangeProperty(t *testing.T) {
	f := func(lambda, d float64) bool {
		if lambda < 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
			return true
		}
		v := New(lambda).Eval(d)
		return v >= 0.5 && v <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Quality must not increase with distance.
func TestFuncMonotoneInDistance(t *testing.T) {
	f := func(d1, d2 float64) bool {
		if math.IsNaN(d1) || math.IsNaN(d2) {
			return true
		}
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		fn := New(10)
		return fn.Eval(d1) >= fn.Eval(d2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// At a fixed positive distance, a larger λ gives lower quality.
func TestFuncMonotoneInLambda(t *testing.T) {
	d := 0.3
	prev := New(0.01).Eval(d)
	for _, l := range []float64{0.1, 1, 10, 100, 1000} {
		cur := New(l).Eval(d)
		if cur > prev {
			t.Errorf("f_%v(%v) = %v > f of smaller lambda %v", l, d, cur, prev)
		}
		prev = cur
	}
}

func TestNewRejectsNegativeLambda(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestNewSetOrdering(t *testing.T) {
	s, err := NewSet(10, 100, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{100, 10, 0.1}
	got := s.Lambdas()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Lambdas = %v, want %v (sorted descending)", got, want)
			break
		}
	}
	if s.WidestIndex() != 2 {
		t.Errorf("WidestIndex = %d, want 2", s.WidestIndex())
	}
	if widest := s.Func(s.WidestIndex()); widest.Lambda != 0.1 {
		t.Errorf("widest function = %v, want bell with lambda 0.1", s.Func(s.WidestIndex()))
	}
}

func TestNewSetErrors(t *testing.T) {
	if _, err := NewSet(); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := NewSet(1, 1); err == nil {
		t.Error("duplicate lambdas accepted")
	}
	if _, err := NewSet(5, -2); err == nil {
		t.Error("negative lambda accepted")
	}
}

func TestMustSetPanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSet with duplicates did not panic")
		}
	}()
	MustSet(3, 3)
}

func TestPaperSet(t *testing.T) {
	s := PaperSet()
	if s.Len() != 3 {
		t.Fatalf("PaperSet has %d functions, want 3", s.Len())
	}
	want := []float64{100, 10, 0.1}
	for i, l := range s.Lambdas() {
		if l != want[i] {
			t.Errorf("PaperSet lambda %d = %v, want %v", i, l, want[i])
		}
	}
}

func TestSetEval(t *testing.T) {
	s := PaperSet()
	v := s.Eval(0.2, nil)
	if len(v) != 3 {
		t.Fatalf("Eval returned %d values", len(v))
	}
	for i := 0; i < 3; i++ {
		if want := s.Func(i).Eval(0.2); v[i] != want {
			t.Errorf("Eval[%d] = %v, want %v", i, v[i], want)
		}
	}
	// Buffer reuse.
	buf := make([]float64, 3)
	v2 := s.Eval(0.2, buf)
	if &v2[0] != &buf[0] {
		t.Error("Eval did not reuse the provided buffer")
	}
}

func TestMixtureUniformAveragesFunctions(t *testing.T) {
	s := PaperSet()
	d := 0.35
	want := (s.Func(0).Eval(d) + s.Func(1).Eval(d) + s.Func(2).Eval(d)) / 3
	got := s.Mixture(s.Uniform(), d)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("uniform mixture = %v, want %v", got, want)
	}
}

func TestMixtureDeltaSelectsFunction(t *testing.T) {
	s := PaperSet()
	for i := 0; i < s.Len(); i++ {
		got := s.Mixture(s.Delta(i), 0.4)
		want := s.Func(i).Eval(0.4)
		if got != want {
			t.Errorf("delta(%d) mixture = %v, want %v", i, got, want)
		}
	}
}

// A probability-weighted mixture of functions in [0.5, 1] stays in [0.5, 1].
func TestMixtureRangeProperty(t *testing.T) {
	s := PaperSet()
	f := func(a, b, c uint8, d float64) bool {
		if math.IsNaN(d) {
			return true
		}
		total := float64(a) + float64(b) + float64(c)
		if total == 0 {
			return true
		}
		w := []float64{float64(a) / total, float64(b) / total, float64(c) / total}
		v := s.Mixture(w, d)
		return v >= 0.5-1e-12 && v <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMixtureWrongLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Mixture with wrong weight length did not panic")
		}
	}()
	PaperSet().Mixture([]float64{1, 0}, 0.5)
}

func TestDeltaOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Delta(5) did not panic")
		}
	}()
	PaperSet().Delta(5)
}

func TestUniformSumsToOne(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7} {
		lambdas := make([]float64, n)
		for i := range lambdas {
			lambdas[i] = float64(i + 1)
		}
		s := MustSet(lambdas...)
		var sum float64
		for _, w := range s.Uniform() {
			sum += w
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("Uniform over %d functions sums to %v", n, sum)
		}
	}
}
