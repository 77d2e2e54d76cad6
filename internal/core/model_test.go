package core_test

import (
	"math"
	"math/rand"
	"testing"

	"poilabel/internal/core"
	"poilabel/internal/distfunc"
	"poilabel/internal/geo"
	"poilabel/internal/model"
)

// fixture builds a small world: nTasks tasks with nLabels labels on a 10x10
// plane, nWorkers workers, and a deterministic truth assignment.
type fixture struct {
	tasks   []model.Task
	workers []model.Worker
	truth   [][]bool
	norm    geo.Normalizer
}

func newFixture(nTasks, nLabels, nWorkers int, seed int64) *fixture {
	rng := rand.New(rand.NewSource(seed))
	f := &fixture{}
	var pts []geo.Point
	for i := 0; i < nTasks; i++ {
		loc := geo.Pt(rng.Float64()*10, rng.Float64()*10)
		labels := make([]string, nLabels)
		truthRow := make([]bool, nLabels)
		for k := range labels {
			labels[k] = "l"
			truthRow[k] = rng.Intn(2) == 0
		}
		f.tasks = append(f.tasks, model.Task{ID: model.TaskID(i), Name: "t", Location: loc, Labels: labels})
		f.truth = append(f.truth, truthRow)
		pts = append(pts, loc)
	}
	for i := 0; i < nWorkers; i++ {
		loc := geo.Pt(rng.Float64()*10, rng.Float64()*10)
		f.workers = append(f.workers, model.Worker{ID: model.WorkerID(i), Name: "w", Locations: []geo.Point{loc}})
		pts = append(pts, loc)
	}
	f.norm = geo.NormalizerFor(pts)
	return f
}

func (f *fixture) model(t *testing.T, cfg core.Config) *core.Model {
	t.Helper()
	m, err := core.NewModel(f.tasks, f.workers, f.norm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// answerAs generates an answer whose per-label correctness is Bernoulli(p).
func (f *fixture) answerAs(w model.WorkerID, task model.TaskID, p float64, rng *rand.Rand) model.Answer {
	row := f.truth[task]
	sel := make([]bool, len(row))
	for k := range sel {
		if rng.Float64() < p {
			sel[k] = row[k]
		} else {
			sel[k] = !row[k]
		}
	}
	return model.Answer{Worker: w, Task: task, Selected: sel}
}

func TestNewModelValidation(t *testing.T) {
	f := newFixture(2, 3, 2, 1)
	good := core.DefaultConfig()

	if _, err := core.NewModel(nil, f.workers, f.norm, good); err == nil {
		t.Error("no tasks accepted")
	}
	if _, err := core.NewModel(f.tasks, nil, f.norm, good); err == nil {
		t.Error("no workers accepted")
	}

	bad := []core.Config{
		{Alpha: -0.1, FuncSet: good.FuncSet, Tol: 0.01, MaxIter: 5, InitPI: 0.7, InitPZ: 0.5, IncrementalSweeps: 1},
		{Alpha: 0.5, FuncSet: nil, Tol: 0.01, MaxIter: 5, InitPI: 0.7, InitPZ: 0.5, IncrementalSweeps: 1},
		{Alpha: 0.5, FuncSet: good.FuncSet, Tol: 0, MaxIter: 5, InitPI: 0.7, InitPZ: 0.5, IncrementalSweeps: 1},
		{Alpha: 0.5, FuncSet: good.FuncSet, Tol: 0.01, MaxIter: 0, InitPI: 0.7, InitPZ: 0.5, IncrementalSweeps: 1},
		{Alpha: 0.5, FuncSet: good.FuncSet, Tol: 0.01, MaxIter: 5, InitPI: 1, InitPZ: 0.5, IncrementalSweeps: 1},
		{Alpha: 0.5, FuncSet: good.FuncSet, Tol: 0.01, MaxIter: 5, InitPI: 0.7, InitPZ: 0, IncrementalSweeps: 1},
		{Alpha: 0.5, FuncSet: good.FuncSet, Tol: 0.01, MaxIter: 5, InitPI: 0.7, InitPZ: 0.5, IncrementalSweeps: 0},
		{Alpha: 0.5, FuncSet: good.FuncSet, Tol: 0.01, MaxIter: 5, InitPI: 0.7, InitPZ: 0.5, IncrementalSweeps: 1, Smoothing: -1},
	}
	for i, cfg := range bad {
		if _, err := core.NewModel(f.tasks, f.workers, f.norm, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestObserveValidation(t *testing.T) {
	f := newFixture(2, 3, 2, 2)
	m := f.model(t, core.DefaultConfig())

	if err := m.Observe(model.Answer{Worker: 0, Task: 5, Selected: []bool{true, true, true}}); err == nil {
		t.Error("unknown task accepted")
	}
	if err := m.Observe(model.Answer{Worker: 9, Task: 0, Selected: []bool{true, true, true}}); err == nil {
		t.Error("unknown worker accepted")
	}
	if err := m.Observe(model.Answer{Worker: 0, Task: 0, Selected: []bool{true}}); err == nil {
		t.Error("wrong vote count accepted")
	}
	good := model.Answer{Worker: 0, Task: 0, Selected: []bool{true, false, true}}
	if err := m.Observe(good); err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
	if err := m.Observe(good); err == nil {
		t.Error("duplicate answer accepted")
	}
}

func TestInitialParamsValid(t *testing.T) {
	f := newFixture(3, 4, 3, 3)
	m := f.model(t, core.DefaultConfig())
	if err := m.Params().Validate(); err != nil {
		t.Errorf("initial parameters invalid: %v", err)
	}
}

func TestFitKeepsParamsValid(t *testing.T) {
	f := newFixture(10, 5, 6, 4)
	rng := rand.New(rand.NewSource(5))
	m := f.model(t, core.DefaultConfig())
	for ti := range f.tasks {
		for wi := 0; wi < 3; wi++ {
			w := model.WorkerID((ti + wi) % len(f.workers))
			if err := m.Observe(f.answerAs(w, model.TaskID(ti), 0.8, rng)); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.Fit()
	if err := m.Params().Validate(); err != nil {
		t.Errorf("post-fit parameters invalid: %v", err)
	}
}

// EM must never decrease the observed-data log-likelihood. This is the
// textbook EM guarantee; the MAP smoothing is small enough not to break it
// on this data.
func TestFitLogLikelihoodMonotone(t *testing.T) {
	f := newFixture(20, 5, 8, 6)
	rng := rand.New(rand.NewSource(7))
	cfg := core.DefaultConfig()
	cfg.Smoothing = 0 // pure Equation 14, exact EM
	m := f.model(t, cfg)
	for ti := range f.tasks {
		for wi := 0; wi < 4; wi++ {
			w := model.WorkerID((ti*3 + wi) % len(f.workers))
			if err := m.Observe(f.answerAs(w, model.TaskID(ti), 0.75, rng)); err != nil {
				t.Fatal(err)
			}
		}
	}
	stats := m.Fit()
	for i := 1; i < len(stats.LogLikTrace); i++ {
		if stats.LogLikTrace[i] < stats.LogLikTrace[i-1]-1e-7 {
			t.Fatalf("log-likelihood decreased at iteration %d: %v -> %v",
				i, stats.LogLikTrace[i-1], stats.LogLikTrace[i])
		}
	}
	if len(stats.DeltaTrace) != stats.Iterations {
		t.Errorf("DeltaTrace has %d entries for %d iterations", len(stats.DeltaTrace), stats.Iterations)
	}
}

// With consistent high-quality answers the model must recover the truth.
func TestFitRecoversTruthFromGoodAnswers(t *testing.T) {
	f := newFixture(15, 6, 5, 8)
	rng := rand.New(rand.NewSource(9))
	m := f.model(t, core.DefaultConfig())
	for ti := range f.tasks {
		for wi := 0; wi < len(f.workers); wi++ {
			if err := m.Observe(f.answerAs(model.WorkerID(wi), model.TaskID(ti), 0.95, rng)); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.Fit()
	res := m.Result()
	truth := &model.GroundTruth{Truth: f.truth}
	if acc := model.Accuracy(res, truth); acc < 0.97 {
		t.Errorf("accuracy on near-perfect answers = %v, want >= 0.97", acc)
	}
}

// A spammer answering at random must end with lower estimated quality than
// a reliable worker. Identifiability caveat: a far-away spammer is
// indistinguishable from a qualified but extremely distance-sensitive
// worker (both predict 0.5 agreement), so this test co-locates the workers
// with the tasks — at distance ~0 every distance function gives quality 1,
// and only the inherent quality i_w can explain random answers.
func TestFitSeparatesWorkerQuality(t *testing.T) {
	const spammer = 4
	f := newFixture(30, 8, 5, 10)
	// Co-locate all workers with all tasks.
	for wi := range f.workers {
		f.workers[wi].Locations = []geo.Point{f.tasks[0].Location}
	}
	for ti := range f.tasks {
		f.tasks[ti].Location = f.tasks[0].Location
	}
	rng := rand.New(rand.NewSource(11))
	m := f.model(t, core.DefaultConfig())
	for ti := range f.tasks {
		for wi := 0; wi < spammer; wi++ {
			if err := m.Observe(f.answerAs(model.WorkerID(wi), model.TaskID(ti), 0.95, rng)); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Observe(f.answerAs(spammer, model.TaskID(ti), 0.5, rng)); err != nil {
			t.Fatal(err)
		}
	}
	m.Fit()
	good, bad := m.WorkerQuality(0), m.WorkerQuality(spammer)
	if good <= bad {
		t.Errorf("qualities: good worker %v <= spammer %v", good, bad)
	}
	if good < 0.8 {
		t.Errorf("good worker quality = %v, want >= 0.8", good)
	}
	if bad > 0.6 {
		t.Errorf("spammer quality = %v, want <= 0.6", bad)
	}
	// The identifiable quantity regardless of geometry is the agreement
	// probability: the spammer's must sit near the 0.5 floor.
	var spamAgree, goodAgree float64
	for ti := range f.tasks {
		spamAgree += m.AgreementProb(spammer, model.TaskID(ti))
		goodAgree += m.AgreementProb(0, model.TaskID(ti))
	}
	spamAgree /= float64(len(f.tasks))
	goodAgree /= float64(len(f.tasks))
	if spamAgree > 0.65 {
		t.Errorf("spammer mean agreement = %v, want <= 0.65", spamAgree)
	}
	if goodAgree < 0.8 {
		t.Errorf("good worker mean agreement = %v, want >= 0.8", goodAgree)
	}
}

func TestAgreementProbFormula(t *testing.T) {
	f := newFixture(2, 3, 2, 12)
	cfg := core.DefaultConfig()
	m := f.model(t, cfg)
	w, task := model.WorkerID(0), model.TaskID(1)
	d := m.Distance(w, task)
	p := m.Params()
	dq := cfg.FuncSet.Mixture(p.PDW[w], d)
	iq := cfg.FuncSet.Mixture(p.PDT[task], d)
	want := 0.5*(1-p.PI[w]) + p.PI[w]*(cfg.Alpha*dq+(1-cfg.Alpha)*iq)
	if got := m.AgreementProb(w, task); math.Abs(got-want) > 1e-12 {
		t.Errorf("AgreementProb = %v, want %v (Equation 9)", got, want)
	}
}

func TestAgreementProbBounds(t *testing.T) {
	f := newFixture(10, 3, 5, 13)
	rng := rand.New(rand.NewSource(14))
	m := f.model(t, core.DefaultConfig())
	for ti := 0; ti < 10; ti++ {
		w := model.WorkerID(ti % 5)
		if err := m.Observe(f.answerAs(w, model.TaskID(ti), 0.7, rng)); err != nil {
			t.Fatal(err)
		}
	}
	m.Fit()
	for wi := range f.workers {
		for ti := range f.tasks {
			p := m.AgreementProb(model.WorkerID(wi), model.TaskID(ti))
			if p < 0.5-1e-9 || p > 1+1e-9 {
				t.Fatalf("AgreementProb(%d,%d) = %v outside [0.5, 1]", wi, ti, p)
			}
		}
	}
}

func TestResultThreshold(t *testing.T) {
	f := newFixture(4, 3, 2, 15)
	m := f.model(t, core.DefaultConfig())
	res := m.Result()
	for ti := range res.Prob {
		for k := range res.Prob[ti] {
			want := res.Prob[ti][k] >= 0.5
			if res.Inferred[ti][k] != want {
				t.Fatalf("Inferred[%d][%d] inconsistent with Prob %v", ti, k, res.Prob[ti][k])
			}
		}
	}
}

func TestReset(t *testing.T) {
	f := newFixture(5, 3, 3, 16)
	rng := rand.New(rand.NewSource(17))
	m := f.model(t, core.DefaultConfig())
	for ti := 0; ti < 5; ti++ {
		if err := m.Observe(f.answerAs(0, model.TaskID(ti), 0.9, rng)); err != nil {
			t.Fatal(err)
		}
	}
	m.Fit()
	m.Reset()
	if m.Answers().Len() != 0 {
		t.Error("Reset kept answers")
	}
	cfg := m.Config()
	if q := m.WorkerQuality(0); q != cfg.InitPI {
		t.Errorf("Reset quality = %v, want InitPI %v", q, cfg.InitPI)
	}
	// After reset the same answer can be observed again.
	if err := m.Observe(f.answerAs(0, 0, 0.9, rng)); err != nil {
		t.Errorf("Observe after Reset failed: %v", err)
	}
}

func TestDistanceCachedAndNormalized(t *testing.T) {
	f := newFixture(4, 2, 3, 18)
	m := f.model(t, core.DefaultConfig())
	for wi := range f.workers {
		for ti := range f.tasks {
			d1 := m.Distance(model.WorkerID(wi), model.TaskID(ti))
			d2 := m.Distance(model.WorkerID(wi), model.TaskID(ti))
			if d1 != d2 {
				t.Fatal("Distance not stable across calls")
			}
			if d1 < 0 || d1 > 1 {
				t.Fatalf("Distance %v outside [0,1]", d1)
			}
			want := f.norm.MinDistance(f.workers[wi].Locations, f.tasks[ti].Location)
			if d1 != want {
				t.Fatalf("Distance = %v, want %v", d1, want)
			}
		}
	}
}

func TestFitConvergesOnSmallData(t *testing.T) {
	f := newFixture(8, 4, 4, 19)
	rng := rand.New(rand.NewSource(20))
	cfg := core.DefaultConfig()
	cfg.MaxIter = 500
	m := f.model(t, cfg)
	for ti := range f.tasks {
		for wi := range f.workers {
			if err := m.Observe(f.answerAs(model.WorkerID(wi), model.TaskID(ti), 0.85, rng)); err != nil {
				t.Fatal(err)
			}
		}
	}
	stats := m.Fit()
	if !stats.Converged {
		t.Errorf("EM did not converge in %d iterations (final delta %v)",
			stats.Iterations, stats.DeltaTrace[len(stats.DeltaTrace)-1])
	}
}

func TestDistanceAwareQualityUsesFunctionSet(t *testing.T) {
	f := newFixture(2, 2, 2, 21)
	cfg := core.DefaultConfig()
	cfg.FuncSet = distfunc.MustSet(50, 1)
	m := f.model(t, cfg)
	// Uniform initial weights: DQ(d) must equal the set average.
	d := 0.3
	want := (distfunc.New(50).Eval(d) + distfunc.New(1).Eval(d)) / 2
	if got := m.DistanceAwareQuality(0, d); math.Abs(got-want) > 1e-12 {
		t.Errorf("DistanceAwareQuality = %v, want %v", got, want)
	}
	if got := m.POIInfluenceQuality(0, d); math.Abs(got-want) > 1e-12 {
		t.Errorf("POIInfluenceQuality = %v, want %v", got, want)
	}
}

func TestLogLikelihoodFinite(t *testing.T) {
	f := newFixture(6, 4, 3, 22)
	rng := rand.New(rand.NewSource(23))
	m := f.model(t, core.DefaultConfig())
	for ti := range f.tasks {
		if err := m.Observe(f.answerAs(1, model.TaskID(ti), 0.7, rng)); err != nil {
			t.Fatal(err)
		}
	}
	m.Fit()
	ll := m.LogLikelihood()
	if math.IsNaN(ll) || math.IsInf(ll, 0) || ll > 0 {
		t.Errorf("LogLikelihood = %v, want finite negative", ll)
	}
}

// Tasks with different numbers of candidate labels must flow through the
// whole pipeline (the paper: "our method can support the case that
// different tasks have different number of labels").
func TestFitWithHeterogeneousLabelCounts(t *testing.T) {
	f := newFixture(10, 4, 4, 72)
	// Rewrite tasks to varied label widths.
	for ti := range f.tasks {
		n := 2 + ti%5
		f.tasks[ti].Labels = make([]string, n)
		f.truth[ti] = f.truth[ti][:0]
		for k := 0; k < n; k++ {
			f.truth[ti] = append(f.truth[ti], (ti+k)%2 == 0)
		}
	}
	rng := rand.New(rand.NewSource(73))
	m := f.model(t, core.DefaultConfig())
	for ti := range f.tasks {
		for wi := range f.workers {
			if err := m.Observe(f.answerAs(model.WorkerID(wi), model.TaskID(ti), 0.9, rng)); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.Fit()
	if err := m.Params().Validate(); err != nil {
		t.Fatalf("heterogeneous-label fit invalid: %v", err)
	}
	res := m.Result()
	for ti := range f.tasks {
		if len(res.Inferred[ti]) != len(f.tasks[ti].Labels) {
			t.Fatalf("task %d result width %d, want %d", ti, len(res.Inferred[ti]), len(f.tasks[ti].Labels))
		}
	}
	truth := &model.GroundTruth{Truth: f.truth}
	if acc := model.Accuracy(res, truth); acc < 0.85 {
		t.Errorf("heterogeneous-label accuracy = %v", acc)
	}
}

// Parallel EM must agree with serial EM up to floating-point merge order.
func TestFitParallelMatchesSerial(t *testing.T) {
	f := newFixture(30, 6, 8, 80)
	rng := rand.New(rand.NewSource(81))
	var answers []model.Answer
	for ti := range f.tasks {
		for wi := 0; wi < 5; wi++ {
			w := model.WorkerID((ti + wi) % len(f.workers))
			answers = append(answers, f.answerAs(w, model.TaskID(ti), 0.8, rng))
		}
	}

	run := func(parallelism int) *core.Params {
		cfg := core.DefaultConfig()
		cfg.MaxIter = 30
		cfg.Parallelism = parallelism
		m := f.model(t, cfg)
		for _, a := range answers {
			if err := m.Observe(a); err != nil {
				t.Fatal(err)
			}
		}
		m.Fit()
		return m.Params()
	}

	serial := run(0)
	for _, p := range []int{2, 4, 7} {
		parallel := run(p)
		if d := serial.MaxDelta(parallel); d > 1e-9 {
			t.Errorf("parallelism %d diverged from serial by %v", p, d)
		}
	}
	// Determinism at fixed parallelism.
	if d := run(4).MaxDelta(run(4)); d != 0 {
		t.Error("parallel fit not deterministic for fixed parallelism")
	}
}

func TestConfigRejectsNegativeParallelism(t *testing.T) {
	f := newFixture(2, 2, 2, 82)
	cfg := core.DefaultConfig()
	cfg.Parallelism = -1
	if _, err := core.NewModel(f.tasks, f.workers, f.norm, cfg); err == nil {
		t.Error("negative parallelism accepted")
	}
}
