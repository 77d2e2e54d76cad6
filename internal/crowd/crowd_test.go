package crowd

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"poilabel/internal/dataset"
	"poilabel/internal/geo"
	"poilabel/internal/model"
)

func testData() *dataset.Dataset {
	return dataset.Generate(dataset.Config{Name: "test", NumTasks: 40, LabelsPerTask: 5}, 1)
}

func testPopulation(t *testing.T, d *dataset.Dataset, seed int64) ([]model.Worker, []WorkerProfile) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	workers, profiles, err := GeneratePopulation(DefaultPopulation(d.Bounds), rng)
	if err != nil {
		t.Fatal(err)
	}
	return workers, profiles
}

func TestGeneratePopulationShape(t *testing.T) {
	d := testData()
	workers, profiles := testPopulation(t, d, 2)
	if len(workers) != 30 || len(profiles) != 30 {
		t.Fatalf("population size = %d/%d, want 30/30", len(workers), len(profiles))
	}
	for i, w := range workers {
		if w.ID != model.WorkerID(i) {
			t.Errorf("worker %d has ID %d", i, w.ID)
		}
		if len(w.Locations) == 0 {
			t.Errorf("worker %d has no locations", i)
		}
		for _, loc := range w.Locations {
			if !d.Bounds.Contains(loc) {
				t.Errorf("worker %d location %v outside bounds", i, loc)
			}
		}
	}
}

func TestGeneratePopulationDeterministic(t *testing.T) {
	d := testData()
	w1, p1 := testPopulation(t, d, 5)
	w2, p2 := testPopulation(t, d, 5)
	for i := range w1 {
		if w1[i].Locations[0] != w2[i].Locations[0] || p1[i] != p2[i] {
			t.Fatalf("same seed produced different populations at worker %d", i)
		}
	}
}

func TestGeneratePopulationValidation(t *testing.T) {
	d := testData()
	rng := rand.New(rand.NewSource(1))
	bad := DefaultPopulation(d.Bounds)
	bad.NumWorkers = 0
	if _, _, err := GeneratePopulation(bad, rng); err == nil {
		t.Error("zero workers accepted")
	}
	bad = DefaultPopulation(d.Bounds)
	bad.QualifiedFrac = 1.5
	if _, _, err := GeneratePopulation(bad, rng); err == nil {
		t.Error("QualifiedFrac > 1 accepted")
	}
	bad = DefaultPopulation(d.Bounds)
	bad.LambdaWeights = []float64{1}
	if _, _, err := GeneratePopulation(bad, rng); err == nil {
		t.Error("mismatched lambda weights accepted")
	}
}

func TestGeneratePopulationAnchored(t *testing.T) {
	d := testData()
	rng := rand.New(rand.NewSource(6))
	cfg := DefaultPopulation(d.Bounds)
	anchor := geo.Pt(
		(d.Bounds.Min.X+d.Bounds.Max.X)/2,
		(d.Bounds.Min.Y+d.Bounds.Max.Y)/2,
	)
	cfg.Anchors = []geo.Point{anchor}
	cfg.AnchorSpread = 0.01
	cfg.SecondLocationProb = 0
	workers, _, err := GeneratePopulation(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	side := math.Min(d.Bounds.Width(), d.Bounds.Height())
	for _, w := range workers {
		if d := w.Locations[0].Dist(anchor); d > 5*0.01*side {
			t.Errorf("anchored worker at distance %v from anchor, spread too wide", d)
		}
	}
}

func TestTaskProfilesTierMapping(t *testing.T) {
	tasks := []model.Task{
		{Reviews: 5000}, {Reviews: 1500}, {Reviews: 700}, {Reviews: 100},
	}
	profs := TaskProfiles(tasks)
	// Influence reach must shrink (lambda grow) down the tiers.
	for i := 1; i < len(profs); i++ {
		if profs[i].Lambda <= profs[i-1].Lambda {
			t.Errorf("tier %d lambda %v not greater than tier %d lambda %v",
				i, profs[i].Lambda, i-1, profs[i-1].Lambda)
		}
	}
}

func TestSimulatorAgreeProbBounds(t *testing.T) {
	d := testData()
	workers, profiles := testPopulation(t, d, 7)
	sim, err := NewSimulator(d, workers, profiles, 8)
	if err != nil {
		t.Fatal(err)
	}
	for wi := range workers {
		for ti := range d.Tasks {
			p := sim.AgreeProb(model.WorkerID(wi), model.TaskID(ti))
			if p < 0 || p > 1 {
				t.Fatalf("AgreeProb(%d,%d) = %v", wi, ti, p)
			}
			if profiles[wi].Qualified && p < 0.49 {
				t.Fatalf("qualified worker agree prob %v below random", p)
			}
		}
	}
}

func TestSimulatorNoiseFlipsProbability(t *testing.T) {
	d := testData()
	workers, profiles := testPopulation(t, d, 9)
	sim, _ := NewSimulator(d, workers, profiles, 10)
	base := sim.AgreeProb(0, 0)
	sim.Noise = 0.2
	noisy := sim.AgreeProb(0, 0)
	want := base*0.8 + (1-base)*0.2
	if math.Abs(noisy-want) > 1e-12 {
		t.Errorf("noisy agree prob = %v, want %v", noisy, want)
	}
}

func TestSimulatorAnswerStatistics(t *testing.T) {
	d := testData()
	workers, profiles := testPopulation(t, d, 11)
	sim, _ := NewSimulator(d, workers, profiles, 12)
	// Empirical answer accuracy must match AgreeProb within sampling error.
	w, task := model.WorkerID(0), model.TaskID(0)
	p := sim.AgreeProb(w, task)
	matches, total := 0, 0
	for i := 0; i < 400; i++ {
		a := sim.Answer(w, task)
		for k, v := range a.Selected {
			total++
			if v == d.Truth.Label(task, k) {
				matches++
			}
		}
	}
	got := float64(matches) / float64(total)
	if math.Abs(got-p) > 0.06 {
		t.Errorf("empirical accuracy %v, modeled %v", got, p)
	}
}

func TestNewSimulatorValidation(t *testing.T) {
	d := testData()
	workers, profiles := testPopulation(t, d, 13)
	if _, err := NewSimulator(d, workers, profiles[:5], 1); err == nil {
		t.Error("mismatched workers/profiles accepted")
	}
}

func TestCollectUniformCounts(t *testing.T) {
	d := testData()
	workers, profiles := testPopulation(t, d, 14)
	sim, _ := NewSimulator(d, workers, profiles, 15)
	set, err := sim.CollectUniform(5)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 5*len(d.Tasks) {
		t.Fatalf("collected %d answers, want %d", set.Len(), 5*len(d.Tasks))
	}
	for ti := range d.Tasks {
		if n := set.TaskAnswerCount(model.TaskID(ti)); n != 5 {
			t.Errorf("task %d has %d answers, want 5", ti, n)
		}
	}
}

func TestCollectUniformTooManyPerTask(t *testing.T) {
	d := testData()
	workers, profiles := testPopulation(t, d, 16)
	sim, _ := NewSimulator(d, workers, profiles, 17)
	if _, err := sim.CollectUniform(len(workers) + 1); err == nil {
		t.Error("perTask > workers accepted")
	}
}

func TestCollectBiasedCountsAndBias(t *testing.T) {
	d := testData()
	workers, profiles := testPopulation(t, d, 18)
	sim, _ := NewSimulator(d, workers, profiles, 19)
	set, err := sim.CollectBiased(5, 0.1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 5*len(d.Tasks) {
		t.Fatalf("collected %d answers, want %d", set.Len(), 5*len(d.Tasks))
	}
	// The biased collector must produce a shorter mean worker-task
	// distance than the uniform one.
	sim2, _ := NewSimulator(d, workers, profiles, 19)
	uni, err := sim2.CollectUniform(5)
	if err != nil {
		t.Fatal(err)
	}
	meanDist := func(set *model.AnswerSet) float64 {
		var sum float64
		for i := 0; i < set.Len(); i++ {
			a := set.Answer(i)
			sum += sim.Distance(a.Worker, a.Task)
		}
		return sum / float64(set.Len())
	}
	if meanDist(set) >= meanDist(uni) {
		t.Errorf("biased mean distance %v not below uniform %v", meanDist(set), meanDist(uni))
	}
}

func TestSampleDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	weights := []float64{1, 1, 1, 1, 1}
	got := sampleDistinct(weights, 3, rng)
	if len(got) != 3 {
		t.Fatalf("sampled %d, want 3", len(got))
	}
	seen := map[int]bool{}
	for _, i := range got {
		if seen[i] {
			t.Fatal("sampleDistinct returned a duplicate")
		}
		seen[i] = true
	}
	// Heavily weighted index must dominate first draws.
	weights = []float64{1000, 0.001, 0.001}
	hits := 0
	for trial := 0; trial < 100; trial++ {
		if sampleDistinct(weights, 1, rng)[0] == 0 {
			hits++
		}
	}
	if hits < 95 {
		t.Errorf("dominant weight selected only %d/100 times", hits)
	}
}

func TestSampleAvailableDistinct(t *testing.T) {
	d := testData()
	workers, profiles := testPopulation(t, d, 21)
	sim, _ := NewSimulator(d, workers, profiles, 22)
	got := sim.SampleAvailable(10)
	if len(got) != 10 {
		t.Fatalf("sampled %d workers, want 10", len(got))
	}
	seen := map[model.WorkerID]bool{}
	for _, w := range got {
		if seen[w] {
			t.Fatal("SampleAvailable returned a duplicate")
		}
		seen[w] = true
	}
	// Requesting more than the pool returns everyone.
	if got := sim.SampleAvailable(1000); len(got) != len(workers) {
		t.Errorf("oversized sample = %d, want %d", len(got), len(workers))
	}
}

// zipfActivity is a heavy-tailed activity profile, weight(rank) ∝
// 1/(rank+1)^exponent over a random worker ordering: a few workers do most
// HITs while the tail appears rarely, as in the paper's Figure 7.
func zipfActivity(n int, exponent float64, rng *rand.Rand) []float64 {
	weights := make([]float64, n)
	for rank, wi := range rng.Perm(n) {
		weights[wi] = 1 / math.Pow(float64(rank+1), exponent)
	}
	return weights
}

func TestZipfActivitySkewsArrivals(t *testing.T) {
	d := testData()
	workers, profiles := testPopulation(t, d, 40)
	sim, _ := NewSimulator(d, workers, profiles, 41)
	sim.Activity = zipfActivity(len(workers), 1.5, rand.New(rand.NewSource(40)))
	if len(sim.Activity) != len(workers) {
		t.Fatalf("activity has %d weights for %d workers", len(sim.Activity), len(workers))
	}

	counts := make(map[model.WorkerID]int)
	const rounds = 2000
	for i := 0; i < rounds; i++ {
		for _, w := range sim.SampleAvailable(3) {
			counts[w]++
		}
	}
	// Arrivals must be heavily skewed: the busiest worker appears several
	// times more often than the median one.
	var all []int
	for _, w := range workers {
		all = append(all, counts[w.ID])
	}
	sort.Ints(all)
	busiest := all[len(all)-1]
	median := all[len(all)/2]
	if median == 0 || float64(busiest)/float64(median) < 3 {
		t.Errorf("arrival skew too weak: busiest %d vs median %d", busiest, median)
	}
}

func TestSampleAvailableSkewedStillDistinct(t *testing.T) {
	d := testData()
	workers, profiles := testPopulation(t, d, 42)
	sim, _ := NewSimulator(d, workers, profiles, 43)
	sim.Activity = zipfActivity(len(workers), 2, rand.New(rand.NewSource(42)))
	got := sim.SampleAvailable(10)
	seen := map[model.WorkerID]bool{}
	for _, w := range got {
		if seen[w] {
			t.Fatal("skewed sampling returned a duplicate")
		}
		seen[w] = true
	}
	if len(got) != 10 {
		t.Errorf("sampled %d workers, want 10", len(got))
	}
}

func TestLazyStrategies(t *testing.T) {
	d := testData()
	workers, profiles := testPopulation(t, d, 50)
	profiles[0].Strategy = StrategyAllYes
	profiles[1].Strategy = StrategyAllNo
	sim, _ := NewSimulator(d, workers, profiles, 51)

	yes := sim.Answer(0, 0)
	for k, v := range yes.Selected {
		if !v {
			t.Fatalf("all-yes worker left label %d unticked", k)
		}
	}
	no := sim.Answer(1, 0)
	for k, v := range no.Selected {
		if v {
			t.Fatalf("all-no worker ticked label %d", k)
		}
	}
	// Honest workers remain probabilistic.
	honest := sim.Answer(2, 0)
	if len(honest.Selected) != len(d.Tasks[0].Labels) {
		t.Fatal("honest answer has wrong width")
	}
}
