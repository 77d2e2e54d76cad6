// Package experiment reproduces every table and figure of the paper's
// evaluation (Section V). Each runner returns a structured result and can
// render the same rows/series the paper reports as an aligned text table.
//
// The experiments run against the simulated crowd of internal/crowd
// (EXPERIMENTS.md states why it stands in for the paper's answer logs). A
// Scenario freezes every knob — dataset seed, worker population, collection
// process, model configuration — so results are deterministic and comparable
// across runs. Deployment 2 campaigns run through poilabel.Service
// (RunCampaign).
package experiment

import (
	"fmt"
	"math/rand"

	"poilabel/internal/core"
	"poilabel/internal/crowd"
	"poilabel/internal/dataset"
	"poilabel/internal/geo"
	"poilabel/internal/model"
	"poilabel/internal/shard"
)

// Scenario bundles everything needed to reproduce an experiment: the
// dataset, the worker population, the answer-generation process, and the
// inference-model configuration.
type Scenario struct {
	// DatasetName selects Beijing or China.
	DatasetName string
	// Seed drives all generation; experiments with the same seed replay
	// identical answer logs.
	Seed int64
	// PerTask is the number of answers each task receives in Deployment 1
	// style collection (the paper used 5).
	PerTask int
	// Budget is the assignment budget of Deployment 2 (the paper used
	// 1000 per dataset).
	Budget int
	// H is the HIT size: tasks per worker request (the paper used 2).
	H int

	// Population tuning (see crowd.PopulationConfig for semantics).
	NumWorkers    int
	QualifiedFrac float64
	LambdaWeights []float64
	// ResidentialCenters is the number of distinct areas workers live in.
	// Workers cluster around this many randomly chosen POI locations, so
	// task clusters far from every residential centre exist — the uneven
	// worker/task geography the paper observed ("the spatial distribution
	// of tasks and workers were not even", Section V-D).
	ResidentialCenters int
	// AnchorSpread is the relative scatter of worker homes around their
	// residential centre.
	AnchorSpread float64

	// Collection bias (crowd.Simulator.CollectBiased).
	BiasScale, BiasFloor float64
	// Noise is the simulator's model-mismatch flip probability.
	Noise float64
	// SimAlpha is the latent mixing weight of the answer generator.
	SimAlpha float64

	// ModelConfig configures the inference model under test.
	ModelConfig core.Config
}

// DefaultScenario returns the frozen configuration used by the benchmark
// harness: 30 workers anchored near POI clusters, 78% qualified, moderate
// distance sensitivity dominating, distance-biased collection, and the
// paper's model parameters (α = 0.5, F = {f100, f10, f0.1}, h = 2,
// budget 1000).
func DefaultScenario(datasetName string, seed int64) Scenario {
	cfg := core.DefaultConfig()
	cfg.MaxIter = 150
	cfg.Smoothing = 0.5
	// The library default fans the E-step out over all CPUs, whose chunked
	// merge order varies with core count. Experiments pin the serial
	// E-step so tables and iteration counts reproduce across machines.
	cfg.Parallelism = 1
	return Scenario{
		DatasetName:        datasetName,
		Seed:               seed,
		PerTask:            5,
		Budget:             1000,
		H:                  2,
		NumWorkers:         30,
		QualifiedFrac:      0.78,
		LambdaWeights:      []float64{0.4, 0.55, 0.05},
		ResidentialCenters: 8,
		AnchorSpread:       0.08,
		BiasScale:          0.10,
		BiasFloor:          0.45,
		Noise:              0.10,
		SimAlpha:           0.35,
		ModelConfig:        cfg,
	}
}

// Env is a fully materialized scenario: dataset, workers with latent
// profiles, and a simulator, ready to generate answers and fit models.
type Env struct {
	Scenario Scenario
	Data     *dataset.Dataset
	Workers  []model.Worker
	Profiles []crowd.WorkerProfile
	Sim      *crowd.Simulator
}

// Build materializes the scenario. The dataset seed is fixed per dataset
// name (so Beijing is always the same POIs), while the scenario seed drives
// the population and answers.
func (s Scenario) Build() (*Env, error) {
	var data *dataset.Dataset
	switch s.DatasetName {
	case "Beijing":
		data = dataset.Beijing(42)
	case "China":
		data = dataset.China(43)
	default:
		return nil, fmt.Errorf("experiment: unknown dataset %q (want Beijing or China)", s.DatasetName)
	}

	rng := rand.New(rand.NewSource(s.Seed))
	pop := crowd.DefaultPopulation(data.Bounds)
	pop.NumWorkers = s.NumWorkers
	pop.QualifiedFrac = s.QualifiedFrac
	pop.LambdaWeights = s.LambdaWeights
	pop.Anchors = residentialCenters(data, s.ResidentialCenters, rng)
	pop.AnchorSpread = s.AnchorSpread
	workers, profiles, err := crowd.GeneratePopulation(pop, rng)
	if err != nil {
		return nil, err
	}
	sim, err := crowd.NewSimulator(data, workers, profiles, s.Seed+1)
	if err != nil {
		return nil, err
	}
	sim.Noise = s.Noise
	sim.Alpha = s.SimAlpha
	return &Env{Scenario: s, Data: data, Workers: workers, Profiles: profiles, Sim: sim}, nil
}

// MustBuild is Build but panics on error, for benchmark setup code.
func (s Scenario) MustBuild() *Env {
	env, err := s.Build()
	if err != nil {
		panic(err)
	}
	return env
}

// Collect generates the Deployment 1 answer log: PerTask answers per task
// under the scenario's distance-biased collection.
func (e *Env) Collect() (*model.AnswerSet, error) {
	return e.Sim.CollectBiased(e.Scenario.PerTask, e.Scenario.BiasScale, e.Scenario.BiasFloor)
}

// NewModel builds an inference model over the scenario's tasks and workers,
// at the distance scale a poilabel.Service over the same registrations uses
// (model.SpanNormalizer). The dataset's own normalizer is the simulator's: it
// describes how the world generates answers, not what inference may know.
func (e *Env) NewModel() (*core.Model, error) {
	norm, err := model.SpanNormalizer(e.Data.Tasks, e.Workers)
	if err != nil {
		return nil, err
	}
	return core.NewModel(e.Data.Tasks, e.Workers, norm, e.Scenario.ModelConfig)
}

// NewSharded builds a k-shard fitter over the scenario's tasks and workers,
// under the same model configuration and distance scale as NewModel.
func (e *Env) NewSharded(k int) (*shard.Sharded, error) {
	norm, err := model.SpanNormalizer(e.Data.Tasks, e.Workers)
	if err != nil {
		return nil, err
	}
	return shard.New(e.Data.Tasks, e.Workers, norm, shard.Config{
		Shards: k,
		Model:  e.Scenario.ModelConfig,
	})
}

// FitModel builds a model, feeds it the given answers, and runs full EM.
func (e *Env) FitModel(answers *model.AnswerSet) (*core.Model, core.FitStats, error) {
	m, err := e.NewModel()
	if err != nil {
		return nil, core.FitStats{}, err
	}
	for _, a := range answers.All() {
		if err := m.Observe(a); err != nil {
			return nil, core.FitStats{}, err
		}
	}
	stats := m.Fit()
	return m, stats, nil
}

// residentialCenters picks n random POI locations as the areas workers live
// around. Zero or negative n means "anchor at every POI" (workers blanket
// the task clusters).
func residentialCenters(d *dataset.Dataset, n int, rng *rand.Rand) []geo.Point {
	pts := taskPoints(d)
	if n <= 0 || n >= len(pts) {
		return pts
	}
	perm := rng.Perm(len(pts))
	out := make([]geo.Point, n)
	for i := 0; i < n; i++ {
		out[i] = pts[perm[i]]
	}
	return out
}

func taskPoints(d *dataset.Dataset) []geo.Point {
	pts := make([]geo.Point, len(d.Tasks))
	for i := range d.Tasks {
		pts[i] = d.Tasks[i].Location
	}
	return pts
}

// BothDatasets returns the default scenario instantiated for Beijing and
// China, the pairing every paper figure reports.
func BothDatasets(seed int64) []Scenario {
	return []Scenario{
		DefaultScenario("Beijing", seed),
		DefaultScenario("China", seed),
	}
}

// newRand returns a seeded rand.Rand, the only randomness source the
// experiment package uses outside the simulator.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
