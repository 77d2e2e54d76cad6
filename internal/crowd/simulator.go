package crowd

import (
	"fmt"
	"math"
	"math/rand"

	"poilabel/internal/dataset"
	"poilabel/internal/geo"
	"poilabel/internal/model"
)

// Simulator produces worker answers from latent profiles. It is the
// stand-in for the live crowd: given a (worker, task) assignment it returns
// the answer the worker would submit.
type Simulator struct {
	Data     *dataset.Dataset
	Workers  []model.Worker
	Profiles []WorkerProfile
	Tasks    []TaskProfile
	Norm     geo.Normalizer
	// Alpha is the latent mixing weight between worker sensitivity and POI
	// influence, normally matching the inference model's α.
	Alpha float64
	// Noise is an extra per-label flip probability applied on top of the
	// generative model, used by robustness experiments to create model
	// mismatch. Zero reproduces the paper's model exactly.
	Noise float64
	// Activity, when it has one weight per worker, skews SampleAvailable
	// toward high-weight workers. Empty means uniform arrivals.
	Activity []float64

	rng *rand.Rand
}

// NewSimulator wires a dataset, a worker population and its latent
// profiles into an answer source.
func NewSimulator(d *dataset.Dataset, workers []model.Worker, profiles []WorkerProfile, seed int64) (*Simulator, error) {
	if len(workers) != len(profiles) {
		return nil, fmt.Errorf("crowd: %d workers with %d profiles", len(workers), len(profiles))
	}
	return &Simulator{
		Data:     d,
		Workers:  workers,
		Profiles: profiles,
		Tasks:    TaskProfiles(d.Tasks),
		Norm:     d.Normalizer(),
		Alpha:    0.5,
		rng:      rand.New(rand.NewSource(seed)),
	}, nil
}

// Clone returns a simulator over the same world — dataset, workers, latent
// profiles, task profiles, and mixing parameters are shared, not copied —
// drawing from an independent random stream seeded with seed. A load
// generator hands each concurrent client its own clone so answer generation
// needs no locking and stays deterministic per worker regardless of
// goroutine interleaving.
func (s *Simulator) Clone(seed int64) *Simulator {
	return &Simulator{
		Data:     s.Data,
		Workers:  s.Workers,
		Profiles: s.Profiles,
		Tasks:    s.Tasks,
		Norm:     s.Norm,
		Alpha:    s.Alpha,
		Noise:    s.Noise,
		Activity: s.Activity,
		rng:      rand.New(rand.NewSource(seed)),
	}
}

// Distance returns the normalized distance between worker w and task t.
func (s *Simulator) Distance(w model.WorkerID, t model.TaskID) float64 {
	return s.Norm.MinDistance(s.Workers[w].Locations, s.Data.Tasks[t].Location)
}

// AgreeProb returns the latent per-label probability that worker w answers
// task t correctly, including any configured mismatch noise.
func (s *Simulator) AgreeProb(w model.WorkerID, t model.TaskID) float64 {
	p := trueAgreeProb(s.Profiles[w], s.Tasks[t], s.Distance(w, t), s.Alpha)
	// A noise flip turns a correct answer incorrect and vice versa.
	return p*(1-s.Noise) + (1-p)*s.Noise
}

// Answer simulates worker w answering task t: each label independently
// matches the ground truth with probability AgreeProb, except for workers
// with a lazy strategy who tick everything or nothing.
func (s *Simulator) Answer(w model.WorkerID, t model.TaskID) model.Answer {
	task := &s.Data.Tasks[t]
	sel := make([]bool, len(task.Labels))
	switch s.Profiles[w].Strategy {
	case StrategyAllYes:
		for k := range sel {
			sel[k] = true
		}
	case StrategyAllNo:
		// sel is already all false.
	default:
		p := s.AgreeProb(w, t)
		for k := range sel {
			truth := s.Data.Truth.Label(t, k)
			if s.rng.Float64() < p {
				sel[k] = truth
			} else {
				sel[k] = !truth
			}
		}
	}
	return model.Answer{Worker: w, Task: t, Selected: sel}
}

// CollectUniform reproduces the paper's Deployment 1 ("each task was
// answered by five workers"): every task receives exactly perTask answers
// from distinct random workers, and the resulting answer log is shuffled so
// budget-prefix truncation is unbiased. The returned set holds
// len(tasks)·perTask answers.
func (s *Simulator) CollectUniform(perTask int) (*model.AnswerSet, error) {
	if perTask > len(s.Workers) {
		return nil, fmt.Errorf("crowd: %d answers per task requested with only %d workers",
			perTask, len(s.Workers))
	}
	type pair struct {
		w model.WorkerID
		t model.TaskID
	}
	var pairs []pair
	for t := range s.Data.Tasks {
		perm := s.rng.Perm(len(s.Workers))
		for _, wi := range perm[:perTask] {
			pairs = append(pairs, pair{model.WorkerID(wi), model.TaskID(t)})
		}
	}
	s.rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	set := model.NewAnswerSet()
	for _, p := range pairs {
		if err := set.Add(s.Answer(p.w, p.t)); err != nil {
			return nil, err
		}
	}
	return set, nil
}

// CollectBiased is the location-aware variant of CollectUniform: each task
// still receives exactly perTask answers from distinct workers, but workers
// are drawn with probability proportional to exp(−(d/scale)²) + floor, so
// nearby workers answer most of a task's labels while far workers appear
// occasionally (and dominate for tasks with no nearby workers). This mirrors
// how a location-based crowdsourcing platform actually routes tasks: the
// paper's workers chose familiar locations and mostly labelled POIs near
// them.
//
// scale is in normalized-distance units (0.15 means selection pressure
// drops sharply beyond 15% of the dataset diameter); floor keeps every
// worker selectable. Zero values default to scale 0.15 and floor 0.05.
func (s *Simulator) CollectBiased(perTask int, scale, floor float64) (*model.AnswerSet, error) {
	if perTask > len(s.Workers) {
		return nil, fmt.Errorf("crowd: %d answers per task requested with only %d workers",
			perTask, len(s.Workers))
	}
	if scale == 0 {
		scale = 0.15
	}
	if floor == 0 {
		floor = 0.05
	}
	type pair struct {
		w model.WorkerID
		t model.TaskID
	}
	var pairs []pair
	weights := make([]float64, len(s.Workers))
	for t := range s.Data.Tasks {
		tid := model.TaskID(t)
		for wi := range s.Workers {
			d := s.Distance(model.WorkerID(wi), tid) / scale
			weights[wi] = math.Exp(-d*d) + floor
		}
		chosen := sampleDistinct(weights, perTask, s.rng)
		for _, wi := range chosen {
			pairs = append(pairs, pair{model.WorkerID(wi), tid})
		}
	}
	s.rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	set := model.NewAnswerSet()
	for _, p := range pairs {
		if err := set.Add(s.Answer(p.w, p.t)); err != nil {
			return nil, err
		}
	}
	return set, nil
}

// sampleDistinct draws k distinct indices with probability proportional to
// weights, by repeated weighted sampling without replacement.
func sampleDistinct(weights []float64, k int, rng *rand.Rand) []int {
	w := append([]float64(nil), weights...)
	var total float64
	for _, v := range w {
		total += v
	}
	out := make([]int, 0, k)
	for len(out) < k && total > 0 {
		x := rng.Float64() * total
		for i, v := range w {
			if v == 0 {
				continue
			}
			x -= v
			if x <= 0 {
				out = append(out, i)
				total -= v
				w[i] = 0
				break
			}
		}
	}
	return out
}

// SampleAvailable draws n distinct workers "requesting tasks", the arrival
// process of Deployment 2. With Activity set, workers arrive with
// probability proportional to their activity weight; otherwise uniformly.
func (s *Simulator) SampleAvailable(n int) []model.WorkerID {
	if n > len(s.Workers) {
		n = len(s.Workers)
	}
	if len(s.Activity) == len(s.Workers) {
		idxs := sampleDistinct(s.Activity, n, s.rng)
		out := make([]model.WorkerID, len(idxs))
		for i, idx := range idxs {
			out[i] = model.WorkerID(idx)
		}
		return out
	}
	perm := s.rng.Perm(len(s.Workers))
	out := make([]model.WorkerID, n)
	for i := 0; i < n; i++ {
		out[i] = model.WorkerID(perm[i])
	}
	return out
}
