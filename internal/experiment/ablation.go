package experiment

import (
	"fmt"
	"sync/atomic"
	"time"

	"poilabel"
	"poilabel/internal/assign"
	"poilabel/internal/model"
	"poilabel/internal/stats"
)

// The ablations probe the design choices EXPERIMENTS.md ("Beyond the
// paper") records: the model-update policy and greedy-versus-random
// assignment.

// fitCounter is an Observer that counts completed full fits.
type fitCounter struct{ fits atomic.Int64 }

func (c *fitCounter) FitObserved(_ time.Duration, _ bool, err error) {
	if err == nil {
		c.fits.Add(1)
	}
}
func (c *fitCounter) AnswerObserved(bool)   {}
func (c *fitCounter) DedupHitsObserved(int) {}

// RunAblationUpdatePolicy compares the model-update policies of Section
// III-D in Deployment 2: full EM on every submission, the paper's delayed
// full EM + incremental EM, incremental-only, and no learning at all until
// the final fit (a partition engine only logs answers between fits). Each
// is a service configuration; the table counts the full fits each ran.
func RunAblationUpdatePolicy(seed int64) (fmt.Stringer, error) {
	arms := []struct {
		name string
		opts []poilabel.ServiceOption
	}{
		{"full EM every answer", []poilabel.ServiceOption{poilabel.WithFullEMInterval(1)}},
		{"delayed(100) + incremental", nil},
		{"incremental only", []poilabel.ServiceOption{poilabel.WithFullEMInterval(0)}},
		{"no per-answer learning (sharded, K = 1)", []poilabel.ServiceOption{
			poilabel.WithEngine(poilabel.EngineSharded), poilabel.WithShards(1), poilabel.WithFullEMInterval(0)}},
	}
	t := stats.NewTable("Ablation: update policy in Deployment 2 (AccOpt, budget 1000, Beijing)",
		"policy", "accuracy", "full fits")
	s := DefaultScenario("Beijing", seed)
	for _, arm := range arms {
		env, err := s.Build()
		if err != nil {
			return nil, err
		}
		var fits fitCounter
		camp, err := env.RunCampaign(Campaign{
			Assigner: poilabel.AssignerAccOpt,
			Options:  append(arm.opts, poilabel.WithObserver(&fits)),
		})
		if err != nil {
			return nil, err
		}
		acc := model.Accuracy(camp.Final, env.Data.Truth)
		t.AddRowf(arm.name, fmt.Sprintf("%.1f%%", 100*acc), fits.fits.Load())
	}
	return t, nil
}

// RunAblationGreedy compares the paper's greedy (Algorithm 1) against random
// assignment, scoring each by the Definition 7 objective on identical model
// states.
func RunAblationGreedy(seed int64) (fmt.Stringer, error) {
	t := stats.NewTable("Ablation: assignment objective value (expected accuracy improvement, Beijing)",
		"assigner", "total delta", "accuracy after round")
	s := DefaultScenario("Beijing", seed)
	env, err := s.Build()
	if err != nil {
		return nil, err
	}
	// Warm a model with half the Deployment 1 log.
	answers, err := env.Collect()
	if err != nil {
		return nil, err
	}
	half := answers.Truncate(answers.Len() / 2)
	m, _, err := env.FitModel(half)
	if err != nil {
		return nil, err
	}
	workers := env.Sim.SampleAvailable(10)

	assigners := []assign.Assigner{
		assign.AccOpt{},
		newRandomForSeed(seed),
	}
	for _, asg := range assigners {
		a := asg.Assign(m, workers, s.H)
		delta := assign.TotalDelta(m, a)

		// Execute the assignment on a copy of the model to measure the
		// realized accuracy.
		m2, _, err := env.FitModel(half)
		if err != nil {
			return nil, err
		}
		// In worker order: the simulator draws every answer from one
		// stream, so the order of the draws is part of the result.
		for _, w := range workers {
			for _, tid := range a[w] {
				if err := m2.Observe(env.Sim.Answer(w, tid)); err != nil {
					return nil, err
				}
			}
		}
		m2.Fit()
		acc := model.Accuracy(m2.Result(), env.Data.Truth)
		t.AddRowf(asg.Name(), fmt.Sprintf("%.4f", delta), fmt.Sprintf("%.1f%%", 100*acc))
	}
	return t, nil
}

func newRandomForSeed(seed int64) assign.Assigner {
	return assign.Random{Rand: newRand(seed + 200)}
}
