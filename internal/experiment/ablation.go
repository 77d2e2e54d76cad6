package experiment

import (
	"fmt"
	"sync/atomic"
	"time"

	"poilabel"
	"poilabel/internal/assign"
	"poilabel/internal/core"
	"poilabel/internal/distfunc"
	"poilabel/internal/model"
	"poilabel/internal/stats"
)

// The ablations probe the design choices EXPERIMENTS.md ("Beyond the
// paper") records: the α mixing weight, the distance-function set and its
// shape family, the model-update policy, and greedy-versus-random assignment.

// configEdit is one arm of a model-configuration sweep: a row name and the
// change it makes to the scenario's inference-model configuration.
type configEdit struct {
	name string
	edit func(*core.Config)
}

// configSweep collects the Deployment 1 log once per world, refits it under
// each arm's configuration, and tabulates the accuracy per world.
func configSweep(seed int64, title, column string, arms []configEdit) (fmt.Stringer, error) {
	cols := make(map[string][]float64)
	for _, name := range []string{"Beijing", "China"} {
		env, err := DefaultScenario(name, seed).Build()
		if err != nil {
			return nil, err
		}
		answers, err := env.Collect()
		if err != nil {
			return nil, err
		}
		for _, arm := range arms {
			armEnv := *env
			arm.edit(&armEnv.Scenario.ModelConfig)
			m, _, err := armEnv.FitModel(answers)
			if err != nil {
				return nil, err
			}
			cols[name] = append(cols[name], model.Accuracy(m.Result(), env.Data.Truth))
		}
	}
	t := stats.NewTable(title, column, "Beijing", "China")
	for i, arm := range arms {
		t.AddRowf(arm.name,
			fmt.Sprintf("%.1f%%", 100*cols["Beijing"][i]),
			fmt.Sprintf("%.1f%%", 100*cols["China"][i]))
	}
	return t, nil
}

// funcSetArm is the sweep arm that swaps in a distance-function set.
func funcSetArm(name string, set *distfunc.Set) configEdit {
	return configEdit{name, func(c *core.Config) { c.FuncSet = set }}
}

// RunAblationAlpha sweeps the inference model's α (the Equation 8 weight of
// worker distance quality versus POI influence) while the data-generating
// process is held fixed.
func RunAblationAlpha(seed int64) (fmt.Stringer, error) {
	var arms []configEdit
	for _, a := range []float64{0, 0.25, 0.5, 0.75, 1} {
		arms = append(arms, configEdit{fmt.Sprintf("%.2f", a), func(c *core.Config) { c.Alpha = a }})
	}
	return configSweep(seed, "Ablation: inference accuracy vs alpha (Beijing & China)", "alpha", arms)
}

// RunAblationFuncSet sweeps the size of the distance-function set F,
// testing the paper's claim that a single bell function is less expressive
// than a set (Section III-B).
func RunAblationFuncSet(seed int64) (fmt.Stringer, error) {
	return configSweep(seed, "Ablation: inference accuracy vs distance-function set", "function set",
		[]configEdit{
			funcSetArm("{f10}", distfunc.MustSet(10)),
			funcSetArm("{f100,f0.1}", distfunc.MustSet(100, 0.1)),
			funcSetArm("{f100,f10,f0.1}", distfunc.PaperSet()),
			funcSetArm("{f200,f50,f10,f1,f0.1}", distfunc.MustSet(200, 50, 10, 1, 0.1)),
		})
}

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

// RunAblationShapes swaps the bell-shaped function family for alternative
// shape families (linear decay, step / local-knowledge, exponential tail)
// while the data-generating process stays bell-based, testing the paper's
// claim that "any function satisfying this property can be used".
func RunAblationShapes(seed int64) (fmt.Stringer, error) {
	return configSweep(seed, "Ablation: inference accuracy vs distance-function family", "family",
		[]configEdit{
			funcSetArm("bell {f100,f10,f0.1} (paper)", distfunc.PaperSet()),
			funcSetArm("linear {2, 0.7, 0.1}", distfunc.MustCustomSet(
				distfunc.Linear{Rate: 2}, distfunc.Linear{Rate: 0.7}, distfunc.Linear{Rate: 0.1})),
			funcSetArm("step {r=0.1, 0.3, 0.8}", distfunc.MustCustomSet(
				distfunc.Step{Radius: 0.1}, distfunc.Step{Radius: 0.3}, distfunc.Step{Radius: 0.8})),
			funcSetArm("exp {0.05, 0.2, 1.5}", distfunc.MustCustomSet(
				distfunc.Exponential{Scale: 0.05}, distfunc.Exponential{Scale: 0.2}, distfunc.Exponential{Scale: 1.5})),
			funcSetArm("mixed {step0.15, linear0.8, exp1.5}", distfunc.MustCustomSet(
				distfunc.Step{Radius: 0.15}, distfunc.Linear{Rate: 0.8}, distfunc.Exponential{Scale: 1.5})),
		})
}

// RunAblationAssigners extends the paper's Figure 11 comparison with the
// extra assigner this repository implements: the entropy-based selection
// of CDAS [16].
func RunAblationAssigners(seed int64) (fmt.Stringer, error) {
	t := stats.NewTable("Ablation: final accuracy of all assigners (budget 1000)",
		"assigner", "Beijing", "China")
	assigners := []struct {
		name string
		kind poilabel.AssignerKind
	}{
		{"Random", poilabel.AssignerRandom},
		{"Entropy", poilabel.AssignerEntropy},
		{"AccOpt", poilabel.AssignerAccOpt},
	}
	cols := make(map[string][]float64)
	for _, dsName := range []string{"Beijing", "China"} {
		s := DefaultScenario(dsName, seed)
		for _, a := range assigners {
			env, err := s.Build()
			if err != nil {
				return nil, err
			}
			camp, err := env.RunCampaign(Campaign{Assigner: a.kind, Seed: seed + 300})
			if err != nil {
				return nil, err
			}
			cols[dsName] = append(cols[dsName], model.Accuracy(camp.Final, env.Data.Truth))
		}
	}
	for i, a := range assigners {
		t.AddRowf(a.name,
			fmt.Sprintf("%.1f%%", 100*cols["Beijing"][i]),
			fmt.Sprintf("%.1f%%", 100*cols["China"][i]))
	}
	return t, nil
}
