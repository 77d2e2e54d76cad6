package experiment

import (
	"fmt"
	"time"

	"poilabel/internal/assign"
	"poilabel/internal/core"
	"poilabel/internal/crowd"
	"poilabel/internal/distfunc"
	"poilabel/internal/model"
	"poilabel/internal/stats"
)

// The ablations probe the design choices DESIGN.md §4 calls out: the α
// mixing weight, the size of the distance-function set, the model-update
// policy, and greedy-versus-random assignment.

// RunAblationAlpha sweeps the inference model's α (the Equation 8 weight of
// worker distance quality versus POI influence) while the data-generating
// process is held fixed.
func RunAblationAlpha(seed int64) (fmt.Stringer, error) {
	t := stats.NewTable("Ablation: inference accuracy vs alpha (Beijing & China)",
		"alpha", "Beijing", "China")
	alphas := []float64{0, 0.25, 0.5, 0.75, 1}
	cols := make(map[string][]float64)
	for _, name := range []string{"Beijing", "China"} {
		s := DefaultScenario(name, seed)
		env, err := s.Build()
		if err != nil {
			return nil, err
		}
		answers, err := env.Collect()
		if err != nil {
			return nil, err
		}
		for _, a := range alphas {
			s2 := s
			s2.ModelConfig.Alpha = a
			env2 := &Env{Scenario: s2, Data: env.Data, Workers: env.Workers, Profiles: env.Profiles, Sim: env.Sim}
			m, _, err := env2.FitModel(answers)
			if err != nil {
				return nil, err
			}
			cols[name] = append(cols[name], model.Accuracy(m.Result(), env.Data.Truth))
		}
	}
	for i, a := range alphas {
		t.AddRowf(fmt.Sprintf("%.2f", a),
			fmt.Sprintf("%.1f%%", 100*cols["Beijing"][i]),
			fmt.Sprintf("%.1f%%", 100*cols["China"][i]))
	}
	return t, nil
}

// RunAblationFuncSet sweeps the size of the distance-function set F,
// testing the paper's claim that a single bell function is less expressive
// than a set (Section III-B).
func RunAblationFuncSet(seed int64) (fmt.Stringer, error) {
	sets := []struct {
		name string
		set  *distfunc.Set
	}{
		{"{f10}", distfunc.MustSet(10)},
		{"{f100,f0.1}", distfunc.MustSet(100, 0.1)},
		{"{f100,f10,f0.1}", distfunc.PaperSet()},
		{"{f200,f50,f10,f1,f0.1}", distfunc.MustSet(200, 50, 10, 1, 0.1)},
	}
	t := stats.NewTable("Ablation: inference accuracy vs distance-function set",
		"function set", "Beijing", "China")
	cols := make(map[string][]float64)
	for _, name := range []string{"Beijing", "China"} {
		s := DefaultScenario(name, seed)
		env, err := s.Build()
		if err != nil {
			return nil, err
		}
		answers, err := env.Collect()
		if err != nil {
			return nil, err
		}
		for _, fs := range sets {
			s2 := s
			s2.ModelConfig.FuncSet = fs.set
			env2 := &Env{Scenario: s2, Data: env.Data, Workers: env.Workers, Profiles: env.Profiles, Sim: env.Sim}
			m, _, err := env2.FitModel(answers)
			if err != nil {
				return nil, err
			}
			cols[name] = append(cols[name], model.Accuracy(m.Result(), env.Data.Truth))
		}
	}
	for i, fs := range sets {
		t.AddRowf(fs.name,
			fmt.Sprintf("%.1f%%", 100*cols["Beijing"][i]),
			fmt.Sprintf("%.1f%%", 100*cols["China"][i]))
	}
	return t, nil
}

// RunAblationUpdatePolicy compares the model-update policies of Section
// III-D on the dynamic platform: full EM on every submission, the paper's
// delayed full EM + incremental EM, and incremental-only.
func RunAblationUpdatePolicy(seed int64) (fmt.Stringer, error) {
	policies := []struct {
		name   string
		policy func() *core.UpdatePolicy
	}{
		{"full EM every answer", func() *core.UpdatePolicy {
			return &core.UpdatePolicy{FullEMInterval: 1}
		}},
		{"delayed(100) + incremental", core.DefaultUpdatePolicy},
		{"incremental only", func() *core.UpdatePolicy {
			return &core.UpdatePolicy{FullEMInterval: 0, Incremental: true}
		}},
		{"no updates until end", func() *core.UpdatePolicy {
			return &core.UpdatePolicy{FullEMInterval: 0, Incremental: false}
		}},
	}
	t := stats.NewTable("Ablation: update policy on the dynamic platform (AccOpt, budget 1000, Beijing)",
		"policy", "accuracy", "platform time")
	s := DefaultScenario("Beijing", seed)
	for _, p := range policies {
		env, err := s.Build()
		if err != nil {
			return nil, err
		}
		m, err := env.NewModel()
		if err != nil {
			return nil, err
		}
		plat, err := crowd.NewPlatform(env.Sim, m, p.policy(), s.Budget)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := plat.Run(assign.NewPlanner(), crowd.RunConfig{
			WorkersPerRound: 5, TasksPerWorker: s.H, FinalFullEM: true,
		}); err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		acc := model.Accuracy(m.Result(), env.Data.Truth)
		t.AddRowf(p.name, fmt.Sprintf("%.1f%%", 100*acc), elapsed.Round(time.Millisecond).String())
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
	sets := []struct {
		name string
		set  *distfunc.Set
	}{
		{"bell {f100,f10,f0.1} (paper)", distfunc.PaperSet()},
		{"linear {2, 0.7, 0.1}", distfunc.MustCustomSet(
			distfunc.Linear{Rate: 2}, distfunc.Linear{Rate: 0.7}, distfunc.Linear{Rate: 0.1})},
		{"step {r=0.1, 0.3, 0.8}", distfunc.MustCustomSet(
			distfunc.Step{Radius: 0.1}, distfunc.Step{Radius: 0.3}, distfunc.Step{Radius: 0.8})},
		{"exp {0.05, 0.2, 1.5}", distfunc.MustCustomSet(
			distfunc.Exponential{Scale: 0.05}, distfunc.Exponential{Scale: 0.2}, distfunc.Exponential{Scale: 1.5})},
		{"mixed {step0.15, linear0.8, exp1.5}", distfunc.MustCustomSet(
			distfunc.Step{Radius: 0.15}, distfunc.Linear{Rate: 0.8}, distfunc.Exponential{Scale: 1.5})},
	}
	t := stats.NewTable("Ablation: inference accuracy vs distance-function family",
		"family", "Beijing", "China")
	cols := make(map[string][]float64)
	for _, name := range []string{"Beijing", "China"} {
		s := DefaultScenario(name, seed)
		env, err := s.Build()
		if err != nil {
			return nil, err
		}
		answers, err := env.Collect()
		if err != nil {
			return nil, err
		}
		for _, fs := range sets {
			s2 := s
			s2.ModelConfig.FuncSet = fs.set
			env2 := &Env{Scenario: s2, Data: env.Data, Workers: env.Workers, Profiles: env.Profiles, Sim: env.Sim}
			m, _, err := env2.FitModel(answers)
			if err != nil {
				return nil, err
			}
			cols[name] = append(cols[name], model.Accuracy(m.Result(), env.Data.Truth))
		}
	}
	for i, fs := range sets {
		t.AddRowf(fs.name,
			fmt.Sprintf("%.1f%%", 100*cols["Beijing"][i]),
			fmt.Sprintf("%.1f%%", 100*cols["China"][i]))
	}
	return t, nil
}

// RunAblationAssigners extends the paper's Figure 11 comparison with the
// extra assigners this repository implements: the entropy-based selection
// of CDAS [16].
func RunAblationAssigners(seed int64) (fmt.Stringer, error) {
	t := stats.NewTable("Ablation: final accuracy of all assigners (budget 1000)",
		"assigner", "Beijing", "China")
	assigners := []func() assign.Assigner{
		func() assign.Assigner { return assign.Random{Rand: newRand(seed + 300)} },
		func() assign.Assigner { return assign.EntropyFirst{} },
		func() assign.Assigner { return assign.NewPlanner() },
	}
	cols := make(map[string][]float64)
	names := make([]string, 0, len(assigners))
	for _, dsName := range []string{"Beijing", "China"} {
		s := DefaultScenario(dsName, seed)
		names = names[:0]
		for _, mk := range assigners {
			env, err := s.Build()
			if err != nil {
				return nil, err
			}
			asg := mk()
			// SF needs the task index; construct per dataset.
			names = append(names, asg.Name())
			m, err := env.NewModel()
			if err != nil {
				return nil, err
			}
			plat, err := crowd.NewPlatform(env.Sim, m, core.DefaultUpdatePolicy(), s.Budget)
			if err != nil {
				return nil, err
			}
			if _, err := plat.Run(asg, crowd.RunConfig{WorkersPerRound: 5, TasksPerWorker: s.H, FinalFullEM: true}); err != nil {
				return nil, err
			}
			cols[dsName] = append(cols[dsName], model.Accuracy(m.Result(), env.Data.Truth))
		}
	}
	for i, name := range names {
		t.AddRowf(name,
			fmt.Sprintf("%.1f%%", 100*cols["Beijing"][i]),
			fmt.Sprintf("%.1f%%", 100*cols["China"][i]))
	}
	return t, nil
}
