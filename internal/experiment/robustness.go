package experiment

import (
	"fmt"

	"poilabel/internal/baseline"
	"poilabel/internal/crowd"
	"poilabel/internal/model"
	"poilabel/internal/stats"
)

// The robustness experiment stresses an assumption the paper's evaluation
// never tests: how the three inference methods degrade under systematically
// *biased* lazy workers (all-yes), whose behaviour the paper's symmetric
// agreement probability cannot express but Dawid–Skene's confusion matrix
// can.

// RunAblationAdversary replaces a growing fraction of the worker pool with
// lazy all-yes workers and reports how each method degrades. Biased workers
// violate IM's symmetric-agreement assumption: an all-yes worker is right
// on exactly the correct labels (~46% here), which IM can only model as a
// ~0.5-agreement spammer, while Dawid–Skene's per-class confusion rates
// capture the bias exactly.
func RunAblationAdversary(seed int64) (fmt.Stringer, error) {
	fractions := []float64{0, 0.1, 0.2, 0.3}
	t := stats.NewTable("Robustness: inference accuracy vs fraction of all-yes workers (Beijing)",
		"all-yes fraction", "MV", "EM", "IM", "IM+screen", "screened workers")
	for _, frac := range fractions {
		s := DefaultScenario("Beijing", seed)
		env, err := s.Build()
		if err != nil {
			return nil, err
		}
		// Convert the first frac·N workers to lazy affirmers.
		n := int(frac * float64(len(env.Profiles)))
		for i := 0; i < n; i++ {
			env.Profiles[i].Strategy = crowd.StrategyAllYes
		}
		answers, err := env.Collect()
		if err != nil {
			return nil, err
		}
		mv := model.Accuracy(baseline.MajorityVote{}.Infer(env.Data.Tasks, answers), env.Data.Truth)
		em := model.Accuracy(baseline.DawidSkene{}.Infer(env.Data.Tasks, answers), env.Data.Truth)
		m, _, err := env.FitModel(answers)
		if err != nil {
			return nil, err
		}
		im := model.Accuracy(m.Result(), env.Data.Truth)

		// The mitigation: drop systematically biased workers before
		// fitting (baseline.BiasScreen), then run the same model.
		clean, flagged := baseline.BiasScreen{}.Filter(answers)
		mc, _, err := env.FitModel(clean)
		if err != nil {
			return nil, err
		}
		imScreened := model.Accuracy(mc.Result(), env.Data.Truth)

		t.AddRowf(fmt.Sprintf("%.0f%%", 100*frac),
			fmt.Sprintf("%.1f%%", 100*mv),
			fmt.Sprintf("%.1f%%", 100*em),
			fmt.Sprintf("%.1f%%", 100*im),
			fmt.Sprintf("%.1f%%", 100*imScreened),
			len(flagged))
	}
	return t, nil
}
