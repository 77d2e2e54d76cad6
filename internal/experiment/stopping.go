package experiment

import (
	"fmt"

	"poilabel"
	"poilabel/internal/model"
	"poilabel/internal/stats"
)

// StoppingResult evaluates budget-aware early stopping, an extension of
// the paper's fixed-budget protocol: the platform stops requesting answers
// once the model's own estimated accuracy — the mean of max(P(z), 1−P(z))
// over all labels — crosses a threshold. For each threshold it reports the
// budget actually consumed and the true accuracy achieved, quantifying the
// money saved per point of accuracy given up.
type StoppingResult struct {
	Dataset    string
	Thresholds []float64
	// Consumed[i] is the number of paid assignments used before threshold
	// i was reached (or the full budget if never reached).
	Consumed []int
	// EstAcc[i] is the model's estimated accuracy at stop time.
	EstAcc []float64
	// TrueAcc[i] is the ground-truth accuracy at stop time.
	TrueAcc []float64
}

// RunStopping runs the AccOpt campaign once per early-stopping threshold.
func RunStopping(s Scenario, thresholds []float64) (*StoppingResult, error) {
	if len(thresholds) == 0 {
		// The mean-of-posteriors aggregation (Eq. 14) keeps P(z) soft, so
		// the estimated accuracy runs ~8 points below the true accuracy;
		// the operative threshold range is therefore lower than the true
		// accuracies one would guess.
		thresholds = []float64{0.68, 0.72, 0.75, 1.01}
	}
	res := &StoppingResult{Dataset: s.DatasetName, Thresholds: thresholds}
	for _, tau := range thresholds {
		consumed, est, acc, err := runUntil(s, tau)
		if err != nil {
			return nil, err
		}
		res.Consumed = append(res.Consumed, consumed)
		res.EstAcc = append(res.EstAcc, est)
		res.TrueAcc = append(res.TrueAcc, acc)
	}
	return res, nil
}

// estimatedAccuracy is the early-stopping signal: mean over labels of
// max(P(z), 1-P(z)).
func estimatedAccuracy(res *model.Result) float64 {
	var sum float64
	var n int
	for _, probs := range res.Prob {
		for _, p := range probs {
			if p < 0.5 {
				p = 1 - p
			}
			sum += p
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// runUntil runs the AccOpt campaign, checking the stopping signal at every
// 50-assignment boundary: frequent enough to save budget, cheap enough not
// to dominate run time.
func runUntil(s Scenario, tau float64) (consumed int, est, acc float64, err error) {
	env, err := s.Build()
	if err != nil {
		return 0, 0, 0, err
	}
	var checks []int
	for b := 50; b <= s.Budget; b += 50 {
		checks = append(checks, b)
	}
	camp, err := env.RunCampaign(Campaign{
		Assigner:    poilabel.AssignerAccOpt,
		Checkpoints: checks,
		Check: func(_ int, res *model.Result) bool {
			return estimatedAccuracy(res) >= tau
		},
	})
	if err != nil {
		return 0, 0, 0, err
	}
	return len(camp.Answers), estimatedAccuracy(camp.Final), model.Accuracy(camp.Final, env.Data.Truth), nil
}

// Table renders the threshold sweep.
func (r *StoppingResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Early stopping (%s): estimated-accuracy threshold vs budget and true accuracy", r.Dataset),
		"threshold", "budget used", "estimated acc", "true acc")
	for i, tau := range r.Thresholds {
		name := fmt.Sprintf("%.2f", tau)
		if tau > 1 {
			name = "never (full budget)"
		}
		t.AddRowf(name, r.Consumed[i],
			fmt.Sprintf("%.1f%%", 100*r.EstAcc[i]),
			fmt.Sprintf("%.1f%%", 100*r.TrueAcc[i]))
	}
	return t
}

func (r *StoppingResult) String() string { return r.Table().String() }
