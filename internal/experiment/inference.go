package experiment

import (
	"fmt"

	"poilabel/internal/baseline"
	"poilabel/internal/model"
	"poilabel/internal/stats"
)

// Budgets is the paper's budget sweep for Figures 9 and 11.
var Budgets = []int{600, 700, 800, 900, 1000}

// Fig9Result is the paper's Figure 9: inference accuracy of MV, EM
// (Dawid–Skene) and IM (this paper) at increasing numbers of assignments.
type Fig9Result struct {
	Dataset string
	Budgets []int
	// MV, EM, IM are accuracies (0..1) per budget.
	MV, EM, IM []float64
}

// RunFig9 collects one Deployment 1 answer log and replays prefixes of it
// at each budget level through the three inference methods.
func RunFig9(s Scenario) (*Fig9Result, error) {
	env, err := s.Build()
	if err != nil {
		return nil, err
	}
	full, err := env.Collect()
	if err != nil {
		return nil, err
	}

	res := &Fig9Result{Dataset: s.DatasetName, Budgets: Budgets}
	for _, b := range Budgets {
		answers := full.Truncate(b)

		mv := baseline.MajorityVote{}.Infer(env.Data.Tasks, answers)
		res.MV = append(res.MV, model.Accuracy(mv, env.Data.Truth))

		em := baseline.DawidSkene{}.Infer(env.Data.Tasks, answers)
		res.EM = append(res.EM, model.Accuracy(em, env.Data.Truth))

		m, _, err := env.FitModel(answers)
		if err != nil {
			return nil, err
		}
		res.IM = append(res.IM, model.Accuracy(m.Result(), env.Data.Truth))
	}
	return res, nil
}

// Table renders the figure's series.
func (r *Fig9Result) Table() *stats.Table {
	t := stats.NewTable(fmt.Sprintf("Figure 9 (%s): accuracy of the inference models", r.Dataset),
		"#assignments", "MV", "EM", "IM")
	for i, b := range r.Budgets {
		t.AddRowf(b,
			fmt.Sprintf("%.1f%%", 100*r.MV[i]),
			fmt.Sprintf("%.1f%%", 100*r.EM[i]),
			fmt.Sprintf("%.1f%%", 100*r.IM[i]))
	}
	return t
}

func (r *Fig9Result) String() string { return r.Table().String() }

// Fig10Result is the paper's Figure 10: the EM convergence trace — maximum
// parameter change per iteration — plus the iteration at which it crosses
// the paper's 0.005 threshold.
type Fig10Result struct {
	Dataset string
	// Trace[i] is the maximum parameter change after iteration i+1.
	Trace []float64
	// ItersTo005 is the first iteration with change < 0.005 (-1 if never).
	ItersTo005 int
	Converged  bool
}

// RunFig10 fits the model on the full Deployment 1 log and reports the
// convergence trace.
func RunFig10(s Scenario) (*Fig10Result, error) {
	env, err := s.Build()
	if err != nil {
		return nil, err
	}
	answers, err := env.Collect()
	if err != nil {
		return nil, err
	}
	_, fit, err := env.FitModel(answers)
	if err != nil {
		return nil, err
	}
	res := &Fig10Result{Dataset: s.DatasetName, Trace: fit.DeltaTrace, Converged: fit.Converged, ItersTo005: -1}
	for i, d := range fit.DeltaTrace {
		if d < 0.005 {
			res.ItersTo005 = i + 1
			break
		}
	}
	return res, nil
}

// Table renders the trace at the paper's sampled iterations.
func (r *Fig10Result) Table() *stats.Table {
	t := stats.NewTable(fmt.Sprintf("Figure 10 (%s): convergence of the inference model (threshold 0.005 at iter %d)",
		r.Dataset, r.ItersTo005),
		"iteration", "max parameter change")
	for _, it := range []int{1, 5, 10, 15, 20, 25, 30, 40, 60, 80, 100, 150} {
		if it > len(r.Trace) {
			break
		}
		t.AddRowf(it, fmt.Sprintf("%.4f", r.Trace[it-1]))
	}
	return t
}

func (r *Fig10Result) String() string { return r.Table().String() }
