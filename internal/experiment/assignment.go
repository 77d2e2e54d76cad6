package experiment

import (
	"fmt"

	"poilabel"
	"poilabel/internal/model"
	"poilabel/internal/stats"
)

// AssignerName identifies an assignment algorithm in results.
type AssignerName string

// The assignment algorithms compared in the paper's Section V-D.
const (
	AssignRandom AssignerName = "Random"
	AssignSF     AssignerName = "SF"
	AssignAccOpt AssignerName = "AccOpt"
)

// DefaultAssigners is the paper's comparison set.
var DefaultAssigners = []AssignerName{AssignRandom, AssignSF, AssignAccOpt}

// assignerKinds maps the paper's names to the service's strategies.
var assignerKinds = map[AssignerName]poilabel.AssignerKind{
	AssignRandom: poilabel.AssignerRandom,
	AssignSF:     poilabel.AssignerSpatialFirst,
	AssignAccOpt: poilabel.AssignerAccOpt,
}

// AssignmentRun is one assigner's trajectory through the budget sweep plus
// the paper's Table II statistics at the final budget.
type AssignmentRun struct {
	Assigner AssignerName
	Budgets  []int
	// Accuracy[i] is the inference accuracy after Budgets[i] assignments.
	Accuracy []float64
	// WorkerQuality is the average real accuracy of all submitted answers
	// (Table II column 1).
	WorkerQuality float64
	// Distribution is the share of tasks with <3, 3–7, and >7 answers
	// (Table II column 2).
	Distribution [3]float64
	// AvgAcc is the mean Acc_{t,k} = P(z_{t,k} = truth) over all labels
	// (Table II column 3).
	AvgAcc float64
}

// Fig11Result is the paper's Figure 11 and Table II: accuracy of the task
// assignment algorithms across budgets, with assignment statistics.
type Fig11Result struct {
	Dataset string
	Runs    []AssignmentRun
}

// RunFig11 executes Deployment 2 for each assigner: dynamic worker
// arrivals, h tasks per request, inference updated per the paper's policy
// (incremental EM with a full run every 100 submissions), and accuracy
// checkpoints at each budget level.
func RunFig11(s Scenario) (*Fig11Result, error) {
	res := &Fig11Result{Dataset: s.DatasetName}
	for _, name := range DefaultAssigners {
		run, err := runAssignment(s, name)
		if err != nil {
			return nil, err
		}
		res.Runs = append(res.Runs, *run)
	}
	return res, nil
}

func runAssignment(s Scenario, name AssignerName) (*AssignmentRun, error) {
	kind, ok := assignerKinds[name]
	if !ok {
		return nil, fmt.Errorf("experiment: unknown assigner %q", name)
	}
	env, err := s.Build()
	if err != nil {
		return nil, err
	}
	run := &AssignmentRun{Assigner: name, Budgets: Budgets}
	camp, err := env.RunCampaign(Campaign{
		Assigner:    kind,
		Seed:        s.Seed + 100,
		Checkpoints: Budgets,
		Check: func(_ int, res *model.Result) bool {
			run.Accuracy = append(run.Accuracy, model.Accuracy(res, env.Data.Truth))
			return false
		},
	})
	if err != nil {
		return nil, err
	}
	for len(run.Accuracy) < len(Budgets) {
		// Budget exhausted early (task pool too small): repeat the final
		// accuracy so every run has a full series.
		run.Accuracy = append(run.Accuracy, model.Accuracy(camp.Final, env.Data.Truth))
	}

	// Table II column 1: average real accuracy of submitted answers.
	var qsum float64
	perTask := make([]int, len(env.Data.Tasks))
	for i := range camp.Answers {
		qsum += model.AnswerAccuracy(&camp.Answers[i], env.Data.Truth)
		perTask[camp.Answers[i].Task]++
	}
	if len(camp.Answers) > 0 {
		run.WorkerQuality = qsum / float64(len(camp.Answers))
	}
	// Table II column 2: distribution of answers per task.
	var lo, mid, hi int
	for _, n := range perTask {
		switch {
		case n < 3:
			lo++
		case n <= 7:
			mid++
		default:
			hi++
		}
	}
	total := float64(len(env.Data.Tasks))
	run.Distribution = [3]float64{float64(lo) / total, float64(mid) / total, float64(hi) / total}
	// Table II column 3: average Acc_{t,k} against ground truth.
	var asum float64
	var n int
	for t, probs := range camp.Final.Prob {
		for k, p := range probs {
			if !env.Data.Truth.Label(model.TaskID(t), k) {
				p = 1 - p
			}
			asum += p
			n++
		}
	}
	run.AvgAcc = asum / float64(n)
	return run, nil
}

// Table renders the Figure 11 budget sweep.
func (r *Fig11Result) Table() *stats.Table {
	t := stats.NewTable(fmt.Sprintf("Figure 11 (%s): accuracy of task assignment algorithms", r.Dataset),
		"#assignments", "Random", "SF", "AccOpt")
	for i, b := range Budgets {
		row := []interface{}{b}
		for _, run := range r.Runs {
			row = append(row, fmt.Sprintf("%.1f%%", 100*run.Accuracy[i]))
		}
		t.AddRowf(row...)
	}
	return t
}

// StatsTable renders the Table II statistics.
func (r *Fig11Result) StatsTable() *stats.Table {
	t := stats.NewTable(fmt.Sprintf("Table II (%s): evaluation of task assignment algorithms", r.Dataset),
		"method", "worker quality", "assigned workers [<3, 3-7, >7]", "average Acc")
	for _, run := range r.Runs {
		t.AddRowf(string(run.Assigner),
			fmt.Sprintf("%.1f%%", 100*run.WorkerQuality),
			fmt.Sprintf("[%.0f%%, %.0f%%, %.0f%%]",
				100*run.Distribution[0], 100*run.Distribution[1], 100*run.Distribution[2]),
			fmt.Sprintf("%.1f%%", 100*run.AvgAcc))
	}
	return t
}

func (r *Fig11Result) String() string {
	return r.Table().String() + "\n" + r.StatsTable().String()
}
