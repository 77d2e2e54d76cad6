package experiment

import (
	"context"
	"fmt"
	"strconv"

	"poilabel"
	"poilabel/internal/model"
)

// Campaign is one run of the paper's Deployment 2 (Definition 1, §V-A)
// through the front door every user calls, poilabel.Service: workers arrive,
// each gets h tasks, the simulated crowd answers, and the service updates its
// model per answer with a full EM every 100 submissions. The scenario fixes
// the budget, h and the model configuration.
type Campaign struct {
	// Assigner is the service's assignment strategy.
	Assigner poilabel.AssignerKind
	// Seed seeds the random assigner.
	Seed int64
	// WorkersPerRound is how many workers arrive each round; zero means the
	// paper's five.
	WorkersPerRound int
	// Options follow the campaign's own options, so they override them.
	Options []poilabel.ServiceOption
	// Checkpoints are ascending counts of accepted answers. After the round
	// that reaches one the campaign fits, reads the results and calls Check;
	// Check returning true ends the campaign.
	Checkpoints []int
	Check       func(answered int, res *model.Result) (stop bool)
}

// CampaignResult is what a campaign leaves behind.
type CampaignResult struct {
	// Answers is every submitted answer in submission order.
	Answers []model.Answer
	// Final is the inference over every answer once the campaign has ended.
	Final *model.Result
}

// RunCampaign runs c over the environment's world and crowd. It registers
// every task and worker (ids are their decimal indices), then each round
// samples the arriving workers, asks the service for their tasks and submits
// the simulated answers in worker order. It ends when the budget is spent,
// when Check stops it, or after 3·|W| rounds in a row hand out nothing (the
// task pool is exhausted). Unless a checkpoint fit already covers every
// answer it fits once more, and it fails if the service's books disagree
// with what was submitted.
func (e *Env) RunCampaign(c Campaign) (*CampaignResult, error) {
	perRound := c.WorkersPerRound
	if perRound == 0 {
		perRound = 5
	}
	if perRound < 0 || e.Scenario.Budget <= 0 {
		return nil, fmt.Errorf("experiment: campaign needs a positive budget and workers per round (got %d, %d)", e.Scenario.Budget, perRound)
	}
	svc, err := e.newService(c)
	if err != nil {
		return nil, err
	}
	//lint:ignore ctxflow a campaign is a root: its Runner has no caller context
	ctx := context.Background()

	out := &CampaignResult{}
	next, fitted, empty := 0, -1, 0
	for svc.RemainingBudget() != 0 {
		workers := e.Sim.SampleAvailable(perRound)
		ids := make([]string, len(workers))
		for i, w := range workers {
			ids[i] = strconv.Itoa(int(w))
		}
		plan, err := svc.RequestTasks(ctx, ids)
		if err != nil {
			return nil, err
		}
		before := len(out.Answers)
		for i, w := range workers {
			for _, tid := range plan[ids[i]] {
				t, err := strconv.Atoi(tid)
				if err != nil {
					return nil, err
				}
				a := e.Sim.Answer(w, model.TaskID(t))
				if err := svc.SubmitAnswerContext(ctx, ids[i], tid, a.Selected); err != nil {
					return nil, err
				}
				out.Answers = append(out.Answers, a)
			}
		}
		if len(out.Answers) == before {
			if empty++; empty > 3*len(e.Workers) {
				break
			}
			continue
		}
		empty = 0
		stop := false
		for !stop && next < len(c.Checkpoints) && len(out.Answers) >= c.Checkpoints[next] {
			res, err := fitAndRead(ctx, svc)
			if err != nil {
				return nil, err
			}
			fitted = len(out.Answers)
			next++
			stop = c.Check != nil && c.Check(fitted, res)
		}
		if stop {
			break
		}
	}
	if fitted == len(out.Answers) {
		out.Final, err = svc.ResultSet(ctx)
	} else {
		out.Final, err = fitAndRead(ctx, svc)
	}
	if err != nil {
		return nil, err
	}
	if err := checkBooks(svc, e.Scenario.Budget, out.Answers); err != nil {
		return nil, err
	}
	return out, nil
}

// newService builds the campaign's service and registers the world on it.
func (e *Env) newService(c Campaign) (*poilabel.Service, error) {
	opts := append([]poilabel.ServiceOption{
		poilabel.WithBudget(e.Scenario.Budget),
		poilabel.WithTasksPerRequest(e.Scenario.H),
		poilabel.WithFullEMInterval(100),
		poilabel.WithAssigner(c.Assigner),
		poilabel.WithSeed(c.Seed),
		poilabel.WithModelConfig(e.Scenario.ModelConfig),
	}, c.Options...)
	svc, err := poilabel.NewService(opts...)
	if err != nil {
		return nil, err
	}
	for i, t := range e.Data.Tasks {
		spec := poilabel.TaskSpec{Name: t.Name, Location: t.Location, Labels: t.Labels, Reviews: t.Reviews}
		if err := svc.AddTask(strconv.Itoa(i), spec); err != nil {
			return nil, err
		}
	}
	for i, w := range e.Workers {
		if err := svc.AddWorker(strconv.Itoa(i), poilabel.WorkerSpec{Name: w.Name, Locations: w.Locations}); err != nil {
			return nil, err
		}
	}
	return svc, nil
}

// fitAndRead runs a full fit and reads the generation it published.
func fitAndRead(ctx context.Context, svc *poilabel.Service) (*model.Result, error) {
	if _, err := svc.Fit(ctx); err != nil {
		return nil, err
	}
	return svc.ResultSet(ctx)
}

// checkBooks holds the service's accounting to the campaign's answer log:
// every handed-out pair was answered once, and nothing is left pending.
func checkBooks(svc *poilabel.Service, budget int, answers []model.Answer) error {
	spent := budget - svc.RemainingBudget()
	if n := svc.AnswerCount(); n != len(answers) || n != spent {
		return fmt.Errorf("experiment: service accepted %d answers and spent %d of its budget; the campaign submitted %d", n, spent, len(answers))
	}
	if p := svc.PendingCount(); p != 0 {
		return fmt.Errorf("experiment: %d handed-out pairs left pending", p)
	}
	seen := make(map[[2]int]bool, len(answers))
	for _, a := range answers {
		pair := [2]int{int(a.Worker), int(a.Task)}
		if seen[pair] {
			return fmt.Errorf("experiment: worker %d answered task %d twice", a.Worker, a.Task)
		}
		seen[pair] = true
	}
	return nil
}
