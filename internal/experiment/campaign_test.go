package experiment

import (
	"context"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"poilabel"
	"poilabel/internal/crowd"
	"poilabel/internal/dataset"
	"poilabel/internal/model"
)

// smallEnv is a 40-task world with the default 30-worker population: 1 200
// (worker, task) pairs, few enough for a campaign to exhaust.
func smallEnv(t *testing.T, seed int64, budget, h int) *Env {
	t.Helper()
	d := dataset.Generate(dataset.Config{Name: "test", NumTasks: 40, LabelsPerTask: 5}, 1)
	workers, profiles, err := crowd.GeneratePopulation(crowd.DefaultPopulation(d.Bounds), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := crowd.NewSimulator(d, workers, profiles, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	s := DefaultScenario("test", seed)
	s.Budget, s.H = budget, h
	return &Env{Scenario: s, Data: d, Workers: workers, Profiles: profiles, Sim: sim}
}

// For random budgets (most not a whole number of rounds, so the service trims
// the last one), round sizes, h, arrival skews and assigners, a campaign
// spends exactly its budget, answers every pair it was handed once, and
// leaves nothing pending. RunCampaign checks the service's books itself and
// fails otherwise; the answer log is checked here as well.
func TestCampaignInvariantsFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	kinds := []poilabel.AssignerKind{poilabel.AssignerAccOpt, poilabel.AssignerSpatialFirst,
		poilabel.AssignerRandom}
	for trial := 0; trial < 12; trial++ {
		budget := 10 + rng.Intn(300)
		h := 1 + rng.Intn(4)
		perRound := 1 + rng.Intn(8)
		seed := rng.Int63()

		env := smallEnv(t, seed, budget, h)
		if trial%2 == 0 {
			// A heavy-tailed arrival process: weight ∝ 1/(i+1)^1.3.
			env.Sim.Activity = make([]float64, len(env.Workers))
			for i := range env.Sim.Activity {
				env.Sim.Activity[i] = 1 / math.Pow(float64(i+1), 1.3)
			}
		}
		camp, err := env.RunCampaign(Campaign{
			Assigner:        kinds[trial%len(kinds)],
			Seed:            seed + 2,
			WorkersPerRound: perRound,
		})
		if err != nil {
			t.Fatalf("trial %d (budget %d, h %d, %d per round): %v", trial, budget, h, perRound, err)
		}
		if len(camp.Answers) != budget {
			t.Errorf("trial %d: %d answers for budget %d", trial, len(camp.Answers), budget)
		}
		seen := map[[2]int]bool{}
		for _, a := range camp.Answers {
			key := [2]int{int(a.Worker), int(a.Task)}
			if seen[key] {
				t.Fatalf("trial %d: duplicate pair %v", trial, key)
			}
			seen[key] = true
		}
	}
}

// 40 tasks × 30 workers = 1 200 possible pairs: a budget beyond that can never
// be filled, and the campaign must end anyway once the pool is exhausted.
func TestCampaignStopsWhenTasksExhausted(t *testing.T) {
	env := smallEnv(t, 36, 5000, 4)
	camp, err := env.RunCampaign(Campaign{
		Assigner:        poilabel.AssignerRandom,
		Seed:            38,
		WorkersPerRound: 10,
		Options:         []poilabel.ServiceOption{poilabel.WithFullEMInterval(0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(camp.Answers) != 40*30 {
		t.Errorf("campaign submitted %d answers, want all %d possible pairs", len(camp.Answers), 40*30)
	}
}

func TestCampaignImprovesAccuracyOverPrior(t *testing.T) {
	env := smallEnv(t, 40, 400, 2)
	camp, err := env.RunCampaign(Campaign{Assigner: poilabel.AssignerAccOpt})
	if err != nil {
		t.Fatal(err)
	}
	// A prior-only model scores ~0.46 (all labels inferred "yes"); after
	// 400 quality-driven assignments we must be far above that.
	if acc := model.Accuracy(camp.Final, env.Data.Truth); acc < 0.6 {
		t.Errorf("post-campaign accuracy = %v, want >= 0.6", acc)
	}
}

// A campaign spends its whole budget when the pool has pairs to spare, and
// the service's books (checked by RunCampaign) agree with the answer log.
func TestCampaignExhaustsBudget(t *testing.T) {
	env := smallEnv(t, 34, 50, 2)
	camp, err := env.RunCampaign(Campaign{Assigner: poilabel.AssignerAccOpt})
	if err != nil {
		t.Fatal(err)
	}
	if len(camp.Answers) != 50 {
		t.Errorf("campaign submitted %d answers, want the full budget of 50", len(camp.Answers))
	}
	if camp.Final == nil {
		t.Error("no final inference")
	}
}

// 4 workers × 2 tasks = 8 wanted in the first round, but a budget of 7 caps
// it: the service trims that round to 7, and the campaign ends after it.
func TestCampaignLastRoundCappedByBudget(t *testing.T) {
	env := smallEnv(t, 32, 7, 2)
	firstRound := -1
	camp, err := env.RunCampaign(Campaign{
		Assigner:        poilabel.AssignerRandom,
		Seed:            33,
		WorkersPerRound: 4,
		Checkpoints:     []int{1},
		Check: func(answered int, _ *model.Result) bool {
			firstRound = answered
			return false
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if firstRound != 7 {
		t.Errorf("first round submitted %d answers, want 7 (budget cap)", firstRound)
	}
	if len(camp.Answers) != 7 {
		t.Errorf("campaign submitted %d answers, want 7", len(camp.Answers))
	}
}

func TestCampaignRejectsNonPositiveBudget(t *testing.T) {
	for _, budget := range []int{0, -5} {
		if _, err := smallEnv(t, 30, budget, 2).RunCampaign(Campaign{}); err == nil {
			t.Errorf("budget %d accepted", budget)
		}
	}
}

func TestCampaignRejectsInvalidConfig(t *testing.T) {
	if _, err := smallEnv(t, 30, 10, 2).RunCampaign(Campaign{WorkersPerRound: -1}); err == nil {
		t.Error("negative workers per round accepted")
	}
	if _, err := smallEnv(t, 30, 10, 0).RunCampaign(Campaign{}); err == nil {
		t.Error("h = 0 accepted")
	}
	if _, err := smallEnv(t, 30, 10, 2).RunCampaign(Campaign{Assigner: poilabel.AssignerKind(99)}); err == nil {
		t.Error("unknown assigner accepted")
	}
}

// The books check is what makes every campaign an accounting test: it must
// fail on a pair left pending, on a log the service disagrees with, and on a
// pair answered twice.
func TestCheckBooksCatchesBadAccounting(t *testing.T) {
	env := smallEnv(t, 41, 20, 2)
	ctx := context.Background()
	answer := func(svc *poilabel.Service, w model.WorkerID, tid string) model.Answer {
		t.Helper()
		task, err := strconv.Atoi(tid)
		if err != nil {
			t.Fatal(err)
		}
		a := env.Sim.Answer(w, model.TaskID(task))
		if err := svc.SubmitAnswer(strconv.Itoa(int(w)), tid, a.Selected); err != nil {
			t.Fatal(err)
		}
		return a
	}
	handOut := func() (*poilabel.Service, []string) {
		t.Helper()
		svc, err := env.newService(Campaign{})
		if err != nil {
			t.Fatal(err)
		}
		if err := checkBooks(svc, 20, nil); err != nil {
			t.Fatalf("fresh service: %v", err)
		}
		plan, err := svc.RequestTasks(ctx, []string{"0"})
		if err != nil || len(plan["0"]) != 2 {
			t.Fatalf("plan = %v, %v", plan, err)
		}
		return svc, plan["0"]
	}

	// Two pairs handed out to worker 0, two unsolicited answers from worker
	// 1: the counts balance, but the handed-out pairs are still pending.
	svc, _ := handOut()
	unsolicited := []model.Answer{answer(svc, 1, "0"), answer(svc, 1, "1")}
	if err := checkBooks(svc, 20, unsolicited); err == nil || !strings.Contains(err.Error(), "pending") {
		t.Errorf("pending pairs passed: %v", err)
	}

	svc, tids := handOut()
	var answers []model.Answer
	for _, tid := range tids {
		answers = append(answers, answer(svc, 0, tid))
	}
	if err := checkBooks(svc, 20, answers); err != nil {
		t.Fatalf("balanced books: %v", err)
	}
	if err := checkBooks(svc, 20, answers[:1]); err == nil || !strings.Contains(err.Error(), "submitted 1") {
		t.Errorf("short log passed: %v", err)
	}
	if err := checkBooks(svc, 20, []model.Answer{answers[0], answers[0]}); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate pair passed: %v", err)
	}
}
