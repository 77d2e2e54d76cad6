package experiment

import (
	"fmt"
	"testing"

	"poilabel"
	"poilabel/internal/model"
	"poilabel/internal/stats"
)

// shapeArm is one engine shape of the shape claims: the options that select
// it on a campaign's service.
type shapeArm struct {
	name string
	opts []poilabel.ServiceOption
}

// TestShapeClaims holds every partitioned engine shape to the single
// engine's AccOpt campaign over the 20 claims seeds per world: a partition
// node plans the same greedy over every task, so its label accuracy is
// within 0.3 pt of single's in the mean (a tenth of the ~3 pt seed spread),
// it is behind on no more than 14 of 20 seeds (fewer than a one-sided sign
// test would call significant), and at least 88 % of tasks end with 3–7
// answers (Table II's middle column). Shards are for fitting: a shape that
// plans inside the region nearest each worker starves the tasks far from
// every residential centre and fails all three.
func TestShapeClaims(t *testing.T) {
	seeds := ClaimsSeeds(101)
	const (
		maxGap      = 0.003
		maxBehind   = 14
		minCoverage = 0.88
	)
	arms := []shapeArm{
		{"single", nil},
		{"sharded K=4", []poilabel.ServiceOption{poilabel.WithEngine(poilabel.EngineSharded), poilabel.WithShards(4)}},
		{"federated 2x2", []poilabel.ServiceOption{poilabel.WithEngine(poilabel.EngineFederated), poilabel.WithCities(2), poilabel.WithShards(2)}},
	}
	for _, world := range []string{"Beijing", "China"} {
		t.Run(world, func(t *testing.T) {
			t.Parallel()
			acc := make([][]float64, len(arms))
			cov := make([][]float64, len(arms))
			for _, seed := range seeds {
				for i, arm := range arms {
					a, c, err := shapeCampaign(DefaultScenario(world, seed), arm.opts)
					if err != nil {
						t.Fatalf("%s seed %d: %v", arm.name, seed, err)
					}
					acc[i] = append(acc[i], a)
					cov[i] = append(cov[i], c)
				}
			}
			single := stats.Mean(acc[0])
			log := fmt.Sprintf("%-14s accuracy %.2f%%, 3-7 answers on %.1f%% of tasks\n", arms[0].name, 100*single, 100*stats.Mean(cov[0]))
			for i := 1; i < len(arms); i++ {
				behind := 0
				for s := range seeds {
					if acc[i][s] < acc[0][s] {
						behind++
					}
				}
				gap := stats.Mean(acc[i]) - single
				coverage := stats.Mean(cov[i])
				log += fmt.Sprintf("%-14s accuracy %+.2f pt against single, behind on %d/%d seeds, 3-7 answers on %.1f%% of tasks\n",
					arms[i].name, 100*gap, behind, len(seeds), 100*coverage)
				if gap < -maxGap {
					t.Errorf("%s: mean accuracy %+.2f pt against single, want within %.1f pt", arms[i].name, 100*gap, 100*maxGap)
				}
				if behind > maxBehind {
					t.Errorf("%s: behind single on %d/%d seeds, want at most %d", arms[i].name, behind, len(seeds), maxBehind)
				}
				if coverage < minCoverage {
					t.Errorf("%s: 3-7 answers on %.1f%% of tasks, want at least %.0f%%", arms[i].name, 100*coverage, 100*minCoverage)
				}
			}
			t.Logf("AccOpt campaigns at budget %d over %d seeds\n%s", DefaultScenario(world, 0).Budget, len(seeds), log)
		})
	}
}

// shapeCampaign runs one AccOpt campaign at the scenario's seed on a fresh
// environment and returns its final label accuracy and the share of tasks
// that received 3–7 answers.
func shapeCampaign(s Scenario, opts []poilabel.ServiceOption) (accuracy, coverage float64, err error) {
	env, err := s.Build()
	if err != nil {
		return 0, 0, err
	}
	camp, err := env.RunCampaign(Campaign{Assigner: poilabel.AssignerAccOpt, Seed: s.Seed + 100, Options: opts})
	if err != nil {
		return 0, 0, err
	}
	perTask := make([]int, len(env.Data.Tasks))
	for _, a := range camp.Answers {
		perTask[a.Task]++
	}
	mid := 0
	for _, n := range perTask {
		if n >= 3 && n <= 7 {
			mid++
		}
	}
	return model.Accuracy(camp.Final, env.Data.Truth), float64(mid) / float64(len(perTask)), nil
}
