// Benchmarks: one per table and figure of the paper's evaluation section,
// plus the ablations EXPERIMENTS.md lists under "Beyond the paper". Each
// benchmark executes the same code path as the corresponding `poibench <id>`
// command (which prints the full row/series output) and reports headline
// metrics via b.ReportMetric so a single `go test -bench=. -benchmem` run
// records both cost and quality.
//
// Figure/table mapping:
//
//	BenchmarkFig6WorkerQuality        — Fig. 6  worker-quality histogram
//	BenchmarkFig7DistanceWorker       — Fig. 7  distance impact per worker
//	BenchmarkFig8DistancePOI          — Fig. 8  distance impact per POI tier
//	BenchmarkTable1CaseStudy          — Table I case study
//	BenchmarkFig9InferenceAccuracy    — Fig. 9  MV/EM/IM accuracy sweep
//	BenchmarkFig10Convergence         — Fig. 10 EM convergence
//	BenchmarkFig11AssignmentAccuracy  — Fig. 11 + Table II assignment sweep
//	BenchmarkFig12InferenceTime       — Fig. 12 inference elapsed time
//	BenchmarkFig13InferenceScalability — Fig. 13 inference scalability
//	BenchmarkFig14AssignmentScalability — Fig. 14 assignment scalability
package poilabel_test

import (
	"fmt"
	"testing"
	"time"

	"poilabel/internal/assign"
	"poilabel/internal/baseline"
	"poilabel/internal/core"
	"poilabel/internal/experiment"
	"poilabel/internal/model"
)

const benchSeed = 7

func BenchmarkFig6WorkerQuality(b *testing.B) {
	s := experiment.DefaultScenario("Beijing", benchSeed)
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunFig6(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7DistanceWorker(b *testing.B) {
	s := experiment.DefaultScenario("Beijing", benchSeed)
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunFig7(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8DistancePOI(b *testing.B) {
	s := experiment.DefaultScenario("Beijing", benchSeed)
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunFig8(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1CaseStudy(b *testing.B) {
	s := experiment.DefaultScenario("Beijing", benchSeed)
	var acc float64
	for i := 0; i < b.N; i++ {
		r, err := experiment.RunTable1(s)
		if err != nil {
			b.Fatal(err)
		}
		acc = r.TaskAccuracy
	}
	b.ReportMetric(100*acc, "caseAcc%")
}

func BenchmarkFig9InferenceAccuracy(b *testing.B) {
	s := experiment.DefaultScenario("Beijing", benchSeed)
	var r *experiment.Fig9Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiment.RunFig9(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(r.Budgets) - 1
	b.ReportMetric(100*r.MV[last], "MV%")
	b.ReportMetric(100*r.EM[last], "EM%")
	b.ReportMetric(100*r.IM[last], "IM%")
}

func BenchmarkFig10Convergence(b *testing.B) {
	s := experiment.DefaultScenario("Beijing", benchSeed)
	var r *experiment.Fig10Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiment.RunFig10(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.ItersTo005), "itersTo.005")
}

func BenchmarkFig11AssignmentAccuracy(b *testing.B) {
	s := experiment.DefaultScenario("Beijing", benchSeed)
	var r *experiment.Fig11Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiment.RunFig11(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(experiment.Budgets) - 1
	for _, run := range r.Runs {
		b.ReportMetric(100*run.Accuracy[last], string(run.Assigner)+"%")
	}
}

func BenchmarkFig12InferenceTime(b *testing.B) {
	s := experiment.DefaultScenario("Beijing", benchSeed)
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunFig12(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13InferenceScalability(b *testing.B) {
	// The paper sweeps 10k..50k answers; one mid-scale point keeps the
	// benchmark honest while `poibench fig13` runs the full sweep.
	var r *experiment.Fig13Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiment.RunFig13(benchSeed, []int{20000})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Seconds[0], "fitSec")
	b.ReportMetric(float64(r.Iterations[0]), "iters")
}

func BenchmarkFig14AssignmentScalability(b *testing.B) {
	var r *experiment.Fig14Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiment.RunFig14(benchSeed, []int{4000}, []int{40})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.TaskMs[0], "assignMs@4k")
	b.ReportMetric(r.WorkerMs[0], "assignMs@10k/40w")
}

// --- Ablation benches (EXPERIMENTS.md, "Beyond the paper") ---

func BenchmarkAblationAlpha(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunAblationAlpha(benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFunctionSetSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunAblationFuncSet(benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationUpdatePolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunAblationUpdatePolicy(benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationGreedy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunAblationGreedy(benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the hot paths ---

// BenchmarkEMIteration measures one full E/M pass over the paper-scale
// answer log (1000 answers x 10 labels).
func BenchmarkEMIteration(b *testing.B) {
	env := experiment.DefaultScenario("Beijing", benchSeed).MustBuild()
	answers, err := env.Collect()
	if err != nil {
		b.Fatal(err)
	}
	env.Scenario.ModelConfig.MaxIter = 1
	m, err := env.NewModel()
	if err != nil {
		b.Fatal(err)
	}
	for _, a := range answers.All() {
		if err := m.Observe(a); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Fit() // exactly one iteration at MaxIter=1
	}
}

// BenchmarkIncrementalUpdate measures the Section III-D per-answer update.
func BenchmarkIncrementalUpdate(b *testing.B) {
	env := experiment.DefaultScenario("Beijing", benchSeed).MustBuild()
	answers, err := env.Collect()
	if err != nil {
		b.Fatal(err)
	}
	m, err := env.NewModel()
	if err != nil {
		b.Fatal(err)
	}
	for _, a := range answers.All() {
		if err := m.Observe(a); err != nil {
			b.Fatal(err)
		}
	}
	m.Fit()
	// Pre-generate fresh (worker, task) answers not in the warm log.
	var fresh []model.Answer
	for wi := range env.Workers {
		for ti := range env.Data.Tasks {
			w, task := model.WorkerID(wi), model.TaskID(ti)
			if !m.Answers().Has(w, task) {
				fresh = append(fresh, env.Sim.Answer(w, task))
			}
		}
	}
	if len(fresh) == 0 {
		b.Fatal("no fresh pairs available")
	}
	b.ResetTimer()
	j := 0
	for i := 0; i < b.N; i++ {
		if j >= len(fresh) {
			// Exhausted the fresh pool: restart from the warm log.
			b.StopTimer()
			m2, err := env.NewModel()
			if err != nil {
				b.Fatal(err)
			}
			for _, a := range answers.All() {
				if err := m2.Observe(a); err != nil {
					b.Fatal(err)
				}
			}
			m2.Fit()
			m = m2
			j = 0
			b.StartTimer()
		}
		if err := m.Update(fresh[j]); err != nil {
			b.Fatal(err)
		}
		j++
	}
}

// BenchmarkAccOptAssign measures one assignment round on a warm model. S is
// the paper's deployment (200 tasks, 5 workers); M and L are synthetic worlds
// up to the Figure 14 sweep sizes, nine tasks in ten still unanswered, so the
// row kernel mostly takes its cold-task branch there. Round10 and Single are
// the shapes the service plans: a 10-worker round over 5 000 tasks and one
// worker's row over 2 000 (a shard's share), both on a fitted log of four
// answers per task, where every pair pays both mixtures. Round10Excluding is
// Round10 with four excluded tasks per worker, the pending pairs a service
// round passes its planner. Rounds run on a reused Planner, the steady state
// of an assignment loop; ns/pair is the round's time over |W|·|T|.
func BenchmarkAccOptAssign(b *testing.B) {
	run := func(b *testing.B, m *core.Model, workers []model.WorkerID, ex assign.Exclusions) {
		pl := assign.NewPlanner()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pl.AssignExcluding(m, workers, 2, ex)
		}
		pairs := b.N * len(workers) * len(m.Tasks())
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pairs), "ns/pair")
	}
	b.Run("S", func(b *testing.B) {
		env := experiment.DefaultScenario("Beijing", benchSeed).MustBuild()
		answers, err := env.Collect()
		if err != nil {
			b.Fatal(err)
		}
		m, _, err := env.FitModel(answers)
		if err != nil {
			b.Fatal(err)
		}
		run(b, m, env.Sim.SampleAvailable(5), nil)
	})
	for _, sc := range []struct {
		name             string
		nTasks, nWorkers int
	}{
		{"M", 2000, 40},
		{"L", 10000, 100},
	} {
		b.Run(sc.name, func(b *testing.B) {
			env, err := experiment.SyntheticEnv(sc.nTasks, sc.nWorkers, benchSeed)
			if err != nil {
				b.Fatal(err)
			}
			m, err := env.NewModel()
			if err != nil {
				b.Fatal(err)
			}
			// Sparse warm answers so the estimator exercises its
			// non-trivial paths, as in the Figure 14 measurements.
			for t := 0; t < sc.nTasks; t += 10 {
				w := model.WorkerID(t / 10 % sc.nWorkers)
				if err := m.Observe(env.Sim.Answer(w, model.TaskID(t))); err != nil {
					b.Fatal(err)
				}
			}
			m.Fit()
			run(b, m, env.Sim.SampleAvailable(sc.nWorkers), nil)
		})
	}
	for _, sc := range []struct {
		name           string
		nTasks, nRound int
		excluded       int // per worker
	}{
		{"Round10", 5000, 10, 0},
		{"Round10Excluding", 5000, 10, 4},
		{"Single", 2000, 1, 0},
	} {
		b.Run(sc.name, func(b *testing.B) {
			env, err := experiment.SyntheticEnv(sc.nTasks, 100, benchSeed)
			if err != nil {
				b.Fatal(err)
			}
			answers, err := env.Sim.CollectBiased(4, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			m, _, err := env.FitModel(answers)
			if err != nil {
				b.Fatal(err)
			}
			workers := env.Sim.SampleAvailable(sc.nRound)
			var ex assign.Exclusions
			if sc.excluded > 0 {
				lists := make(assign.TaskLists, len(workers))
				for _, w := range workers {
					for k := 0; k < sc.excluded; k++ {
						lists[w] = append(lists[w], model.TaskID((int(w)*7+k*1009)%sc.nTasks))
					}
				}
				ex = lists
			}
			run(b, m, workers, ex)
		})
	}
}

// BenchmarkShardedFit compares the single-model full EM with the K-shard
// geo-partitioned fit on the L-size Fig13 workload (10k tasks, 100 workers,
// 50k answers). Shards fit concurrently and each converges at its own rate,
// so K=4 beats the single model even on one CPU; PERFORMANCE.md records the
// reference numbers.
func BenchmarkShardedFit(b *testing.B) {
	const nAnswers = 50000
	env, err := experiment.SyntheticEnv(nAnswers/5, 100, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	answers, err := env.Sim.CollectBiased(5, 0.10, 0.45)
	if err != nil {
		b.Fatal(err)
	}
	feed := func(obs func(model.Answer) error) {
		for _, a := range answers.All() {
			if err := obs(a); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("single", func(b *testing.B) {
		var sec float64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			m, err := env.NewModel()
			if err != nil {
				b.Fatal(err)
			}
			feed(m.Observe)
			b.StartTimer()
			start := time.Now()
			m.Fit()
			sec = time.Since(start).Seconds()
		}
		b.ReportMetric(sec, "fitSec")
	})
	for _, k := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("K%d", k), func(b *testing.B) {
			var sec float64
			var roaming int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sh, err := env.NewSharded(k)
				if err != nil {
					b.Fatal(err)
				}
				feed(sh.Observe)
				b.StartTimer()
				start := time.Now()
				st := sh.Fit()
				sec = time.Since(start).Seconds()
				roaming = st.Roaming
			}
			b.ReportMetric(sec, "fitSec")
			b.ReportMetric(float64(roaming), "roaming")
		})
	}
}

// BenchmarkDawidSkene measures the baseline EM at paper scale.
func BenchmarkDawidSkene(b *testing.B) {
	env := experiment.DefaultScenario("Beijing", benchSeed).MustBuild()
	answers, err := env.Collect()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res *model.Result
	for i := 0; i < b.N; i++ {
		res = baseline.DawidSkene{}.Infer(env.Data.Tasks, answers)
	}
	b.ReportMetric(100*model.Accuracy(res, env.Data.Truth), "acc%")
}

// BenchmarkMajorityVote measures the trivial baseline for reference.
func BenchmarkMajorityVote(b *testing.B) {
	env := experiment.DefaultScenario("Beijing", benchSeed).MustBuild()
	answers, err := env.Collect()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.MajorityVote{}.Infer(env.Data.Tasks, answers)
	}
}

// BenchmarkParallelEM compares a 10-iteration full-EM fit on the
// paper-scale answer log across E-step parallelism levels. The E-step
// fans out over goroutines with deterministic chunk merging; on a
// single-core host (like the CI box this repo was built on) the levels
// tie within overhead, on multi-core hosts p>1 wins at scale.
func BenchmarkParallelEM(b *testing.B) {
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p%d", par), func(b *testing.B) {
			env := experiment.DefaultScenario("Beijing", benchSeed).MustBuild()
			answers, err := env.Collect()
			if err != nil {
				b.Fatal(err)
			}
			env.Scenario.ModelConfig.MaxIter = 10
			env.Scenario.ModelConfig.Parallelism = par
			m, err := env.NewModel()
			if err != nil {
				b.Fatal(err)
			}
			for _, a := range answers.All() {
				if err := m.Observe(a); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Fit()
			}
		})
	}
}

// BenchmarkAblationEarlyStopping measures the budget-aware stopping sweep.
func BenchmarkAblationEarlyStopping(b *testing.B) {
	s := experiment.DefaultScenario("Beijing", benchSeed)
	var r *experiment.StoppingResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiment.RunStopping(s, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.Consumed[0]), "budget@tau0")
}

// BenchmarkAblationCalibration measures the calibration comparison.
func BenchmarkAblationCalibration(b *testing.B) {
	s := experiment.DefaultScenario("Beijing", benchSeed)
	var r *experiment.CalibrationResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiment.RunCalibration(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.IM.ECE(), "imECE")
	b.ReportMetric(r.EM.ECE(), "emECE")
}

// BenchmarkAblationRobustness measures the noise and adversary sweeps.
func BenchmarkAblationRobustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunAblationNoise(benchSeed); err != nil {
			b.Fatal(err)
		}
		if _, err := experiment.RunAblationAdversary(benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}
