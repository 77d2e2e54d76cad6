package experiment

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"poilabel/internal/stats"
)

// quickScenario shrinks the default scenario so the experiment tests stay
// fast while exercising every code path.
func quickScenario(name string) Scenario {
	s := DefaultScenario(name, 7)
	s.Budget = 300
	s.ModelConfig.MaxIter = 40
	return s
}

func TestScenarioBuild(t *testing.T) {
	for _, name := range []string{"Beijing", "China"} {
		env, err := DefaultScenario(name, 1).Build()
		if err != nil {
			t.Fatal(err)
		}
		if len(env.Workers) != 30 || len(env.Profiles) != 30 {
			t.Errorf("%s: %d workers / %d profiles", name, len(env.Workers), len(env.Profiles))
		}
		if len(env.Data.Tasks) != 200 {
			t.Errorf("%s: %d tasks", name, len(env.Data.Tasks))
		}
	}
	if _, err := DefaultScenario("Mars", 1).Build(); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestScenarioDeterministic(t *testing.T) {
	s := DefaultScenario("Beijing", 5)
	a := s.MustBuild()
	b := s.MustBuild()
	ansA, err := a.Collect()
	if err != nil {
		t.Fatal(err)
	}
	ansB, err := b.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if ansA.Len() != ansB.Len() {
		t.Fatal("same scenario produced different answer counts")
	}
	for i := 0; i < ansA.Len(); i++ {
		x, y := ansA.Answer(i), ansB.Answer(i)
		if x.Worker != y.Worker || x.Task != y.Task {
			t.Fatalf("answer %d differs between identical scenarios", i)
		}
	}
}

func TestRunFig6(t *testing.T) {
	r, err := RunFig6(quickScenario("Beijing"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Percent) != 5 {
		t.Fatalf("got %d buckets, want 5", len(r.Percent))
	}
	var sum float64
	for _, p := range r.Percent {
		sum += p
	}
	if r.Workers > 0 && math.Abs(sum-100) > 1e-6 {
		t.Errorf("bucket percentages sum to %v", sum)
	}
	if !strings.Contains(r.String(), "Figure 6") {
		t.Error("rendering missing title")
	}
}

func TestRunFig7(t *testing.T) {
	r, err := RunFig7(quickScenario("Beijing"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Workers) != 5 {
		t.Fatalf("got %d top workers, want 5", len(r.Workers))
	}
	// Workers must be ordered by activity.
	for i := 1; i < len(r.Answers); i++ {
		if r.Answers[i] > r.Answers[i-1] {
			t.Errorf("top workers not sorted by activity: %v", r.Answers)
		}
	}
	// Near-distance accuracy must exceed far for the pooled top workers
	// (the paper's core observation).
	var near, far, nearN, farN float64
	for _, row := range r.Accuracy {
		if !math.IsNaN(row[0]) {
			near += row[0]
			nearN++
		}
		for _, v := range row[2:] {
			if !math.IsNaN(v) {
				far += v
				farN++
			}
		}
	}
	if nearN > 0 && farN > 0 && near/nearN <= far/farN {
		t.Errorf("near accuracy %v not above far %v", near/nearN, far/farN)
	}
}

func TestRunFig8(t *testing.T) {
	r, err := RunFig8(quickScenario("China"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tiers) != 4 {
		t.Fatalf("got %d tiers, want 4", len(r.Tiers))
	}
	total := 0
	for _, n := range r.TaskCount {
		total += n
	}
	if total != 200 {
		t.Errorf("tier task counts sum to %d, want 200", total)
	}
}

func TestRunFig9Shape(t *testing.T) {
	r, err := RunFig9(quickScenario("Beijing"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.MV) != len(Budgets) || len(r.EM) != len(Budgets) || len(r.IM) != len(Budgets) {
		t.Fatal("missing series entries")
	}
	for i := range Budgets {
		for _, v := range []float64{r.MV[i], r.EM[i], r.IM[i]} {
			if v < 0.4 || v > 1 {
				t.Errorf("accuracy %v at budget %d out of plausible range", v, Budgets[i])
			}
		}
	}
	// The paper's headline: IM beats MV at the full budget.
	last := len(Budgets) - 1
	if r.IM[last] <= r.MV[last] {
		t.Errorf("IM (%v) did not beat MV (%v) at full budget", r.IM[last], r.MV[last])
	}
}

func TestRunFig10(t *testing.T) {
	r, err := RunFig10(quickScenario("Beijing"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Trace) == 0 {
		t.Fatal("empty convergence trace")
	}
	// The trace must decay substantially from its start.
	if r.Trace[len(r.Trace)-1] > r.Trace[0]/2 {
		t.Errorf("trace did not decay: first %v, last %v", r.Trace[0], r.Trace[len(r.Trace)-1])
	}
}

func TestRunFig11Shape(t *testing.T) {
	s := quickScenario("Beijing")
	r, err := RunFig11(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Runs) != 3 {
		t.Fatalf("got %d assigner runs, want 3", len(r.Runs))
	}
	for _, run := range r.Runs {
		if len(run.Accuracy) != len(Budgets) {
			t.Fatalf("%s has %d accuracy points", run.Assigner, len(run.Accuracy))
		}
		var distSum float64
		for _, d := range run.Distribution {
			distSum += d
		}
		if math.Abs(distSum-1) > 1e-9 {
			t.Errorf("%s distribution sums to %v", run.Assigner, distSum)
		}
		if run.WorkerQuality < 0.4 || run.WorkerQuality > 1 {
			t.Errorf("%s worker quality %v implausible", run.Assigner, run.WorkerQuality)
		}
		if run.AvgAcc < 0.4 || run.AvgAcc > 1 {
			t.Errorf("%s avg Acc %v implausible", run.Assigner, run.AvgAcc)
		}
	}
	out := r.String()
	if !strings.Contains(out, "Figure 11") || !strings.Contains(out, "Table II") {
		t.Error("rendering missing sections")
	}
}

func TestRunTable1(t *testing.T) {
	r, err := RunTable1(quickScenario("Beijing"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Workers) < quickScenario("Beijing").PerTask {
		t.Errorf("case study has %d workers, want >= %d", len(r.Workers), quickScenario("Beijing").PerTask)
	}
	if len(r.Labels) != 10 {
		t.Errorf("case study task has %d labels, want 10", len(r.Labels))
	}
	for i := range r.Workers {
		if r.ModeledAcc[i] < 0.4 || r.ModeledAcc[i] > 1 {
			t.Errorf("modeled accuracy %v implausible", r.ModeledAcc[i])
		}
	}
	out := r.String()
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "modeled acc") {
		t.Error("rendering incomplete")
	}
}

// goldenIDs are the registry ids pinned byte for byte by a file under
// testdata/paper. Regenerate the files with:
//
//	go run ./cmd/poibench -out internal/experiment/testdata/paper fig6 fig7 fig8 table1 fig9 fig10 fig11 \
//		ablation-greedy ablation-update ablation-stopping ablation-calibration ablation-adversary
var goldenIDs = []string{"fig6", "fig7", "fig8", "table1", "fig9", "fig10", "fig11",
	"ablation-greedy", "ablation-update", "ablation-stopping", "ablation-calibration", "ablation-adversary"}

// Every registered id is pinned — by a golden, or, for multiseed, by
// TestPaperOrderings — and every golden file belongs to a registered id.
func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	golden := map[string]bool{}
	for _, id := range goldenIDs {
		golden[id] = true
		if _, ok := reg[id]; !ok {
			t.Errorf("golden id %s is not registered", id)
		}
	}
	for id := range reg {
		if !golden[id] && id != "multiseed" {
			t.Errorf("registry id %s has no golden in testdata/paper and no claims test", id)
		}
	}
	files, err := filepath.Glob(filepath.Join("testdata", "paper", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !golden[strings.TrimSuffix(filepath.Base(f), ".txt")] {
			t.Errorf("golden file %s belongs to no golden id", f)
		}
	}
	ids := IDs()
	if len(ids) != len(reg) {
		t.Errorf("IDs returned %d entries for %d registered", len(ids), len(reg))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Error("IDs not sorted")
		}
	}
}

// TestPaperOutputsGolden pins the paper's label-accuracy tables and the
// ablations EXPERIMENTS.md states a claim for: each goldenIDs file under
// testdata/paper is exactly what the registry runner prints at seed 7.
func TestPaperOutputsGolden(t *testing.T) {
	reg := Registry()
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", "paper", id+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			res, err := reg[id](7)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.String(); got != string(want) {
				t.Errorf("%s at seed 7 differs from testdata/paper/%s.txt\n--- got ---\n%s--- want ---\n%s", id, id, got, want)
			}
		})
	}
}

func TestRunMultiSeed(t *testing.T) {
	r, err := RunMultiSeed("Beijing", []int64{7, 21})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.MV) != 2 || len(r.AccOpt) != 2 {
		t.Fatalf("missing per-seed series: %+v", r)
	}
	out := r.String()
	if !strings.Contains(out, "orderings held") || !strings.Contains(out, "Multi-seed") {
		t.Errorf("rendering incomplete:\n%s", out)
	}
}

// TestPaperOrderings holds the reproduction to the orderings the paper
// prints (Fig. 9: IM > EM > MV; Fig. 11 / Table II: AccOpt > SF > Random) over
// 20 seeded worlds per dataset, each with the margin it was measured to have.
// Fifteen of twenty is a one-sided sign test at p < 0.05. IM > EM holds in the
// mean but on about 13 seeds of 20, so its count is logged, not asserted
// (EXPERIMENTS.md).
func TestPaperOrderings(t *testing.T) {
	seeds := ClaimsSeeds(101)
	const significant = 15
	for _, world := range []string{"Beijing", "China"} {
		t.Run(world, func(t *testing.T) {
			t.Parallel()
			r, err := RunMultiSeed(world, seeds)
			if err != nil {
				t.Fatal(err)
			}
			imBeatsEM, _, accBeatsSF, sfBeatsRandom := r.OrderingCounts()
			if accBeatsSF < significant {
				t.Errorf("AccOpt > SF on %d/%d seeds, want at least %d", accBeatsSF, len(seeds), significant)
			}
			if sfBeatsRandom < significant {
				t.Errorf("SF > Random on %d/%d seeds, want at least %d", sfBeatsRandom, len(seeds), significant)
			}
			mv, em, im := stats.Mean(r.MV), stats.Mean(r.EM), stats.Mean(r.IM)
			if im <= em {
				t.Errorf("mean IM accuracy %.4f does not exceed mean EM %.4f", im, em)
			}
			if im <= mv {
				t.Errorf("mean IM accuracy %.4f does not exceed mean MV %.4f", im, mv)
			}
			t.Logf("IM > EM on %d/%d seeds (mean IM - EM %+.1f pt)\n%s", imBeatsEM, len(seeds), 100*(im-em), r)
		})
	}
}

func TestAblationRunners(t *testing.T) {
	// Every ablation runner must produce non-empty printable output, and the
	// same output when run again at the same seed.
	runners := map[string]Runner{
		"greedy": RunAblationGreedy,
		"update": RunAblationUpdatePolicy,
	}
	for name, run := range runners {
		t.Run(name, func(t *testing.T) {
			out, err := run(7)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.String()) < 50 {
				t.Errorf("suspiciously short output:\n%s", out)
			}
			again, err := run(7)
			if err != nil {
				t.Fatal(err)
			}
			if again.String() != out.String() {
				t.Errorf("two runs at seed 7 differ:\n%s\nvs\n%s", out, again)
			}
		})
	}
}

func TestAblationUpdatePolicyRunner(t *testing.T) {
	out, err := RunAblationUpdatePolicy(7)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"full EM every answer", "delayed(100) + incremental",
		"incremental only", "no per-answer learning (sharded, K = 1)"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing policy row %q", want)
		}
	}
}

func TestRobustnessRunners(t *testing.T) {
	for name, run := range map[string]Runner{
		"adversary": RunAblationAdversary,
	} {
		t.Run(name, func(t *testing.T) {
			out, err := run(7)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), "Robustness") {
				t.Errorf("missing title:\n%s", out)
			}
		})
	}
}

func TestRunStopping(t *testing.T) {
	s := quickScenario("Beijing")
	r, err := RunStopping(s, []float64{0.65, 1.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Consumed) != 2 {
		t.Fatalf("missing threshold rows: %+v", r)
	}
	// The low threshold must stop no later than the never-stop run.
	if r.Consumed[0] > r.Consumed[1] {
		t.Errorf("threshold 0.65 used %d > unlimited %d", r.Consumed[0], r.Consumed[1])
	}
	// Never-stop consumes the full budget (task pool permitting).
	if r.Consumed[1] != s.Budget {
		t.Errorf("unlimited run consumed %d of %d", r.Consumed[1], s.Budget)
	}
	for i := range r.Thresholds {
		if r.TrueAcc[i] < 0.4 || r.TrueAcc[i] > 1 || r.EstAcc[i] < 0.4 || r.EstAcc[i] > 1 {
			t.Errorf("row %d accuracies implausible: est %v true %v", i, r.EstAcc[i], r.TrueAcc[i])
		}
	}
	if !strings.Contains(r.String(), "Early stopping") {
		t.Error("rendering missing title")
	}
}

func TestRunCalibration(t *testing.T) {
	r, err := RunCalibration(quickScenario("Beijing"))
	if err != nil {
		t.Fatal(err)
	}
	if r.IM.Total == 0 || r.EM.Total == 0 {
		t.Fatal("empty calibration accumulators")
	}
	if r.IM.Total != r.EM.Total {
		t.Errorf("IM saw %d labels, EM %d", r.IM.Total, r.EM.Total)
	}
	for _, c := range []float64{r.IM.Brier(), r.EM.Brier()} {
		if c <= 0 || c >= 0.5 {
			t.Errorf("implausible Brier score %v", c)
		}
	}
	if !strings.Contains(r.String(), "Calibration") {
		t.Error("rendering missing title")
	}
}

// A K = 2 geographic sharding of the synthetic workload labels as the single
// model does: at 2 000 and 4 000 answers the two fits agree on at least 90 %
// of the labels.
func TestShardedFitAgreesWithSingle(t *testing.T) {
	env, err := SyntheticEnv(800, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	full, err := env.Sim.CollectBiased(5, 0.10, 0.45)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2000, 4000} {
		answers := full.Truncate(n)
		m, _, err := env.FitModel(answers)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := env.NewSharded(2)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range answers.All() {
			if err := sh.Observe(a); err != nil {
				t.Fatal(err)
			}
		}
		sh.Fit()
		single, sharded := m.Result(), sh.Result()
		match, total := 0, 0
		for ti := range single.Inferred {
			for k := range single.Inferred[ti] {
				total++
				if single.Inferred[ti][k] == sharded.Inferred[ti][k] {
					match++
				}
			}
		}
		if agree := float64(match) / float64(total); agree < 0.9 {
			t.Errorf("K = 2 labels agree with the single model on %.1f%% at %d answers, want >= 90%%", 100*agree, n)
		}
	}
}
