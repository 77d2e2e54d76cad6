package poilabel

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// tinyWorld builds a small public-API world: 8 tasks on a line with 3
// labels each, 4 workers, plus ground truth for evaluation.
func tinyWorld() ([]Task, []Worker, *GroundTruth) {
	tasks := make([]Task, 8)
	truth := make([][]bool, 8)
	for i := range tasks {
		tasks[i] = Task{
			ID:       TaskID(i),
			Name:     "poi",
			Location: Pt(float64(i), 0),
			Labels:   []string{"a", "b", "c"},
		}
		truth[i] = []bool{i%2 == 0, true, false}
	}
	workers := make([]Worker, 4)
	for i := range workers {
		workers[i] = Worker{
			ID:        WorkerID(i),
			Name:      "w",
			Locations: []Point{Pt(float64(2*i), 0.5)},
		}
	}
	return tasks, workers, &GroundTruth{Truth: truth}
}

// answer fabricates a worker answer with the given per-label correctness.
func answer(w WorkerID, t TaskID, truth *GroundTruth, p float64, rng *rand.Rand) Answer {
	row := truth.Truth[t]
	sel := make([]bool, len(row))
	for k := range sel {
		if rng.Float64() < p {
			sel[k] = row[k]
		} else {
			sel[k] = !row[k]
		}
	}
	return Answer{Worker: w, Task: t, Selected: sel}
}

// tinyService is the paper's framework (Figure 1) on the tiny world: a
// Service with the given options and the world registered under tid/wid.
func tinyService(t *testing.T, opts ...ServiceOption) (*Service, *GroundTruth) {
	t.Helper()
	svc, err := NewService(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return svc, registerTinyWorld(t, svc)
}

// allTinyWorkers are the tiny world's four workers, in index order.
var allTinyWorkers = []string{wid(0), wid(1), wid(2), wid(3)}

// quality is WorkerInfo's estimate, fatal on error.
func quality(t *testing.T, svc *Service, w int) float64 {
	t.Helper()
	info, err := svc.WorkerInfo(wid(w))
	if err != nil {
		t.Fatal(err)
	}
	return info.Quality
}

func TestNewValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := NewService(WithTasksPerRequest(-1)); err == nil {
		t.Error("negative TasksPerRequest accepted")
	}

	// The engine is built lazily, so a world without tasks or without
	// workers surfaces at the first operation that needs it.
	svc, err := NewService()
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AddWorker(wid(0), WorkerSpec{Locations: []Point{Pt(0, 0)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RequestTasks(ctx, []string{wid(0)}); !errors.Is(err, ErrNoTasks) {
		t.Errorf("no tasks: error = %v, want ErrNoTasks", err)
	}
	svc, _ = NewService()
	if err := svc.AddTask(tid(0), TaskSpec{Location: Pt(1, 1), Labels: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Results(ctx); !errors.Is(err, ErrNoWorkers) {
		t.Errorf("no workers: error = %v, want ErrNoWorkers", err)
	}

	// Shard counts above the task count clamp.
	sh, _ := tinyService(t, WithEngine(EngineSharded), WithShards(100))
	if _, err := sh.Results(ctx); err != nil {
		t.Fatal(err)
	}
	if got := sh.ElasticStats().Shards; got != 8 {
		t.Errorf("shards = %d, want clamp to the 8 tasks", got)
	}
}

func TestFrameworkEndToEnd(t *testing.T) {
	ctx := context.Background()
	svc, truth := tinyService(t, WithBudget(40), WithTasksPerRequest(2), WithSeed(2))
	rng := rand.New(rand.NewSource(1))
	if svc.RemainingBudget() != 40 {
		t.Fatalf("initial budget = %d", svc.RemainingBudget())
	}

	for svc.RemainingBudget() > 0 {
		assigned, err := svc.RequestTasks(ctx, allTinyWorkers)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for w := range allTinyWorkers {
			for _, taskID := range assigned[wid(w)] {
				// Worker 3 is a spammer; the rest are good.
				p := 0.9
				if w == 3 {
					p = 0.5
				}
				a := answer(WorkerID(w), svc.taskIdx[taskID], truth, p, rng)
				if err := svc.SubmitAnswer(wid(w), taskID, a.Selected); err != nil {
					t.Fatal(err)
				}
				n++
			}
		}
		if n == 0 {
			break
		}
	}

	res, err := svc.ResultSet(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(res, truth); acc < 0.7 {
		t.Errorf("end-to-end accuracy = %v, want >= 0.7", acc)
	}
	// Quality ordering must hold.
	if good, spam := quality(t, svc, 0), quality(t, svc, 3); good <= spam {
		t.Errorf("good worker quality %v <= spammer %v", good, spam)
	}
}

func TestFrameworkBudgetAccounting(t *testing.T) {
	ctx := context.Background()
	svc, _ := tinyService(t, WithBudget(3), WithTasksPerRequest(2))
	assigned, err := svc.RequestTasks(ctx, []string{wid(0), wid(1)})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, ts := range assigned {
		total += len(ts)
	}
	if total != 3 {
		t.Errorf("assigned %d tasks with budget 3", total)
	}
	if svc.RemainingBudget() != 0 {
		t.Errorf("remaining = %d, want 0", svc.RemainingBudget())
	}
	if _, err := svc.RequestTasks(ctx, []string{wid(0)}); !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("post-budget request error = %v, want ErrBudgetExhausted", err)
	}
}

func TestFrameworkUnlimitedBudget(t *testing.T) {
	svc, _ := tinyService(t)
	if svc.RemainingBudget() != -1 {
		t.Errorf("unlimited budget reported as %d", svc.RemainingBudget())
	}
	if _, err := svc.RequestTasks(context.Background(), []string{wid(0)}); err != nil {
		t.Errorf("unlimited request failed: %v", err)
	}
}

func TestFrameworkRequestUnknownWorker(t *testing.T) {
	svc, _ := tinyService(t)
	if _, err := svc.RequestTasks(context.Background(), []string{wid(42)}); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("unknown worker: error = %v, want ErrUnknownWorker", err)
	}
}

func TestFrameworkUnsolicitedAnswer(t *testing.T) {
	svc, truth := tinyService(t, WithBudget(10))
	rng := rand.New(rand.NewSource(3))
	// An answer that was never assigned must still be learned from.
	submit(t, svc, 0, 5, truth, 0.9, rng)
	if svc.RemainingBudget() != 10 {
		t.Errorf("unsolicited answer consumed budget: %d", svc.RemainingBudget())
	}
	if svc.AnswerCount() != 1 {
		t.Error("unsolicited answer not recorded")
	}
}

func TestFrameworkAssignerKinds(t *testing.T) {
	for _, kind := range []AssignerKind{AssignerAccOpt, AssignerSpatialFirst, AssignerRandom} {
		svc, _ := tinyService(t, WithAssigner(kind), WithBudget(4))
		assigned, err := svc.RequestTasks(context.Background(), []string{wid(0), wid(1)})
		if err != nil {
			t.Fatalf("kind %d request: %v", kind, err)
		}
		if len(assigned) == 0 {
			t.Errorf("kind %d assigned nothing", kind)
		}
	}
}

// TestFrameworkIntrospection pins what a fitted service tells about a
// worker: a quality in (0, 1] and a sensitivity distribution the caller owns.
func TestFrameworkIntrospection(t *testing.T) {
	svc, truth := tinyService(t)
	rng := rand.New(rand.NewSource(4))
	for ti := 0; ti < 8; ti++ {
		submit(t, svc, 1, ti, truth, 0.9, rng)
	}
	if _, err := svc.Fit(context.Background()); err != nil {
		t.Fatal(err)
	}

	info, err := svc.WorkerInfo(wid(1))
	if err != nil {
		t.Fatal(err)
	}
	if info.Quality <= 0 || info.Quality > 1 {
		t.Errorf("Quality = %v", info.Quality)
	}
	var sum float64
	for _, v := range info.DistanceSensitivity {
		sum += v
	}
	if len(info.DistanceSensitivity) != 3 || sum < 0.999 || sum > 1.001 {
		t.Errorf("DistanceSensitivity = %v", info.DistanceSensitivity)
	}
	// Returned slices must be copies.
	info.DistanceSensitivity[0] = 99
	if again, _ := svc.WorkerInfo(wid(1)); again.DistanceSensitivity[0] == 99 {
		t.Error("WorkerInfo returns aliased storage")
	}
}

// TestShardedModelEndToEnd is the batch contract on the sharded engine: with
// automatic fits off, answers only log until an explicit Fit.
func TestShardedModelEndToEnd(t *testing.T) {
	ctx := context.Background()
	svc, truth := tinyService(t,
		WithEngine(EngineSharded), WithShards(4), WithRefineSweeps(1), WithFullEMInterval(0))
	rng := rand.New(rand.NewSource(5))

	// Batch-collect answers: every worker answers every task, worker 3 is a
	// spammer.
	for wi := 0; wi < 4; wi++ {
		for ti := 0; ti < 8; ti++ {
			p := 0.9
			if wi == 3 {
				p = 0.5
			}
			submit(t, svc, wi, ti, truth, p, rng)
		}
	}
	if prior := quality(t, svc, 0); prior != svc.cfg.model.InitPI {
		t.Errorf("quality moved to %v before the explicit fit", prior)
	}
	converged, err := svc.Fit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !converged {
		t.Error("sharded fit did not converge")
	}
	stats := svc.ShardStats()
	if len(stats) != 4 {
		t.Fatalf("ShardStats covers %d shards, want 4", len(stats))
	}
	if stats[0].BoundaryAnswers == 0 {
		t.Error("workers answering every task should roam across shards")
	}

	res, err := svc.ResultSet(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Inferred) != 8 {
		t.Fatalf("result covers %d tasks, want 8", len(res.Inferred))
	}
	if acc := Accuracy(res, truth); acc < 0.7 {
		t.Errorf("sharded accuracy = %v, want >= 0.7", acc)
	}
	if good, spam := quality(t, svc, 0), quality(t, svc, 3); good <= spam {
		t.Errorf("good worker quality %v <= spammer %v", good, spam)
	}
}

func TestMajorityVoteHelper(t *testing.T) {
	tasks, _, _ := tinyWorld()
	answers := []Answer{
		{Worker: 0, Task: 0, Selected: []bool{true, true, false}},
		{Worker: 1, Task: 0, Selected: []bool{true, false, false}},
		{Worker: 2, Task: 0, Selected: []bool{true, true, true}},
	}
	res, err := MajorityVote(tasks, answers)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Inferred[0][0] || !res.Inferred[0][1] || res.Inferred[0][2] {
		t.Errorf("MV inference = %v", res.Inferred[0])
	}
	// Duplicate answers must be rejected.
	if _, err := MajorityVote(tasks, append(answers, answers[0])); err == nil {
		t.Error("duplicate answers accepted")
	}
}

func TestDawidSkeneHelper(t *testing.T) {
	tasks, _, truth := tinyWorld()
	rng := rand.New(rand.NewSource(5))
	var answers []Answer
	for ti := 0; ti < 8; ti++ {
		for wi := 0; wi < 4; wi++ {
			answers = append(answers, answer(WorkerID(wi), TaskID(ti), truth, 0.85, rng))
		}
	}
	res, err := DawidSkene(tasks, answers)
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(res, truth); acc < 0.8 {
		t.Errorf("DS accuracy = %v, want >= 0.8", acc)
	}
}

// TestFrameworkCheckpointRoundTrip resumes a fitted service from a file.
func TestFrameworkCheckpointRoundTrip(t *testing.T) {
	svc, truth := tinyService(t)
	rng := rand.New(rand.NewSource(7))
	for ti := 0; ti < 8; ti++ {
		submit(t, svc, 0, ti, truth, 0.9, rng)
	}
	if _, err := svc.Fit(context.Background()); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/fw.ckpt"
	if _, err := svc.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	resumed, err := NewService()
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.LoadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if resumed.AnswerCount() != 8 {
		t.Errorf("restored service has %d answers, want 8", resumed.AnswerCount())
	}
	if quality(t, resumed, 0) != quality(t, svc, 0) {
		t.Error("restored worker quality differs")
	}
}

func TestFrameworkExtraAssignerKinds(t *testing.T) {
	for _, kind := range []AssignerKind{AssignerSpatialFirst, AssignerRandom} {
		svc, _ := tinyService(t, WithAssigner(kind), WithBudget(4))
		assigned, err := svc.RequestTasks(context.Background(), []string{wid(0), wid(1)})
		if err != nil {
			t.Fatalf("kind %d request: %v", kind, err)
		}
		total := 0
		for _, ts := range assigned {
			total += len(ts)
		}
		if total != 4 {
			t.Errorf("kind %d assigned %d tasks with budget 4", kind, total)
		}
	}
}

func TestFlagBiasedWorkers(t *testing.T) {
	_, _, truth := tinyWorld()
	rng := rand.New(rand.NewSource(8))
	var answers []Answer
	for ti := 0; ti < 8; ti++ {
		for wi := 0; wi < 3; wi++ {
			answers = append(answers, answer(WorkerID(wi), TaskID(ti), truth, 0.85, rng))
		}
		// Worker 3 ticks everything.
		answers = append(answers, Answer{Worker: 3, Task: TaskID(ti), Selected: []bool{true, true, true}})
	}
	flagged, err := FlagBiasedWorkers(answers)
	if err != nil {
		t.Fatal(err)
	}
	if len(flagged) != 1 || flagged[0] != 3 {
		t.Errorf("flagged = %v, want [3]", flagged)
	}
	if _, err := FlagBiasedWorkers(append(answers, answers[0])); err == nil {
		t.Error("duplicate answers accepted")
	}
}
