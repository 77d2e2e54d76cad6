package poilabel

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// engineMatrix enumerates the three backends with options that make each
// usable on the tiny test worlds.
var engineMatrix = []struct {
	name string
	opts []ServiceOption
}{
	{"single", []ServiceOption{WithEngine(EngineSingle)}},
	{"sharded", []ServiceOption{WithEngine(EngineSharded), WithShards(2)}},
	{"federated", []ServiceOption{WithEngine(EngineFederated), WithCities(2), WithShards(2)}},
}

// tid and wid are the stable string IDs the service tests register under.
func tid(i int) string { return fmt.Sprintf("task-%d", i) }
func wid(i int) string { return fmt.Sprintf("worker-%d", i) }

// registerTinyWorld registers the poilabel_test tinyWorld (8 line tasks, 4
// workers) under string IDs.
func registerTinyWorld(t *testing.T, svc *Service) *GroundTruth {
	t.Helper()
	tasks, workers, truth := tinyWorld()
	for i, task := range tasks {
		if err := svc.AddTask(tid(i), TaskSpec{
			Name:     task.Name,
			Location: task.Location,
			Labels:   task.Labels,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range workers {
		if err := svc.AddWorker(wid(i), WorkerSpec{Name: w.Name, Locations: w.Locations}); err != nil {
			t.Fatal(err)
		}
	}
	return truth
}

// submit feeds a fabricated answer with per-label correctness p.
func submit(t *testing.T, svc *Service, w, task int, truth *GroundTruth, p float64, rng *rand.Rand) {
	t.Helper()
	a := answer(WorkerID(w), TaskID(task), truth, p, rng)
	if err := svc.SubmitAnswer(wid(w), tid(task), a.Selected); err != nil {
		t.Fatal(err)
	}
}

func TestServiceEndToEndAllEngines(t *testing.T) {
	for _, eng := range engineMatrix {
		t.Run(eng.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			svc, err := NewService(append([]ServiceOption{WithBudget(40)}, eng.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			truth := registerTinyWorld(t, svc)
			ctx := context.Background()

			answered := make(map[[2]int]bool)
			for svc.RemainingBudget() > 0 {
				assigned, err := svc.RequestTasks(ctx, []string{wid(0), wid(1), wid(2), wid(3)})
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				for w, ts := range assigned {
					for _, taskID := range ts {
						var wi, ti int
						fmt.Sscanf(w, "worker-%d", &wi)
						fmt.Sscanf(taskID, "task-%d", &ti)
						p := 0.9
						if wi == 3 {
							p = 0.5 // spammer
						}
						submit(t, svc, wi, ti, truth, p, rng)
						answered[[2]int{wi, ti}] = true
						n++
					}
				}
				if n == 0 {
					break
				}
			}
			// Top up the log with unsolicited answers for the pairs the
			// rounds left — they must be learned from all the same (and, on
			// the federated engine, exercise the cross-city roaming merge).
			for wi := 0; wi < 4; wi++ {
				for ti := 0; ti < 8; ti++ {
					if answered[[2]int{wi, ti}] {
						continue
					}
					p := 0.9
					if wi == 3 {
						p = 0.5
					}
					submit(t, svc, wi, ti, truth, p, rng)
				}
			}

			res, err := svc.ResultSet(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if acc := Accuracy(res, truth); acc < 0.7 {
				t.Errorf("end-to-end accuracy = %v, want >= 0.7", acc)
			}
			good, err := svc.WorkerInfo(wid(0))
			if err != nil {
				t.Fatal(err)
			}
			spam, err := svc.WorkerInfo(wid(3))
			if err != nil {
				t.Fatal(err)
			}
			if good.Quality <= spam.Quality {
				t.Errorf("good worker quality %v <= spammer %v", good.Quality, spam.Quality)
			}

			// Keyed results agree with the dense set and carry stable IDs.
			keyed, err := svc.Results(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(keyed) != 8 {
				t.Fatalf("keyed results cover %d tasks, want 8", len(keyed))
			}
			for i, tr := range keyed {
				if tr.Task != tid(i) {
					t.Fatalf("result %d keyed %q, want %q", i, tr.Task, tid(i))
				}
			}
		})
	}
}

func TestServiceBudgetEdgeCases(t *testing.T) {
	for _, eng := range engineMatrix {
		t.Run(eng.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(12))
			svc, err := NewService(append([]ServiceOption{WithBudget(3)}, eng.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			truth := registerTinyWorld(t, svc)
			ctx := context.Background()

			// Unsolicited answers never touch the budget.
			submit(t, svc, 0, 5, truth, 0.9, rng)
			if got := svc.RemainingBudget(); got != 3 {
				t.Fatalf("unsolicited answer consumed budget: %d", got)
			}

			// The budget hits 0 mid-round: two workers want 2 tasks each but
			// only 3 units exist, and all 3 are spent.
			assigned, err := svc.RequestTasks(ctx, []string{wid(0), wid(1)})
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for _, ts := range assigned {
				total += len(ts)
			}
			if total != 3 {
				t.Fatalf("assigned %d pairs with budget 3", total)
			}
			if got := svc.RemainingBudget(); got != 0 {
				t.Fatalf("remaining = %d, want 0", got)
			}

			// Exhaustion surfaces as the typed sentinel.
			if _, err := svc.RequestTasks(ctx, []string{wid(2)}); !errors.Is(err, ErrBudgetExhausted) {
				t.Fatalf("post-budget request error = %v, want ErrBudgetExhausted", err)
			}

			// Answering a pending pair clears it without touching the budget.
			for w, ts := range assigned {
				for _, taskID := range ts {
					var wi, ti int
					fmt.Sscanf(w, "worker-%d", &wi)
					fmt.Sscanf(taskID, "task-%d", &ti)
					submit(t, svc, wi, ti, truth, 0.9, rng)
				}
			}
			if got := svc.PendingCount(); got != 0 {
				t.Fatalf("pending after answering everything = %d", got)
			}
			if got := svc.RemainingBudget(); got != 0 {
				t.Fatalf("answers changed the budget: %d", got)
			}
		})
	}
}

func TestServicePendingDedup(t *testing.T) {
	for _, eng := range engineMatrix {
		t.Run(eng.name, func(t *testing.T) {
			svc, err := NewService(eng.opts...)
			if err != nil {
				t.Fatal(err)
			}
			registerTinyWorld(t, svc)
			ctx := context.Background()
			all := []string{wid(0), wid(1), wid(2), wid(3)}

			first, err := svc.RequestTasks(ctx, all)
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[string]bool)
			n1 := 0
			for w, ts := range first {
				for _, taskID := range ts {
					seen[w+"|"+taskID] = true
					n1++
				}
			}
			if n1 == 0 {
				t.Fatal("first round empty")
			}
			if got := svc.PendingCount(); got != n1 {
				t.Fatalf("pending = %d after handing out %d", got, n1)
			}

			// Re-requesting without answering returns only fresh pairs.
			second, err := svc.RequestTasks(ctx, all)
			if err != nil {
				t.Fatal(err)
			}
			for w, ts := range second {
				for _, taskID := range ts {
					if seen[w+"|"+taskID] {
						t.Fatalf("pending pair %s|%s handed out twice", w, taskID)
					}
				}
			}
		})
	}
}

func TestServiceTypedErrors(t *testing.T) {
	svc, err := NewService()
	if err != nil {
		t.Fatal(err)
	}

	// Engine-needing calls before registration.
	if _, err := svc.RequestTasks(context.Background(), nil); !errors.Is(err, ErrNoTasks) {
		t.Errorf("empty service error = %v, want ErrNoTasks", err)
	}

	registerTinyWorld(t, svc)

	if err := svc.SubmitAnswer("ghost", tid(0), []bool{true, true, false}); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("unknown worker error = %v, want ErrUnknownWorker", err)
	}
	if err := svc.SubmitAnswer(wid(0), "ghost", []bool{true, true, false}); !errors.Is(err, ErrUnknownTask) {
		t.Errorf("unknown task error = %v, want ErrUnknownTask", err)
	}
	if _, err := svc.RequestTasks(context.Background(), []string{"ghost"}); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("unknown requesting worker error = %v, want ErrUnknownWorker", err)
	}
	if _, err := svc.WorkerInfo("ghost"); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("unknown worker info error = %v, want ErrUnknownWorker", err)
	}
	if err := svc.AddTask(tid(0), TaskSpec{Location: Pt(0, 0), Labels: []string{"a"}}); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("duplicate task error = %v, want ErrDuplicateID", err)
	}
	if err := svc.AddWorker(wid(0), WorkerSpec{Locations: []Point{Pt(0, 0)}}); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("duplicate worker error = %v, want ErrDuplicateID", err)
	}
	if err := svc.SubmitAnswer(wid(0), tid(0), []bool{true}); err == nil {
		t.Error("vote-count mismatch accepted")
	}
}

func TestServiceDynamicRegistration(t *testing.T) {
	for _, eng := range engineMatrix {
		t.Run(eng.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			svc, err := NewService(eng.opts...)
			if err != nil {
				t.Fatal(err)
			}
			truth := registerTinyWorld(t, svc)
			ctx := context.Background()

			// Answers flow, the engine is built.
			for ti := 0; ti < 8; ti++ {
				submit(t, svc, 0, ti, truth, 0.9, rng)
			}
			if _, err := svc.Fit(ctx); err != nil {
				t.Fatal(err)
			}

			// Register a task and a worker after the fact.
			if err := svc.AddTask("late-task", TaskSpec{
				Location: Pt(3.5, 0.2),
				Labels:   []string{"a", "b", "c"},
			}); err != nil {
				t.Fatal(err)
			}
			if err := svc.AddWorker("late-worker", WorkerSpec{Locations: []Point{Pt(3.5, 0.4)}}); err != nil {
				t.Fatal(err)
			}

			// The new pair is immediately usable in both directions.
			if err := svc.SubmitAnswer("late-worker", "late-task", []bool{true, true, false}); err != nil {
				t.Fatal(err)
			}
			assigned, err := svc.RequestTasks(ctx, []string{"late-worker"})
			if err != nil {
				t.Fatal(err)
			}
			if len(assigned["late-worker"]) == 0 {
				t.Fatal("late worker received no tasks")
			}
			results, err := svc.Results(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != 9 {
				t.Fatalf("results cover %d tasks, want 9", len(results))
			}
			if results[8].Task != "late-task" {
				t.Fatalf("last result keyed %q, want late-task", results[8].Task)
			}
			info, err := svc.WorkerInfo("late-worker")
			if err != nil {
				t.Fatal(err)
			}
			if info.Quality <= 0 || info.Quality >= 1 {
				t.Fatalf("late worker quality = %v", info.Quality)
			}
		})
	}
}

// TestServiceConcurrent hammers one service from many goroutines mixing
// submissions, assignment requests, reads, and registrations; run with
// -race it is the acceptance check that the Service is concurrency-safe.
func TestServiceConcurrent(t *testing.T) {
	for _, eng := range engineMatrix {
		t.Run(eng.name, func(t *testing.T) {
			svc, err := NewService(append([]ServiceOption{WithFullEMInterval(10)}, eng.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			truth := registerTinyWorld(t, svc)
			ctx := context.Background()

			const submitters = 4
			var wg sync.WaitGroup
			errc := make(chan error, 64)

			// Each submitter owns one worker and answers every task —
			// distinct pairs, so no duplicate-answer errors.
			for wi := 0; wi < submitters; wi++ {
				wg.Add(1)
				go func(wi int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(100 + wi)))
					for ti := 0; ti < 8; ti++ {
						a := answer(WorkerID(wi), TaskID(ti), truth, 0.9, rng)
						if err := svc.SubmitAnswer(wid(wi), tid(ti), a.Selected); err != nil {
							errc <- err
							return
						}
					}
				}(wi)
			}
			// Two requesters keep asking for assignments.
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 5; i++ {
						if _, err := svc.RequestTasks(ctx, []string{wid(0), wid(1), wid(2), wid(3)}); err != nil {
							errc <- err
							return
						}
					}
				}()
			}
			// Readers pull results and worker info concurrently.
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := 0; i < 3; i++ {
						if _, err := svc.Results(ctx); err != nil {
							errc <- err
							return
						}
						if _, err := svc.WorkerInfo(wid(r)); err != nil {
							errc <- err
							return
						}
					}
				}(r)
			}
			// A registrar grows the world mid-flight.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					if err := svc.AddTask(fmt.Sprintf("grow-task-%d", i), TaskSpec{
						Location: Pt(float64(i), 2),
						Labels:   []string{"x", "y"},
					}); err != nil {
						errc <- err
						return
					}
					if err := svc.AddWorker(fmt.Sprintf("grow-worker-%d", i), WorkerSpec{
						Locations: []Point{Pt(float64(i), 3)},
					}); err != nil {
						errc <- err
						return
					}
				}
			}()
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}

			results, err := svc.Results(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != 8+3 {
				t.Fatalf("results cover %d tasks, want 11", len(results))
			}
		})
	}
}

func TestServiceContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	svc, err := NewService(WithFullEMInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	truth := registerTinyWorld(t, svc)
	for wi := 0; wi < 4; wi++ {
		for ti := 0; ti < 8; ti++ {
			submit(t, svc, wi, ti, truth, 0.8, rng)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Fit(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Fit error = %v, want context.Canceled", err)
	}
	if _, err := svc.Results(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Results error = %v, want context.Canceled", err)
	}
	if _, err := svc.RequestTasks(ctx, []string{wid(0)}); !errors.Is(err, context.Canceled) {
		t.Errorf("RequestTasks error = %v, want context.Canceled", err)
	}
	// The service stays usable with a live context.
	if _, err := svc.Results(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServiceSpatialFirstSeesDynamicTasks pins the assigner-index fix: the
// SpatialFirst grid is rebuilt on AddTask, so a task registered after the
// engine is built is still discoverable by the nearest-task search.
func TestServiceSpatialFirstSeesDynamicTasks(t *testing.T) {
	svc, err := NewService(WithAssigner(AssignerSpatialFirst))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AddTask("t0", TaskSpec{Location: Pt(0, 0), Labels: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	if err := svc.AddWorker("w0", WorkerSpec{Locations: []Point{Pt(9, 9)}}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Build the engine (and its grid) by answering the only task.
	if err := svc.SubmitAnswer("w0", "t0", []bool{true}); err != nil {
		t.Fatal(err)
	}
	// A new task right next to the worker must be offered.
	if err := svc.AddTask("t-near", TaskSpec{Location: Pt(9, 9), Labels: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	assigned, err := svc.RequestTasks(ctx, []string{"w0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(assigned["w0"]) != 1 || assigned["w0"][0] != "t-near" {
		t.Fatalf("SpatialFirst assigned %v, want [t-near]", assigned["w0"])
	}
}

// TestServiceCoincidentLocations pins the zero-diameter fix: a world whose
// locations all coincide reports an error instead of panicking inside the
// distance normalizer.
func TestServiceCoincidentLocations(t *testing.T) {
	svc, err := NewService()
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AddTask("t0", TaskSpec{Location: Pt(1, 1), Labels: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	if err := svc.AddWorker("w0", WorkerSpec{Locations: []Point{Pt(1, 1)}}); err != nil {
		t.Fatal(err)
	}
	if err := svc.SubmitAnswer("w0", "t0", []bool{true}); err == nil {
		t.Fatal("coincident-location world accepted")
	}
	if _, err := svc.RequestTasks(context.Background(), []string{"w0"}); err == nil {
		t.Fatal("coincident-location assignment accepted")
	}
	// Adding spatial extent unblocks the service.
	if err := svc.AddTask("t1", TaskSpec{Location: Pt(5, 5), Labels: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	if err := svc.SubmitAnswer("w0", "t0", []bool{true}); err != nil {
		t.Fatalf("service stuck after gaining extent: %v", err)
	}
}

func TestServiceOptionValidation(t *testing.T) {
	bad := []struct {
		name string
		opt  ServiceOption
	}{
		{"engine", WithEngine(EngineKind(99))},
		{"assigner", WithAssigner(AssignerKind(99))},
		{"h", WithTasksPerRequest(0)},
		{"shards", WithShards(-1)},
		{"cities", WithCities(-2)},
		{"fullem", WithFullEMInterval(-1)},
	}
	for _, tc := range bad {
		if _, err := NewService(tc.opt); err == nil {
			t.Errorf("%s: invalid option accepted", tc.name)
		}
	}
	// Registration-side validation.
	svc, err := NewService()
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AddTask("", TaskSpec{Labels: []string{"a"}}); err == nil {
		t.Error("empty task id accepted")
	}
	if err := svc.AddTask("t", TaskSpec{}); err == nil {
		t.Error("task without labels accepted")
	}
	if err := svc.AddWorker("", WorkerSpec{Locations: []Point{Pt(0, 0)}}); err == nil {
		t.Error("empty worker id accepted")
	}
	if err := svc.AddWorker("w", WorkerSpec{}); err == nil {
		t.Error("worker without locations accepted")
	}
}
