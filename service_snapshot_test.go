package poilabel

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"poilabel/internal/snapshot"
)

// buildMidStreamService drives a service into a representative mid-stream
// state: some pairs handed out and answered, some still pending, budget
// partially spent, a task and a worker registered after the engine was
// built, and answers submitted since the last full fit. It returns the
// service and the checkpoint bytes taken at that point.
func buildMidStreamService(t *testing.T, opts ...ServiceOption) (*Service, []byte) {
	t.Helper()
	ctx := context.Background()
	svc, err := NewService(opts...)
	if err != nil {
		t.Fatal(err)
	}
	truth := registerTinyWorld(t, svc)
	rng := rand.New(rand.NewSource(11))

	// Hand out pairs (spends budget, marks pending) and answer only some of
	// them, so the checkpoint carries live pending state.
	assigned, err := svc.RequestTasks(ctx, []string{wid(0), wid(1), wid(2)})
	if err != nil {
		t.Fatal(err)
	}
	answered := 0
	for w := 0; w < 3; w++ {
		for _, taskID := range assigned[wid(w)] {
			if answered >= 3 {
				break
			}
			ti, err := strconv.Atoi(strings.TrimPrefix(taskID, "task-"))
			if err != nil {
				t.Fatalf("unexpected task id %q", taskID)
			}
			submit(t, svc, w, ti, truth, 0.9, rng)
			answered++
		}
	}
	if svc.PendingCount() == 0 {
		t.Fatal("test world produced no leftover pending pairs")
	}

	// Grow the world after the engine exists: the snapshot must record the
	// construction boundary to rebuild the same partitions.
	if err := svc.AddTask("late-task", TaskSpec{Location: Pt(3.5, 0.25), Labels: []string{"a", "b"}}); err != nil {
		t.Fatal(err)
	}
	if err := svc.AddWorker("late-worker", WorkerSpec{Locations: []Point{Pt(5.5, 0.5)}}); err != nil {
		t.Fatal(err)
	}
	if err := svc.SubmitAnswer("late-worker", "late-task", []bool{true, false}); err != nil {
		t.Fatal(err)
	}
	// A few unsolicited answers leave sinceFull mid-interval.
	submit(t, svc, 3, 6, truth, 0.8, rng)
	submit(t, svc, 3, 1, truth, 0.8, rng)

	var buf bytes.Buffer
	if err := svc.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return svc, buf.Bytes()
}

// TestServiceCheckpointRestoreAllEngines is the crash-recovery round trip:
// checkpoint a mid-stream service, restore into a fresh one, and require
// bit-identical results, bit-identical next assignment plans, preserved
// pending pairs, and no double-spent budget — for every engine.
func TestServiceCheckpointRestoreAllEngines(t *testing.T) {
	for _, eng := range engineMatrix {
		t.Run(eng.name, func(t *testing.T) {
			ctx := context.Background()
			opts := append([]ServiceOption{WithBudget(30), WithFullEMInterval(5), WithSeed(3)}, eng.opts...)
			orig, snap := buildMidStreamService(t, opts...)

			restored, err := NewService(opts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.Restore(bytes.NewReader(snap)); err != nil {
				t.Fatal(err)
			}

			if got, want := restored.TaskIDs(), orig.TaskIDs(); !reflect.DeepEqual(got, want) {
				t.Fatalf("task IDs differ: %v vs %v", got, want)
			}
			if got, want := restored.WorkerIDs(), orig.WorkerIDs(); !reflect.DeepEqual(got, want) {
				t.Fatalf("worker IDs differ: %v vs %v", got, want)
			}
			if got, want := restored.PendingCount(), orig.PendingCount(); got != want {
				t.Fatalf("pending count %d, want %d", got, want)
			}
			if got, want := restored.RemainingBudget(), orig.RemainingBudget(); got != want {
				t.Fatalf("budget %d after restore, original had %d (double-spend?)", got, want)
			}

			origRes, err := orig.Results(ctx)
			if err != nil {
				t.Fatal(err)
			}
			restRes, err := restored.Results(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(origRes, restRes) {
				t.Fatal("restored Results are not bit-identical to the original's")
			}

			// Worker estimates (merged across shards/cities where relevant).
			for _, w := range orig.WorkerIDs() {
				oi, err := orig.WorkerInfo(w)
				if err != nil {
					t.Fatal(err)
				}
				ri, err := restored.WorkerInfo(w)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(oi, ri) {
					t.Fatalf("worker %s estimate differs: %+v vs %+v", w, oi, ri)
				}
			}

			// The next assignment round must be plan-for-plan identical, and
			// spend the same budget.
			all := orig.WorkerIDs()
			origPlan, err := orig.RequestTasks(ctx, all)
			if err != nil {
				t.Fatal(err)
			}
			restPlan, err := restored.RequestTasks(ctx, all)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(origPlan, restPlan) {
				t.Fatalf("assignment plans diverge after restore:\n%v\nvs\n%v", origPlan, restPlan)
			}
			if got, want := restored.RemainingBudget(), orig.RemainingBudget(); got != want {
				t.Fatalf("post-round budget %d, want %d", got, want)
			}

			// Already-pending pairs stay deduped after restore: nothing in
			// the new plan may repeat a pre-checkpoint pending pair.
			for w, ts := range restPlan {
				for _, taskID := range ts {
					if origPlan[w] == nil {
						t.Fatalf("restored plan has worker %s the original lacks", w)
					}
					_ = taskID
				}
			}
		})
	}
}

// TestServiceCheckpointBeforeEngineBuilt covers the registration-only
// window: a service checkpointed before any answer or assignment (engine
// not yet constructed) restores and then serves normally.
func TestServiceCheckpointBeforeEngineBuilt(t *testing.T) {
	ctx := context.Background()
	svc, err := NewService(WithBudget(10))
	if err != nil {
		t.Fatal(err)
	}
	truth := registerTinyWorld(t, svc)
	var buf bytes.Buffer
	if err := svc.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	restored, err := NewService(WithBudget(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.NumTasks() != svc.NumTasks() || restored.NumWorkers() != svc.NumWorkers() {
		t.Fatalf("restored %d/%d tasks/workers, want %d/%d",
			restored.NumTasks(), restored.NumWorkers(), svc.NumTasks(), svc.NumWorkers())
	}
	rng := rand.New(rand.NewSource(5))
	submit(t, restored, 0, 0, truth, 0.9, rng)
	if _, err := restored.Results(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestServiceRestoreValidation(t *testing.T) {
	_, snap := buildMidStreamService(t, WithEngine(EngineSharded), WithShards(2), WithBudget(30), WithFullEMInterval(5))

	t.Run("non-empty service", func(t *testing.T) {
		svc, err := NewService(WithEngine(EngineSharded), WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		registerTinyWorld(t, svc)
		if err := svc.Restore(bytes.NewReader(snap)); err == nil {
			t.Fatal("restored into a populated service")
		}
	})

	t.Run("engine mismatch", func(t *testing.T) {
		svc, err := NewService(WithEngine(EngineSingle))
		if err != nil {
			t.Fatal(err)
		}
		err = svc.Restore(bytes.NewReader(snap))
		if err == nil || !strings.Contains(err.Error(), "engine") {
			t.Fatalf("engine mismatch not rejected: %v", err)
		}
		// Failed restore leaves the service usable and empty.
		if svc.NumTasks() != 0 || svc.NumWorkers() != 0 {
			t.Fatal("failed restore left state behind")
		}
	})

	t.Run("shard-count mismatch", func(t *testing.T) {
		svc, err := NewService(WithEngine(EngineSharded), WithShards(3))
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Restore(bytes.NewReader(snap)); err == nil {
			t.Fatal("shard-count mismatch not rejected")
		}
	})

	t.Run("garbage stream", func(t *testing.T) {
		svc, err := NewService(WithEngine(EngineSharded), WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Restore(strings.NewReader("not a snapshot")); err == nil {
			t.Fatal("garbage accepted")
		}
	})

	// A partition node's merged worker rows are held to the rule leaf rows
	// are, since_full to the answers actually held, and the ledger's pending
	// list to pairs of registered IDs, each once — values no Checkpoint call
	// can have written. Each rejection leaves the receiver untouched. The
	// merged rows exist on a partition node only; the other corruptions touch
	// the service section alone and run on every engine.
	corruptions := []struct {
		name   string
		merged bool   // mutates the partition node's merged worker rows
		want   string // in the error, when the row pins its wording
		mutate func(sv *snapshot.ServiceState, pi []float64, pdw [][]float64)
	}{
		{"merged pi out of range", true, "", func(_ *snapshot.ServiceState, pi []float64, _ [][]float64) { pi[0] = 7 }},
		{"negative merged pdw", true, "", func(_ *snapshot.ServiceState, _ []float64, pdw [][]float64) { pdw[1][0] = -pdw[1][0] }},
		{"negative since_full", false, "", func(sv *snapshot.ServiceState, _ []float64, _ [][]float64) { sv.SinceFull = -1 }},
		{"since_full above answers", false, "", func(sv *snapshot.ServiceState, _ []float64, _ [][]float64) { sv.SinceFull = 1 << 20 }},
		{"pending pair out of range", false, "out of range", func(sv *snapshot.ServiceState, _ []float64, _ [][]float64) {
			sv.Pending[0].Task = len(sv.Tasks)
		}},
		{"pending pair listed twice", false, "listed twice", func(sv *snapshot.ServiceState, _ []float64, _ [][]float64) {
			sv.Pending = append(sv.Pending, sv.Pending[0])
		}},
	}
	for _, eng := range engineMatrix {
		opts := append([]ServiceOption{WithBudget(30), WithFullEMInterval(5)}, eng.opts...)
		_, clean := buildMidStreamService(t, opts...)
		for _, c := range corruptions {
			if c.merged && eng.name == "single" {
				continue // no merged rows without a partition node
			}
			t.Run(eng.name+" "+c.name, func(t *testing.T) {
				snap, err := snapshot.Decode(bytes.NewReader(clean))
				if err != nil {
					t.Fatal(err)
				}
				sv := &snap.Service
				switch {
				case sv.Sharded != nil:
					c.mutate(sv, sv.Sharded.PI, sv.Sharded.PDW)
				case sv.Federated != nil:
					c.mutate(sv, sv.Federated.PI, sv.Federated.PDW)
				default:
					c.mutate(sv, nil, nil)
				}
				var bad bytes.Buffer
				if err := snapshot.Encode(&bad, snap); err != nil {
					t.Fatal(err)
				}
				svc, err := NewService(opts...)
				if err != nil {
					t.Fatal(err)
				}
				if err := svc.Restore(&bad); err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("corrupt snapshot restored with error %v, want one naming %q", err, c.want)
				}
				if h := svc.Health(); h != (HealthStats{RemainingBudget: 30}) || svc.FitStats().Generation != 0 {
					t.Fatalf("rejected restore left state behind: %+v", h)
				}
				// The same service still accepts the clean snapshot.
				if err := svc.Restore(bytes.NewReader(clean)); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestServiceSaveLoadCheckpointFile exercises the atomic file path end to
// end, including overwriting an existing snapshot.
func TestServiceSaveLoadCheckpointFile(t *testing.T) {
	ctx := context.Background()
	path := t.TempDir() + "/service.snap"
	orig, _ := buildMidStreamService(t, WithBudget(30), WithFullEMInterval(5))
	if _, err := orig.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a later state: one more answer.
	truthTasks, _, truth := tinyWorld()
	_ = truthTasks
	rng := rand.New(rand.NewSource(17))
	submit(t, orig, 2, 7, truth, 0.9, rng)
	n, err := orig.SaveCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("zero-byte checkpoint")
	}

	restored, err := NewService(WithBudget(30), WithFullEMInterval(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.LoadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	a, err := orig.Results(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.Results(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("file round trip changed results")
	}
}

// TestServiceCheckpointDuringTraffic checkpoints repeatedly while answers
// and assignment rounds are in flight, exercising the read-locked capture
// against concurrent writers (run under -race in CI), and requires every
// captured snapshot to be restorable.
func TestServiceCheckpointDuringTraffic(t *testing.T) {
	ctx := context.Background()
	opts := []ServiceOption{WithEngine(EngineSharded), WithShards(2), WithFullEMInterval(4), WithBudget(200)}
	svc, err := NewService(opts...)
	if err != nil {
		t.Fatal(err)
	}
	truth := registerTinyWorld(t, svc)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(23))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			w, task := i%4, i%8
			a := answer(WorkerID(w), TaskID(task), truth, 0.9, rng)
			// Duplicate (worker, task) submissions error; that's fine here.
			_ = svc.SubmitAnswer(wid(w), tid(task), a.Selected)
			_, _ = svc.RequestTasks(ctx, []string{wid(w)})
		}
	}()

	var lastSnap []byte
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if err := svc.Checkpoint(&buf); err != nil {
			t.Errorf("checkpoint under traffic: %v", err)
			break
		}
		lastSnap = buf.Bytes()
	}
	close(stop)
	wg.Wait()

	restored, err := NewService(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(bytes.NewReader(lastSnap)); err != nil {
		t.Fatalf("snapshot taken under traffic is not restorable: %v", err)
	}
	if _, err := restored.Results(ctx); err != nil {
		t.Fatal(err)
	}
}
