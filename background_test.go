package poilabel

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"poilabel/internal/core"
	"poilabel/internal/trace"
)

// bgOpts returns background-fit options that never fire on their own: the
// interval is an hour and the eager threshold unreachable, so every fit in
// the test is driven explicitly through WaitFresh. That makes the pipeline
// deterministic enough to pin bit-identical results against the synchronous
// path.
func bgOpts() []ServiceOption {
	return []ServiceOption{WithBackgroundFit(time.Hour, 1<<30)}
}

// slowFitConfig makes a full fit take long enough to observe from outside:
// serial E-step, effectively-never tolerance, and a deep iteration cap.
func slowFitConfig(maxIter int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Parallelism = 1
	cfg.Tol = 1e-12
	cfg.MaxIter = maxIter
	return cfg
}

// fitRecorder captures FitObserved callbacks so tests can read the exact
// wall-clock duration of background fits.
type fitRecorder struct {
	mu       sync.Mutex
	elapsed  []time.Duration
	errs     []error
	answered int
}

func (r *fitRecorder) FitObserved(elapsed time.Duration, converged bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.elapsed = append(r.elapsed, elapsed)
	r.errs = append(r.errs, err)
}

func (r *fitRecorder) AnswerObserved(full bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.answered++
}

func (r *fitRecorder) DedupHitsObserved(int) {}

func (r *fitRecorder) fitDurations() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]time.Duration(nil), r.elapsed...)
}

// recordedAnswer is one submitted answer, replayable into a second service
// so two services can be fed byte-identical histories.
type recordedAnswer struct {
	worker, task int
	selected     []bool
}

// registerGridWorld registers a synthetic world of nTasks three-label tasks
// and nWorkers single-home workers under the usual string IDs, spread over a
// grid so the sharded and federated engines get non-degenerate partitions.
// The model rejects duplicate (worker, task) answers, so tests that feed in
// multiple rounds need a world with enough distinct pairs per round.
func registerGridWorld(t *testing.T, svc *Service, nTasks, nWorkers int) *GroundTruth {
	t.Helper()
	truth := make([][]bool, nTasks)
	for i := 0; i < nTasks; i++ {
		if err := svc.AddTask(tid(i), TaskSpec{
			Name:     "poi",
			Location: Pt(float64(i%16), float64(i/16)),
			Labels:   []string{"a", "b", "c"},
		}); err != nil {
			t.Fatal(err)
		}
		truth[i] = []bool{i%2 == 0, true, false}
	}
	for i := 0; i < nWorkers; i++ {
		if err := svc.AddWorker(wid(i), WorkerSpec{
			Name:      "w",
			Locations: []Point{Pt(float64(2*(i%8)), 0.5)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return &GroundTruth{Truth: truth}
}

// feedPairs fabricates one answer for every (worker, task) pair in the given
// half-open ranges, submits them to svc, and returns the exact submissions.
// Worker index 3 answers at chance, matching the tiny world's spammer.
func feedPairs(t *testing.T, svc *Service, truth *GroundTruth, seed int64, wFrom, wTo, tFrom, tTo int) []recordedAnswer {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var log []recordedAnswer
	for wi := wFrom; wi < wTo; wi++ {
		for ti := tFrom; ti < tTo; ti++ {
			p := 0.9
			if wi == 3 {
				p = 0.5
			}
			a := answer(WorkerID(wi), TaskID(ti), truth, p, rng)
			if err := svc.SubmitAnswer(wid(wi), tid(ti), a.Selected); err != nil {
				t.Fatal(err)
			}
			log = append(log, recordedAnswer{wi, ti, a.Selected})
		}
	}
	return log
}

// feedTinyWorld feeds every (worker, task) pair of the tiny world once.
func feedTinyWorld(t *testing.T, svc *Service, truth *GroundTruth, seed int64) []recordedAnswer {
	t.Helper()
	return feedPairs(t, svc, truth, seed, 0, 4, 0, 8)
}

// replayAnswers feeds a recorded history into svc verbatim.
func replayAnswers(t *testing.T, svc *Service, log []recordedAnswer) {
	t.Helper()
	for _, a := range log {
		if err := svc.SubmitAnswer(wid(a.worker), tid(a.task), a.selected); err != nil {
			t.Fatal(err)
		}
	}
}

// requireIdenticalResults asserts two services produce bit-identical result
// sets and worker estimates — the equivalence contract between a quiesced
// background pipeline and a synchronous fit.
func requireIdenticalResults(t *testing.T, got, want *Service) {
	t.Helper()
	ctx := context.Background()
	gr, err := got.ResultSet(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wr, err := want.ResultSet(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(gr.Prob) != len(wr.Prob) {
		t.Fatalf("result sizes differ: %d vs %d tasks", len(gr.Prob), len(wr.Prob))
	}
	for ti := range wr.Prob {
		for k := range wr.Prob[ti] {
			if gr.Prob[ti][k] != wr.Prob[ti][k] {
				t.Fatalf("task %d label %d: prob %v != %v (not bit-identical)",
					ti, k, gr.Prob[ti][k], wr.Prob[ti][k])
			}
			if gr.Inferred[ti][k] != wr.Inferred[ti][k] {
				t.Fatalf("task %d label %d: inferred %v != %v", ti, k, gr.Inferred[ti][k], wr.Inferred[ti][k])
			}
		}
	}
	for wi := 0; wi < want.NumWorkers(); wi++ {
		gi, err := got.WorkerInfo(wid(wi))
		if err != nil {
			t.Fatal(err)
		}
		wiw, err := want.WorkerInfo(wid(wi))
		if err != nil {
			t.Fatal(err)
		}
		if gi.Quality != wiw.Quality {
			t.Fatalf("worker %d quality %v != %v (not bit-identical)", wi, gi.Quality, wiw.Quality)
		}
		for k := range wiw.DistanceSensitivity {
			if gi.DistanceSensitivity[k] != wiw.DistanceSensitivity[k] {
				t.Fatalf("worker %d sensitivity[%d] %v != %v", wi, k,
					gi.DistanceSensitivity[k], wiw.DistanceSensitivity[k])
			}
		}
	}
}

// TestWithBackgroundFitValidation pins the option's input contract.
func TestWithBackgroundFitValidation(t *testing.T) {
	if _, err := NewService(WithBackgroundFit(0, 5)); err == nil {
		t.Fatal("WithBackgroundFit(0, …) should be rejected")
	}
	if _, err := NewService(WithBackgroundFit(-time.Second, 5)); err == nil {
		t.Fatal("WithBackgroundFit(-1s, …) should be rejected")
	}
	svc, err := NewService(WithBackgroundFit(time.Minute, 0)) // minAnswers clamps to 1
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	if !svc.FitStats().Enabled {
		t.Fatal("FitStats().Enabled = false on a background-fit service")
	}
}

// TestBackgroundQuiescedMatchesSync is the equivalence contract: a
// background-fit service, once quiesced through WaitFresh, must produce
// results bit-identical to a synchronous service fed the same answers and
// fitted explicitly — on every engine. The background fit runs over a
// checkpoint-grade snapshot warm-started from the live parameters, so EM
// starts from exactly the state the synchronous fit starts from.
func TestBackgroundQuiescedMatchesSync(t *testing.T) {
	for _, eng := range engineMatrix {
		t.Run(eng.name, func(t *testing.T) {
			ctx := context.Background()

			bg, err := NewService(append(append([]ServiceOption{}, eng.opts...), bgOpts()...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer bg.Close(ctx)
			truth := registerTinyWorld(t, bg)
			log := feedTinyWorld(t, bg, truth, 23)

			sync, err := NewService(append([]ServiceOption{WithFullEMInterval(0)}, eng.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			registerTinyWorld(t, sync)
			replayAnswers(t, sync, log)

			if err := bg.WaitFresh(ctx); err != nil {
				t.Fatal(err)
			}
			if _, err := sync.Fit(ctx); err != nil {
				t.Fatal(err)
			}
			requireIdenticalResults(t, bg, sync)

			st := bg.FitStats()
			if want := uint64(len(log)); st.FullFitAnswers != want || st.CoveredAnswers != want {
				t.Fatalf("after WaitFresh: full=%d covered=%d, want both %d",
					st.FullFitAnswers, st.CoveredAnswers, want)
			}
			if st.Staleness != 0 {
				t.Fatalf("staleness %v after WaitFresh, want 0", st.Staleness)
			}
		})
	}
}

// TestBackgroundFitNeverBlocksReads is the zero-pause claim itself: while a
// deliberately slow full fit is in flight, every read and assignment request
// completes in a small fraction of the fit's duration, and readers keep
// seeing the previous generation. A synchronous service would park all of
// them behind the fit.
func TestBackgroundFitNeverBlocksReads(t *testing.T) {
	ctx := context.Background()
	rec := &fitRecorder{}
	svc, err := NewService(append([]ServiceOption{
		WithEngine(EngineSingle),
		WithModelConfig(slowFitConfig(3000)),
		WithObserver(rec),
	}, bgOpts()...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(ctx)
	// 800 answers at a serial, never-converging fit keep EM busy for a few
	// hundred milliseconds — long enough to measure requests against.
	truth := registerGridWorld(t, svc, 100, 8)
	feedPairs(t, svc, truth, 31, 0, 8, 0, 100)
	genBefore := svc.FitStats().Generation

	waitDone := make(chan error, 1)
	go func() { waitDone <- svc.WaitFresh(ctx) }()

	deadline := time.Now().Add(10 * time.Second)
	for !svc.FitStats().InFlight {
		if time.Now().After(deadline) {
			t.Fatal("fit never started")
		}
		time.Sleep(time.Millisecond)
	}

	var maxLat time.Duration
	requests := 0
	for svc.FitStats().InFlight {
		start := time.Now()
		if _, err := svc.Results(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.WorkerInfo(wid(0)); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.RequestTasks(ctx, []string{wid(1)}); err != nil {
			t.Fatal(err)
		}
		if lat := time.Since(start); lat > maxLat {
			maxLat = lat
		}
		// Readers may only ever see the generation published before the fit
		// (or, in the swap window just before InFlight clears, the one the
		// fit just published) — never a half-fitted state.
		if g := svc.FitStats().Generation; g != genBefore && g != genBefore+1 {
			t.Fatalf("generation %d observed mid-fit, want %d or %d", g, genBefore, genBefore+1)
		}
		requests++
	}
	if err := <-waitDone; err != nil {
		t.Fatal(err)
	}

	durs := rec.fitDurations()
	if len(durs) == 0 {
		t.Fatal("no fit observed")
	}
	fitDur := durs[0]
	if fitDur < 100*time.Millisecond {
		t.Skipf("fit finished in %v; too fast to compare request latency against", fitDur)
	}
	if requests == 0 {
		t.Fatal("no requests completed while the fit was in flight")
	}
	// "Much less than": a full request triple must cost under a quarter of
	// the fit. In practice it is microseconds against hundreds of
	// milliseconds; the slack absorbs scheduler noise on loaded CI hosts.
	if maxLat >= fitDur/4 {
		t.Fatalf("max request latency %v with a %v fit in flight (%d requests); want < fit/4", maxLat, fitDur, requests)
	}
	t.Logf("fit %v, %d request triples, max latency %v", fitDur, requests, maxLat)
}

// TestBackgroundCheckpointMidFit checkpoints while a slow fit is in flight
// and asserts the snapshot is a consistent generation: restoring it yields a
// service whose generation counter moves strictly forward and whose results,
// once quiesced, are bit-identical to a synchronous service fed the same
// history. The delta being merged into the in-flight fit must never leak
// half-applied into the checkpoint.
func TestBackgroundCheckpointMidFit(t *testing.T) {
	ctx := context.Background()
	mkOpts := func() []ServiceOption {
		return append([]ServiceOption{
			WithEngine(EngineSingle),
			WithModelConfig(slowFitConfig(1500)),
		}, bgOpts()...)
	}

	svc, err := NewService(mkOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(ctx)
	truth := registerGridWorld(t, svc, 120, 8)

	// Round 1: feed and quiesce, so the service has a fitted generation.
	round1 := feedPairs(t, svc, truth, 41, 0, 8, 0, 40)
	if err := svc.WaitFresh(ctx); err != nil {
		t.Fatal(err)
	}

	// Round 2 starts a slow fit; the extra answers below land in its delta.
	round2 := feedPairs(t, svc, truth, 43, 0, 8, 40, 80)
	waitDone := make(chan error, 1)
	go func() { waitDone <- svc.WaitFresh(ctx) }()
	deadline := time.Now().Add(10 * time.Second)
	for !svc.FitStats().InFlight {
		if time.Now().After(deadline) {
			t.Fatal("fit never started")
		}
		time.Sleep(time.Millisecond)
	}
	delta := feedPairs(t, svc, truth, 47, 0, 8, 80, 120)

	genAtCapture := svc.FitStats().Generation
	var buf bytes.Buffer
	if err := svc.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if err := <-waitDone; err != nil {
		t.Fatal(err)
	}

	restored, err := NewService(mkOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close(ctx)
	if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	st := restored.FitStats()
	if st.Generation <= genAtCapture {
		t.Fatalf("restored generation %d not past capture-time %d", st.Generation, genAtCapture)
	}
	total := uint64(len(round1) + len(round2) + len(delta))
	if st.CoveredAnswers != total {
		t.Fatalf("restored publication covers %d answers, want %d", st.CoveredAnswers, total)
	}
	if st.FullFitAnswers > st.CoveredAnswers {
		t.Fatalf("inconsistent restored publication: full %d > covered %d", st.FullFitAnswers, st.CoveredAnswers)
	}
	if err := restored.WaitFresh(ctx); err != nil {
		t.Fatal(err)
	}
	if g := restored.FitStats().Generation; g <= st.Generation {
		t.Fatalf("generation %d did not advance past %d after post-restore WaitFresh", g, st.Generation)
	}

	// The synchronous comparator replays the identical history with explicit
	// fits at the same points the background service fitted.
	cmp, err := NewService(WithEngine(EngineSingle), WithModelConfig(slowFitConfig(1500)), WithFullEMInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	registerGridWorld(t, cmp, 120, 8)
	replayAnswers(t, cmp, round1)
	if _, err := cmp.Fit(ctx); err != nil {
		t.Fatal(err)
	}
	replayAnswers(t, cmp, round2)
	replayAnswers(t, cmp, delta)
	if _, err := cmp.Fit(ctx); err != nil {
		t.Fatal(err)
	}
	requireIdenticalResults(t, restored, cmp)
}

// TestBackgroundCloseDrains pins the shutdown contract: Close folds every
// outstanding answer into one final fully fitted generation (what the
// pre-checkpoint hook relies on for zero lost answers across a rolling
// restart), stays idempotent, and fails later barriers with ErrClosed.
func TestBackgroundCloseDrains(t *testing.T) {
	ctx := context.Background()
	svc, err := NewService(append([]ServiceOption{WithEngine(EngineSingle)}, bgOpts()...)...)
	if err != nil {
		t.Fatal(err)
	}
	truth := registerTinyWorld(t, svc)
	log := feedPairs(t, svc, truth, 53, 0, 3, 0, 8) // worker 3's pairs stay free

	if err := svc.Close(ctx); err != nil {
		t.Fatal(err)
	}
	st := svc.FitStats()
	if want := uint64(len(log)); st.FullFitAnswers != want {
		t.Fatalf("drain published full coverage %d, want %d", st.FullFitAnswers, want)
	}
	if err := svc.Close(ctx); err != nil {
		t.Fatal(err) // idempotent
	}

	// The service keeps serving and learning after Close; only the barrier
	// on a *new* full fit reports closure.
	if err := svc.SubmitAnswer(wid(3), tid(0), []bool{true, true, false}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Results(ctx); err != nil {
		t.Fatal(err)
	}
	if err := svc.WaitFresh(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("WaitFresh after Close = %v, want ErrClosed", err)
	}
}

// TestBackgroundConcurrencyStress hammers every public entry point of a
// background-fit service at once — submissions, lock-free reads, assignment
// planning, checkpoints, stats — while fits cycle at a few-millisecond
// cadence, on every engine. Run under -race (CI does), this is the proof
// that the atomic-swap publication protocol has no data races; the final
// WaitFresh + equivalence-style sanity check proves it also converges to a
// coherent state.
func TestBackgroundConcurrencyStress(t *testing.T) {
	for _, eng := range engineMatrix {
		t.Run(eng.name, func(t *testing.T) {
			ctx := context.Background()
			svc, err := NewService(append(append([]ServiceOption{}, eng.opts...),
				WithBackgroundFit(2*time.Millisecond, 4))...)
			if err != nil {
				t.Fatal(err)
			}
			const nTasks, nWorkers = 200, 16
			truth := registerGridWorld(t, svc, nTasks, nWorkers)

			const runFor = 250 * time.Millisecond
			stop := make(chan struct{})
			var wg sync.WaitGroup
			fail := make(chan error, 16)

			// Submitters: each walks a disjoint half of the (worker, task)
			// grid — the model rejects duplicate pairs — and stops early if it
			// exhausts its share before the clock runs out.
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(g int, seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := g; i < nTasks*nWorkers; i += 2 {
						select {
						case <-stop:
							return
						default:
						}
						wi, ti := i%nWorkers, i/nWorkers
						a := answer(WorkerID(wi), TaskID(ti), truth, 0.9, rng)
						if err := svc.SubmitAnswer(wid(wi), tid(ti), a.Selected); err != nil {
							fail <- fmt.Errorf("submit: %w", err)
							return
						}
					}
				}(g, int64(61+g))
			}
			// Readers: lock-free published-state reads.
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						if _, err := svc.Results(ctx); err != nil {
							fail <- fmt.Errorf("results: %w", err)
							return
						}
						if _, err := svc.WorkerInfo(wid(i % nWorkers)); err != nil {
							fail <- fmt.Errorf("worker info: %w", err)
							return
						}
						svc.FitStats()
					}
				}()
			}
			// Assigner: write-locked planning against the live engine.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := svc.RequestTasks(ctx, []string{wid(i % nWorkers)}); err != nil {
						fail <- fmt.Errorf("request tasks: %w", err)
						return
					}
				}
			}()
			// Checkpointer: read-locked capture racing the fit swap.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					var buf bytes.Buffer
					if err := svc.Checkpoint(&buf); err != nil {
						fail <- fmt.Errorf("checkpoint: %w", err)
						return
					}
				}
			}()

			time.Sleep(runFor)
			close(stop)
			wg.Wait()
			select {
			case err := <-fail:
				t.Fatal(err)
			default:
			}

			// Quiesce and prove the surviving state is coherent: the
			// publication covers every accepted answer via a full fit, and a
			// restored copy of the final checkpoint agrees with the original.
			if err := svc.WaitFresh(ctx); err != nil {
				t.Fatal(err)
			}
			st := svc.FitStats()
			if want := uint64(svc.AnswerCount()); st.FullFitAnswers != want {
				t.Fatalf("quiesced publication covers %d answers via full fit, want %d", st.FullFitAnswers, want)
			}
			// WaitFresh promises coverage, not an idle pipeline: a full fit
			// requested while the barrier was still waiting may run after it
			// returns and nudge the warm-started parameters. Close drains the
			// scheduler, so the checkpoint and the comparison below see one
			// publication.
			if err := svc.Close(ctx); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := svc.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := NewService(append(append([]ServiceOption{}, eng.opts...), bgOpts()...)...)
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
			requireIdenticalResults(t, restored, svc)
			if err := restored.Close(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFitTraceTellsNestedShardsApart walks a real fit tree: a traced 2x2
// federated service's fit.cycle must hold four fit.shard spans under fit.em,
// one per (city, shard) pair — before the city stamp the two cities' shards
// were both "shard=0" and "shard=1". A plain sharded fit carries no city.
func TestFitTraceTellsNestedShardsApart(t *testing.T) {
	shardSpans := func(opts ...ServiceOption) []map[string]string {
		tracer := trace.New(trace.Config{})
		svc, err := NewService(append(append(opts, bgOpts()...), WithTracer(tracer))...)
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close(context.Background())
		truth := registerGridWorld(t, svc, 48, 8)
		feedPairs(t, svc, truth, 7, 0, 8, 0, 24)
		if err := svc.WaitFresh(context.Background()); err != nil {
			t.Fatal(err)
		}
		// The barrier returns at the publication; the cycle's root span ends
		// (and reaches the ring) only after its last locked section. Close
		// waits for the scheduler goroutine, hence for the finished trace.
		if err := svc.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		var out []map[string]string
		for _, tr := range tracer.Snapshot(trace.Query{Name: "fit.cycle"}) {
			for _, sp := range tr.Spans {
				if sp.Name != "fit.shard" {
					continue
				}
				if parent := tr.Spans[sp.Parent].Name; parent != "fit.em" {
					t.Fatalf("fit.shard hangs off %q, want fit.em", parent)
				}
				attrs := make(map[string]string)
				for _, a := range sp.Attrs {
					attrs[a.K] = a.V
				}
				out = append(out, attrs)
			}
		}
		return out
	}

	fed := shardSpans(WithEngine(EngineFederated), WithCities(2), WithShards(2))
	if len(fed) != 4 {
		t.Fatalf("federated fit minted %d fit.shard spans, want 4: %v", len(fed), fed)
	}
	seen := make(map[[2]string]bool)
	for _, attrs := range fed {
		pair := [2]string{attrs["city"], attrs["shard"]}
		if (pair[0] != "0" && pair[0] != "1") || (pair[1] != "0" && pair[1] != "1") || seen[pair] {
			t.Fatalf("fit.shard spans are not the four distinct (city, shard) pairs: %v", fed)
		}
		seen[pair] = true
		if attrs["iterations"] == "" {
			t.Fatalf("fit.shard span lost its iteration count: %v", attrs)
		}
	}

	plain := shardSpans(WithEngine(EngineSharded), WithShards(2))
	if len(plain) != 2 {
		t.Fatalf("sharded fit minted %d fit.shard spans, want 2: %v", len(plain), plain)
	}
	for _, attrs := range plain {
		if _, nested := attrs["city"]; nested {
			t.Fatalf("top-level fit.shard span carries a city: %v", attrs)
		}
	}
}
