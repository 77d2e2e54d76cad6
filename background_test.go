package poilabel

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"poilabel/internal/core"
	"poilabel/internal/federation"
	"poilabel/internal/geo"
	"poilabel/internal/shard"
	"poilabel/internal/snapshot"
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

// bareFit replays a history into a bare engine of svc's shape — the model,
// fitter or federation buildEngine would construct over svc's registrations —
// the way a service feeds its engine (Update on the single engine, Observe on
// the partition ones), fits it in place and returns what it publishes. No
// Service, no fork, no cycle: the reference a service's fits are held to.
func bareFit(t *testing.T, svc *Service, log []recordedAnswer) *PublishedParams {
	t.Helper()
	tasks, workers := append([]Task(nil), svc.tasks...), append([]Worker(nil), svc.workers...)
	var pts []Point
	for _, task := range tasks {
		pts = append(pts, task.Location)
	}
	for _, w := range workers {
		pts = append(pts, w.Locations...)
	}
	norm := geo.NewNormalizer(geo.Bound(pts).Diameter())
	shCfg := shard.Config{Shards: svc.cfg.shards, Model: svc.cfg.model}
	var (
		learn   func(Answer) error
		fit     func()
		publish func() (*Result, []float64, [][]float64)
	)
	switch svc.cfg.engine {
	case EngineSingle:
		m, err := core.NewModel(tasks, workers, norm, svc.cfg.model)
		if err != nil {
			t.Fatal(err)
		}
		learn, fit, publish = m.Update, func() { m.Fit() }, m.Publish
	case EngineSharded:
		sh, err := shard.New(tasks, workers, norm, shCfg)
		if err != nil {
			t.Fatal(err)
		}
		learn, fit, publish = sh.Observe, func() { sh.Fit() }, sh.Publish
	case EngineFederated:
		fed, err := federation.New(tasks, workers, norm, federation.Config{Cities: svc.cfg.cities, Shard: shCfg})
		if err != nil {
			t.Fatal(err)
		}
		learn, fit, publish = fed.Observe, func() { fed.Fit() }, fed.Publish
	}
	for _, a := range log {
		if err := learn(Answer{Worker: WorkerID(a.worker), Task: TaskID(a.task), Selected: a.selected}); err != nil {
			t.Fatal(err)
		}
	}
	fit()
	res, pi, pdw := publish()
	return &PublishedParams{Result: res, PI: pi, PDW: pdw}
}

// requirePublishes asserts the generation svc serves is want, bit for bit.
func requirePublishes(t *testing.T, svc *Service, want *PublishedParams) {
	t.Helper()
	pub := svc.published.Load()
	same := func(what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries, the bare engine has %d", what, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d] = %v, the bare engine fitted in place has %v (not bit-identical)", what, i, got[i], want[i])
			}
		}
	}
	if len(pub.dense.Prob) != len(want.Result.Prob) || len(pub.pdw) != len(want.PDW) {
		t.Fatalf("generation covers %d tasks and %d workers, the bare engine %d and %d",
			len(pub.dense.Prob), len(pub.pdw), len(want.Result.Prob), len(want.PDW))
	}
	for ti := range want.Result.Prob {
		same(fmt.Sprintf("task %d posteriors", ti), pub.dense.Prob[ti], want.Result.Prob[ti])
	}
	same("worker qualities", pub.pi, want.PI)
	for w := range want.PDW {
		same(fmt.Sprintf("worker %d sensitivity", w), pub.pdw[w], want.PDW[w])
	}
}

// TestBackgroundQuiescedMatchesSync is the equivalence contract: the fit
// cycle produces the same bits whoever triggers it, and they are the bits of
// fitting in place. A service with a scheduler, quiesced through WaitFresh,
// and a service without one, fed the same answers and fitted explicitly, must
// serve bit-identical results on every engine — and both must serve exactly
// what a bare engine of that shape, replaying the same history and fitting in
// place, publishes. The cycle's EM runs over a fork warm-started from the
// live parameters, so it starts from exactly the state the in-place fit
// starts from.
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
			bare := bareFit(t, sync, log)
			requirePublishes(t, bg, bare)
			requirePublishes(t, sync, bare)

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
// deliberately slow full fit is in flight, no call that owes nobody a fresh
// generation waits for it — each completes in a small fraction of the fit's
// duration. With a scheduler that is every read and assignment request, and
// readers keep seeing the previous generation. Without one the fit is some
// caller's Fit, and the calls from other goroutines are the ones that do not
// read results (reads stay fresh by contract there, and may wait): assignment
// requests, submissions, checkpoints, health. The fit holds no lock across
// EM, so nothing parks behind it.
func TestBackgroundFitNeverBlocksReads(t *testing.T) {
	const nTasks, nSpare, nWorkers = 100, 50, 8
	rows := []struct {
		name string
		opts []ServiceOption
		// fit starts the slow fit and waits for it.
		fit func(ctx context.Context, svc *Service) error
		// request is one round of calls made while the fit is in flight.
		request func(ctx context.Context, svc *Service, round int) error
	}{
		{"scheduler", bgOpts(),
			func(ctx context.Context, svc *Service) error { return svc.WaitFresh(ctx) },
			func(ctx context.Context, svc *Service, round int) error {
				if _, err := svc.Results(ctx); err != nil {
					return err
				}
				if _, err := svc.WorkerInfo(wid(0)); err != nil {
					return err
				}
				_, err := svc.RequestTasks(ctx, []string{wid(1)})
				return err
			}},
		{"caller", []ServiceOption{WithFullEMInterval(0)},
			func(ctx context.Context, svc *Service) error { _, err := svc.Fit(ctx); return err },
			func(ctx context.Context, svc *Service, round int) error {
				if _, err := svc.RequestTasks(ctx, []string{wid(1)}); err != nil {
					return err
				}
				if round < nSpare*nWorkers {
					if err := svc.SubmitAnswer(wid(round%nWorkers), tid(nTasks+round/nWorkers), []bool{true, true, false}); err != nil {
						return err
					}
				}
				if err := svc.Checkpoint(io.Discard); err != nil {
					return err
				}
				svc.Health()
				return nil
			}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ctx := context.Background()
			rec := &fitRecorder{}
			svc, err := NewService(append([]ServiceOption{
				WithEngine(EngineSingle),
				WithModelConfig(slowFitConfig(3000)),
				WithObserver(rec),
			}, row.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close(ctx)
			// 800 answers at a serial, never-converging fit keep EM busy for a
			// few hundred milliseconds — long enough to measure requests
			// against. The spare tasks are the pairs submitted meanwhile.
			truth := registerGridWorld(t, svc, nTasks+nSpare, nWorkers)
			feedPairs(t, svc, truth, 31, 0, nWorkers, 0, nTasks)
			genBefore := svc.FitStats().Generation

			fitDone := make(chan error, 1)
			go func() { fitDone <- row.fit(ctx, svc) }()

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
				if err := row.request(ctx, svc, requests); err != nil {
					t.Fatal(err)
				}
				if lat := time.Since(start); lat > maxLat {
					maxLat = lat
				}
				// Readers may only ever see the generation published before
				// the fit (or, in the swap window just before InFlight clears,
				// the one the fit just published) — never a half-fitted state.
				if g := svc.FitStats().Generation; g != genBefore && g != genBefore+1 {
					t.Fatalf("generation %d observed mid-fit, want %d or %d", g, genBefore, genBefore+1)
				}
				requests++
			}
			if err := <-fitDone; err != nil {
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
			// "Much less than": a full request round must cost under a quarter
			// of the fit. In practice it is microseconds against hundreds of
			// milliseconds; the slack absorbs scheduler noise on loaded CI hosts.
			if maxLat >= fitDur/4 {
				t.Fatalf("max request latency %v with a %v fit in flight (%d requests); want < fit/4", maxLat, fitDur, requests)
			}
			t.Logf("fit %v, %d request rounds, max latency %v", fitDur, requests, maxLat)
		})
	}
}

// TestCancelledFitClaimsNoCoverage pins that only an adopted fit moves the fit
// bookkeeping, whoever ran it: a due fit cancelled mid-EM leaves the answer
// that made it due accepted and everything else as it was — the answers since
// the last full fit still counted, the engine still dirty, the published
// coverage unmoved, and all of that in the next checkpoint — so a service
// restored from it still owes, and runs, a real fit.
func TestCancelledFitClaimsNoCoverage(t *testing.T) {
	// Enough answers that a never-converging fit is still running when the
	// cancellation lands.
	const nTasks, nWorkers, answers = 40, 8, 40 * 8
	rows := []struct {
		name string
		opts []ServiceOption
		// cancelled makes the last submission, lets the fit the answers owe
		// start, cancels it mid-EM and returns the error its waiter saw.
		cancelled func(t *testing.T, svc *Service, last func(context.Context) error) error
	}{
		{"caller-run", []ServiceOption{WithFullEMInterval(answers)},
			func(t *testing.T, svc *Service, last func(context.Context) error) error {
				// The submission completes the interval, so it runs the fit,
				// which consults the context once per EM iteration: ten
				// consultations in, the fit is a few iterations deep.
				return last(&countdownCtx{Context: context.Background(), left: 10})
			}},
		{"scheduler-run", bgOpts(),
			func(t *testing.T, svc *Service, last func(context.Context) error) error {
				if err := last(context.Background()); err != nil {
					t.Fatal(err)
				}
				done := make(chan error, 1)
				go func() { done <- svc.WaitFresh(context.Background()) }()
				waitInFlight(t, svc)
				// A drain whose deadline has passed cancels the in-flight fit.
				expired, cancel := context.WithCancel(context.Background())
				cancel()
				svc.Close(expired)
				return <-done
			}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			svc, err := NewService(append([]ServiceOption{WithEngine(EngineSingle), WithModelConfig(slowFitConfig(1 << 30))}, row.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close(context.Background())
			truth := registerGridWorld(t, svc, nTasks, nWorkers)
			feedPairs(t, svc, truth, 83, 0, nWorkers-1, 0, nTasks)
			feedPairs(t, svc, truth, 85, nWorkers-1, nWorkers, 0, nTasks-1)
			fitsBefore := svc.FitStats().Fits
			err = row.cancelled(t, svc, func(ctx context.Context) error {
				return svc.SubmitAnswerContext(ctx, wid(nWorkers-1), tid(nTasks-1), []bool{true, true, false})
			})
			if !errors.Is(err, context.Canceled) && !errors.Is(err, ErrClosed) {
				t.Fatalf("the cancelled fit's waiter saw %v, want a cancellation", err)
			}

			svc.mu.RLock()
			sinceFull, dirty := svc.sinceFull, svc.dirty
			svc.mu.RUnlock()
			st := svc.FitStats()
			if sinceFull != answers || !dirty || st.FullFitAnswers != 0 || svc.AnswerCount() != answers || st.Fits == fitsBefore {
				t.Fatalf("after the cancelled fit: sinceFull=%d dirty=%t answers=%d %+v; want %d answers, all still owed a full fit, and the abandoned attempt counted",
					sinceFull, dirty, svc.AnswerCount(), st, answers)
			}
			var buf bytes.Buffer
			if err := svc.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			snap, err := snapshot.Decode(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if snap.Service.SinceFull != answers || !snap.Service.Dirty {
				t.Fatalf("checkpoint records since_full=%d dirty=%t, want %d and true", snap.Service.SinceFull, snap.Service.Dirty, answers)
			}

			// The model configuration is not state: the restored service gets
			// one whose fits finish.
			restored, err := NewService(append([]ServiceOption{WithEngine(EngineSingle)}, bgOpts()...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close(context.Background())
			if err := restored.Restore(&buf); err != nil {
				t.Fatal(err)
			}
			if st := restored.FitStats(); st.FullFitAnswers != 0 || st.CoveredAnswers != answers {
				t.Fatalf("restored publication claims a full fit over %d of %d covered answers; none ran", st.FullFitAnswers, st.CoveredAnswers)
			}
			if err := restored.WaitFresh(context.Background()); err != nil {
				t.Fatal(err)
			}
			if st := restored.FitStats(); st.Fits != 1 || st.FullFitAnswers != answers {
				t.Fatalf("the barrier after the restore ran %d fits covering %d answers, want one real fit over %d", st.Fits, st.FullFitAnswers, answers)
			}
		})
	}
}

// countdownCtx is a context that reports cancellation from its left-th Err
// call on: a cancellation that lands mid-fit without a clock.
type countdownCtx struct {
	context.Context
	mu   sync.Mutex
	left int
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left--; c.left < 0 {
		return context.Canceled
	}
	return nil
}

// waitInFlight polls until a fit cycle is running.
func waitInFlight(t *testing.T, svc *Service) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !svc.FitStats().InFlight {
		if time.Now().After(deadline) {
			t.Fatal("fit never started")
		}
		time.Sleep(time.Millisecond)
	}
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

// TestFitCycleTraceSaysWhoRanIt reads the one cycle's spans both ways it gets
// run. A fit a traced caller makes due hangs off that caller's own span —
// answer.submit -> fit.cycle -> capture/em/merge/swap, run_by=caller — so the
// slow submission explains itself; a scheduler's cycle is a trace of its own,
// run_by=scheduler, with the same phases. Neither has a rebuild phase.
func TestFitCycleTraceSaysWhoRanIt(t *testing.T) {
	const answers = 8
	cycleOf := func(tr *trace.Trace) (parent, runBy string, phases []string) {
		ci := -1
		for i, sp := range tr.Spans {
			switch {
			case sp.Name == "fit.cycle":
				ci = i
				if sp.Parent >= 0 {
					parent = tr.Spans[sp.Parent].Name
				}
				for _, a := range sp.Attrs {
					if a.K == "run_by" {
						runBy = a.V
					}
				}
			case ci >= 0 && int(sp.Parent) == ci:
				phases = append(phases, sp.Name)
			}
		}
		return parent, runBy, phases
	}
	wantPhases := []string{"fit.capture", "fit.em", "fit.merge", "fit.swap"}

	tracer := trace.New(trace.Config{})
	caller, err := NewService(WithFullEMInterval(answers), WithTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	registerTinyWorld(t, caller)
	for ti := 0; ti < answers; ti++ {
		ctx, root := tracer.StartRoot(context.Background(), "answer.request", 0)
		if err := caller.SubmitAnswerContext(ctx, wid(0), tid(ti), []bool{true, false, true}[:len(caller.tasks[ti].Labels)]); err != nil {
			t.Fatal(err)
		}
		root.End()
	}
	var seen int
	for _, tr := range tracer.Snapshot(trace.Query{Name: "answer.request"}) {
		parent, runBy, phases := cycleOf(tr)
		if phases == nil { // request, submit, dedup, learn: no fit was due
			continue
		}
		seen++
		if parent != "answer.submit" || runBy != "caller" || !reflect.DeepEqual(phases, wantPhases) {
			t.Fatalf("the due submission's cycle hangs off %q, run_by=%q, phases %v; want answer.submit, caller, %v", parent, runBy, phases, wantPhases)
		}
	}
	if seen != 1 || caller.FitStats().Fits != 1 {
		t.Fatalf("%d submissions carry a fit cycle and %d cycles ran, want the one that completed the interval", seen, caller.FitStats().Fits)
	}

	tracer = trace.New(trace.Config{})
	sched, err := NewService(append(bgOpts(), WithTracer(tracer))...)
	if err != nil {
		t.Fatal(err)
	}
	truth := registerTinyWorld(t, sched)
	feedTinyWorld(t, sched, truth, 7)
	if err := sched.WaitFresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Close waits for the scheduler goroutine, hence for the finished trace.
	if err := sched.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	traces := tracer.Snapshot(trace.Query{Name: "fit.cycle"})
	if len(traces) != 1 {
		t.Fatalf("%d fit.cycle traces after one barrier, want 1", len(traces))
	}
	if parent, runBy, phases := cycleOf(traces[0]); parent != "" || runBy != "scheduler" || !reflect.DeepEqual(phases, wantPhases) {
		t.Fatalf("the scheduler's cycle hangs off %q, run_by=%q, phases %v; want a root, scheduler, %v", parent, runBy, phases, wantPhases)
	}
}

// TestForkCaptureIsParameterSized pins what a cycle's capture costs: forking
// the engine allocates the same whether the log holds 6 000 or 26 000 answers
// — parameters are copied, evidence is shared — on every engine shape.
func TestForkCaptureIsParameterSized(t *testing.T) {
	const nTasks, nWorkers = 300, 100
	forkBytes := func(svc *Service) uint64 {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 4; i++ {
			svc.eng.fork()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 4
	}
	for _, sh := range fitShapes {
		t.Run(sh.name, func(t *testing.T) {
			svc, err := NewService(append([]ServiceOption{WithFullEMInterval(0)}, sh.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			registerGridWorld(t, svc, nTasks, nWorkers)
			fed := 0
			feedTo := func(n int) {
				for ; fed < n; fed++ {
					wi, ti := fed%nWorkers, fed/nWorkers
					if err := svc.SubmitAnswer(wid(wi), tid(ti), []bool{wi%3 != 0, true, ti%2 == 0}); err != nil {
						t.Fatal(err)
					}
				}
			}
			feedTo(6000)
			small := forkBytes(svc)
			feedTo(26000)
			large := forkBytes(svc)
			if small == 0 || large > small+small/10 {
				t.Fatalf("a fork allocates %d bytes at 6 000 answers and %d at 26 000; it must not grow with the log", small, large)
			}
			t.Logf("fork: %d B at 6 000 answers, %d B at 26 000", small, large)
		})
	}
}
