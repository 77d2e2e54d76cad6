package poilabel

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"poilabel/internal/assign"
	"poilabel/internal/trace"
)

// ErrClosed is returned by operations that need the fit pipeline after Close
// has shut it down.
var ErrClosed = errors.New("poilabel: service closed")

// WithBackgroundFit chooses where full EM fits run: instead of inline under
// the write lock, a single pipeline goroutine fits over a copy-on-write
// snapshot of the answer store and swaps the finished engine in, so no
// request ever waits for EM convergence. Everything else is the one path
// every service has — answers are learned and counted as they arrive, every
// completed fit publishes a generation, and reads serve it — with one
// consequence for reads: they never wait for the pipeline, so Results,
// ResultSet and WorkerInfo serve the last generation however stale, and Fit
// and WaitFresh are the barriers that buy freshness back. Answers accepted
// while a fit is in flight are batched into a delta that is merged — via the
// engine's cheap incremental update — into the generation that fit publishes.
//
// interval is the fit cadence: whenever answers are outstanding, a full fit
// starts at most this long after they arrived. minAnswers (values below 1
// mean 1) triggers an eager fit as soon as that many answers are waiting,
// without waiting for the tick. At most one fit is ever in flight; triggers
// arriving mid-fit coalesce into a single queued re-fit.
//
// The pipeline's cadence replaces WithFullEMInterval's: submissions never
// fit inline. Call Close to drain the pipeline on shutdown. See
// docs/ARCHITECTURE.md ("Life of a fit") for the staleness contract and
// PERFORMANCE.md for what the copy costs a single forced fit.
func WithBackgroundFit(interval time.Duration, minAnswers int) ServiceOption {
	return func(c *serviceConfig) error {
		if interval <= 0 {
			return fmt.Errorf("poilabel: non-positive background fit interval %v", interval)
		}
		if minAnswers < 1 {
			minAnswers = 1
		}
		c.bgInterval = interval
		c.bgMinAnswers = minAnswers
		return nil
	}
}

// paramGen is one published parameter generation: an immutable copy of the
// engine's read state plus the bookkeeping readers need to reason about
// staleness. Every full fit ends in one, whichever placement ran it.
// Generations are published through Service.published with an atomic pointer
// swap and must never be mutated afterwards — with one exception, the body
// cell below — and, because that cell holds a sync.Once, a paramGen is only
// ever handled by pointer, never copied.
type paramGen struct {
	gen       uint64    // publication counter, strictly increasing
	seq       uint64    // answers covered (full fit + merged delta)
	fullSeq   uint64    // answers covered by the underlying full fit
	at        time.Time // publication time
	converged bool      // whether the underlying full fit converged
	results   []TaskResult
	dense     *Result
	pi        []float64
	pdw       [][]float64
	// plan is the generation's immutable planning view (nil when the
	// engine does not support snapshot planning). RequestTasks plans
	// against it off the write lock and re-validates picks at commit.
	plan *assign.Snapshot
	// superseded is closed when the next generation is published; barrier
	// waiters select on it, so a publication between their check and their
	// wait cannot be missed.
	superseded chan struct{}
	// body is the generation's GET /results response, encoded by its first
	// reader (resultsJSON) and dropped with the generation: a write-once cell
	// with its own synchronisation, written at most once, before its first
	// use and never after. Nothing encodes at publication — most generations
	// of a busy pipeline are never read.
	body struct {
		once sync.Once
		json []byte
		err  error
	}
}

// resultsJSON returns the generation's results as the bytes
// json.NewEncoder(w).Encode(struct{Results []TaskResult `json:"results"`}{g.results})
// writes — trailing newline included, a generation without rows as [] —
// encoding them on the first call and serving the same slice to every later
// one. Concurrent first callers wait for the one encode; encoded is true for
// the caller that ran it.
//
// Rows are encoded one at a time straight into the body, so encoding/json
// never holds a second copy of it, and the body is allocated once: lastSize is
// the length of the service's previous encode (a generation's body differs
// from its predecessor's by the digits of some probabilities and the rows of
// late registrations), read for the capacity and left at this body's length.
func (g *paramGen) resultsJSON(lastSize *atomic.Int64) (body []byte, encoded bool, err error) {
	g.body.once.Do(func() {
		encoded = true
		hint := int(lastSize.Load())
		buf := bodyBuffer(append(make([]byte, 0, hint+hint/16), `{"results":[`...))
		enc := json.NewEncoder(&buf)
		for i := range g.results {
			if err := enc.Encode(&g.results[i]); err != nil {
				g.body.err = fmt.Errorf("poilabel: encoding the results of generation %d: %w", g.gen, err)
				return
			}
			buf[len(buf)-1] = ',' // over the encoder's newline
		}
		if len(g.results) > 0 {
			buf = buf[:len(buf)-1]
		}
		g.body.json = append(buf, "]}\n"...)
		lastSize.Store(int64(len(g.body.json)))
	})
	return g.body.json, encoded, g.body.err
}

// bodyBuffer is the io.Writer the row encoder appends to.
type bodyBuffer []byte

func (b *bodyBuffer) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}

// staleness is how long answers the generation does not cover have been
// waiting, given the accepted-answer sequence: zero when it covers them all,
// else the generation's age.
func (g *paramGen) staleness(answerSeq uint64) time.Duration {
	if answerSeq > g.seq {
		return time.Since(g.at)
	}
	return 0
}

// fitPipeline is the off-lock fit placement's scheduler: one goroutine that
// owns the full-EM cadence for a Service. Lock ordering: the pipeline's mutex
// is only ever acquired after (or without) the Service's — never take s.mu
// while holding p.mu.
type fitPipeline struct {
	s          *Service
	interval   time.Duration
	minAnswers int

	kick     chan struct{} // capacity 1: the queued re-fit token
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	fitCtx    context.Context // cancels the in-flight fit on hard shutdown
	cancelFit context.CancelFunc

	mu         sync.Mutex
	wantFull   bool              // an explicit full fit was requested (WaitFresh)
	inFlight   bool              // a fit is running right now
	pendingMig *migrationRequest // queued elastic migration (capacity 1)

	fits      atomic.Uint64 // completed fit attempts (including abandoned)
	coalesced atomic.Uint64 // triggers dropped because a re-fit was queued
}

func newFitPipeline(s *Service, interval time.Duration, minAnswers int) *fitPipeline {
	// The pipeline's lifetime is the service's, not any request's: this root
	// context exists to be cancelled by Close.
	//lint:ignore ctxflow pipeline root context, cancelled by Close — no caller to inherit from
	ctx, cancel := context.WithCancel(context.Background())
	return &fitPipeline{
		s:          s,
		interval:   interval,
		minAnswers: minAnswers,
		kick:       make(chan struct{}, 1),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		fitCtx:     ctx,
		cancelFit:  cancel,
	}
}

// run is the scheduler loop. One goroutine per Service.
func (p *fitPipeline) run() {
	defer close(p.done)
	tick := time.NewTicker(p.interval)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			// Drain: fold any outstanding answers into one final full
			// generation so a post-Close checkpoint is fully fitted. The
			// fit honors fitCtx, which Close cancels on deadline. A queued
			// migration is abandoned — its waiter (if any) learns why.
			if req := p.takeMigration(); req != nil {
				req.finish(ErrClosed)
			}
			if p.backlog() > 0 || p.takeWantFull() {
				p.runOneFit()
			}
			return
		case <-p.kick:
		case <-tick.C:
		}
		p.drainFits()
		if req := p.takeMigration(); req != nil {
			p.runOneMigration(req)
		}
		p.republishRegistrations()
	}
}

// requestMigration queues one elastic migration for the scheduler goroutine
// to execute between fits. At most one migration is ever queued; a second
// request is rejected (the detector re-proposes on a later window).
func (p *fitPipeline) requestMigration(req *migrationRequest) bool {
	p.mu.Lock()
	if p.pendingMig != nil {
		p.mu.Unlock()
		return false
	}
	select {
	case <-p.stop:
		p.mu.Unlock()
		return false
	default:
	}
	p.pendingMig = req
	p.mu.Unlock()
	p.kickNow()
	return true
}

// takeMigration claims the queued migration, if any.
func (p *fitPipeline) takeMigration() *migrationRequest {
	p.mu.Lock()
	defer p.mu.Unlock()
	req := p.pendingMig
	p.pendingMig = nil
	return req
}

// drainFits runs fits until the pipeline owes nothing: the first fit of a
// wake-up runs on any backlog at all (the tick is the trickle's deadline);
// follow-up fits in the same wake-up require a full minAnswers batch or an
// explicit request, so a steady trickle is paced by the ticker instead of
// spinning fit-to-fit on single answers.
func (p *fitPipeline) drainFits() {
	first := true
	for {
		select {
		case <-p.stop:
			return
		default:
		}
		want := p.takeWantFull()
		bl := p.backlog()
		if !want && !(bl > 0 && (first || bl >= uint64(p.minAnswers))) {
			return
		}
		first = false
		p.runOneFit()
		// The new generation invalidated every candidate list; rebuild the
		// active cohort's here, off the request path, before requests pay
		// for builds one by one.
		p.s.warmPlanCandidates()
		if p.fitCtx.Err() != nil {
			return
		}
	}
}

// backlog returns the number of accepted answers not yet covered by the
// published generation (full fit or merged delta).
func (p *fitPipeline) backlog() uint64 {
	seq := p.s.led.answered()
	// Nothing published means no engine, hence no accepted answer.
	if pub := p.s.published.Load(); pub != nil && pub.seq < seq {
		return seq - pub.seq
	}
	return 0
}

// kickNow hands the scheduler a wake-up token without blocking. A token
// already queued means a re-fit is pending anyway; the trigger coalesces.
func (p *fitPipeline) kickNow() {
	select {
	case p.kick <- struct{}{}:
	default:
		p.coalesced.Add(1)
	}
}

// requestFull asks the scheduler for a full fit regardless of backlog.
func (p *fitPipeline) requestFull() {
	p.mu.Lock()
	p.wantFull = true
	p.mu.Unlock()
	p.kickNow()
}

func (p *fitPipeline) takeWantFull() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	w := p.wantFull
	p.wantFull = false
	return w
}

func (p *fitPipeline) setInFlight(v bool) {
	p.mu.Lock()
	p.inFlight = v
	p.mu.Unlock()
}

// cyclePhases mints one lifecycle's spans. The names stay string literals at
// their trace call so the metricname vocabulary check sees every one.
type cyclePhases struct {
	root                              func(*trace.Tracer, context.Context) (context.Context, *trace.Span)
	capture, rebuild, em, merge, swap startSpan
}

type startSpan func(context.Context) (context.Context, *trace.Span)

var fitPhases = cyclePhases{
	root: func(tr *trace.Tracer, ctx context.Context) (context.Context, *trace.Span) {
		return tr.StartRoot(ctx, "fit.cycle", 0)
	},
	capture: func(ctx context.Context) (context.Context, *trace.Span) { return trace.Start(ctx, "fit.capture") },
	rebuild: func(ctx context.Context) (context.Context, *trace.Span) { return trace.Start(ctx, "fit.rebuild") },
	em:      func(ctx context.Context) (context.Context, *trace.Span) { return trace.Start(ctx, "fit.em") },
	merge:   func(ctx context.Context) (context.Context, *trace.Span) { return trace.Start(ctx, "fit.merge") },
	swap:    func(ctx context.Context) (context.Context, *trace.Span) { return trace.Start(ctx, "fit.swap") },
}

// runOneFit executes one full pipeline fit; see runCycle.
func (p *fitPipeline) runOneFit() { p.runCycle(fitPhases, nil) }

// runCycle is the one body of a pipeline fit (mig nil) and of a live
// migration (mig set), which is a fit with a re-layout step between the
// rebuild and EM:
//
//  1. Under the write lock (milliseconds): deep-copy the service — all of it
//     but the ledger, which a fit never reads — into a snapshot via the
//     checkpoint capture path and start recording a delta of answers
//     accepted from here on. A migration first validates its decision
//     against the live layout.
//  2. Off-lock (the expensive part): rebuild a scratch service from the
//     snapshot — bit-identical to the live one, warm-started from the live
//     parameters — let a migration re-partition its engine (replaying every
//     answer into a fresh fitter at the new layout in exact global arrival
//     order), and run full EM on the scratch engine.
//  3. Under the write lock (milliseconds): replay registrations and the
//     recorded delta onto the fitted scratch engine via its incremental
//     update, swap it in as the live engine, and publish the new generation.
//     What step 1 captured is still a prefix of the live state: Restore alone
//     replaces it, and is admitted only on an empty service.
//
// On error (shutdown cancellation, corrupt state, a stale migration
// decision) the cycle is abandoned and the live engine, which learned every
// answer as it arrived, keeps serving the previous generation. The ledger is
// keyed by global IDs and never touched, so no handed-out assignment is
// dropped or double-spent; in-flight answers land either in the capture
// (before phase 1) or in the delta (after), never both and never neither.
// The returned error is the migration waiter's outcome.
func (p *fitPipeline) runCycle(ph cyclePhases, mig *migrationRequest) error {
	s := p.s

	// The trace root for this cycle. Its End — registered before the final
	// locked section's deferred Unlock, so it runs after the lock drops —
	// pushes the finished trace into the rings; no span operation below ever
	// runs ring work while s.mu is held.
	tctx, root := ph.root(s.cfg.tracer, p.fitCtx)
	defer root.End()
	if mig != nil {
		mig.describe(root)
	}

	_, capSp := ph.capture(tctx)
	s.mu.Lock()
	if mig == nil && s.eng == nil {
		s.mu.Unlock()
		capSp.End()
		return nil
	}
	if mig != nil {
		liveK, err := mig.admit(s)
		if err != nil {
			s.mu.Unlock()
			capSp.Fail(err)
			capSp.End()
			root.Fail(err)
			s.elastic.recordOutcome(mig, "", err)
			return err
		}
		capSp.AttrInt("k", int64(liveK))
	}
	startSeq := s.led.answered()
	sv := s.captureLocked()
	s.delta = s.delta[:0]
	s.deltaActive = true
	deltaTasks, deltaWorkers := len(s.tasks), len(s.workers)
	s.mu.Unlock()
	capSp.AttrInt("answers", int64(startSeq))
	capSp.End()

	p.setInFlight(true)
	defer p.setInFlight(false)

	start := time.Now()
	scratch := newBareService(s.cfg)
	_, rbSp := ph.rebuild(tctx)
	err := scratch.applySnapshot(&sv)
	var action string
	if err == nil && mig != nil {
		action, err = mig.relayout(scratch, rbSp)
	}
	if err != nil {
		rbSp.Fail(err)
	}
	rbSp.End()
	var converged bool
	if err == nil {
		emCtx, emSp := ph.em(tctx)
		converged, err = scratch.eng.Fit(emCtx)
		if err != nil {
			emSp.Fail(err)
		}
		emSp.End()
	}
	elapsed := time.Since(start)

	_, mergeSp := ph.merge(tctx)
	s.mu.Lock()
	defer s.mu.Unlock()
	if mig == nil {
		p.fits.Add(1)
		if s.observer != nil {
			s.observer.FitObserved(elapsed, converged, err)
		}
	}
	if err == nil {
		// Replay registrations that arrived mid-cycle, then merge the delta:
		// every answer accepted while the fit ran is folded into the fitted
		// parameters through the engine's incremental update — the
		// mini-batch E-step that makes the new generation cover them.
		for i := deltaTasks; i < len(s.tasks) && err == nil; i++ {
			err = scratch.eng.AddTask(s.tasks[i])
		}
		for i := deltaWorkers; i < len(s.workers) && err == nil; i++ {
			err = scratch.eng.AddWorker(s.workers[i])
		}
		for i := 0; i < len(s.delta) && err == nil; i++ {
			err = scratch.eng.Learn(s.delta[i])
		}
	}
	nDelta := len(s.delta)
	mergeSp.AttrInt("delta", int64(nDelta))
	mergeSp.End()
	s.delta, s.deltaActive = nil, false
	if mig != nil {
		s.elastic.recordOutcome(mig, action, err)
	}
	if err != nil {
		root.Fail(err)
		return err
	}
	_, swapSp := ph.swap(tctx)
	s.eng = scratch.eng
	if mig != nil {
		// The rebuilt layout spans every task registered at capture time, so
		// the construction boundary (what the next checkpoint's Layout
		// covers) moves up to the capture point.
		s.builtTasks = deltaTasks
		s.builtWorkers = deltaWorkers
	}
	s.sinceFull = nDelta
	s.dirty = nDelta > 0
	s.publishLocked(s.led.answered(), startSeq, converged)
	swapSp.End()
	if mig == nil {
		root.Attr("converged", fmt.Sprintf("%t", converged))
	}
	return nil
}

// republishRegistrations refreshes the published generation when tasks or
// workers were registered after the last publication and no fit is due to
// pick them up: new registrations sit at the model's priors, so readers
// should see them without waiting for the next answer-driven fit. The
// coverage sequences carry over unchanged — a registration republish must
// not absorb the answer backlog that schedules real fits.
func (p *fitPipeline) republishRegistrations() {
	s := p.s
	s.mu.Lock()
	defer s.mu.Unlock()
	// A generation exists exactly when an engine does.
	if cur := s.published.Load(); cur != nil && (len(cur.results) < len(s.tasks) || len(cur.pi) < len(s.workers)) {
		s.publishLocked(cur.seq, cur.fullSeq, cur.converged)
	}
}

// await blocks until the published generation's full fit covers every
// answer accepted before the call, requesting fits as needed. It returns
// ErrClosed if the pipeline shuts down first.
func (p *fitPipeline) await(ctx context.Context) error {
	target := p.s.led.answered()
	for {
		// Nothing published means no engine, hence no accepted answer to cover.
		pub := p.s.published.Load()
		if pub == nil || pub.fullSeq >= target {
			return ctx.Err()
		}
		p.requestFull()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-p.stop:
			// The drain fit may still publish; give it one last look.
			select {
			case <-p.done:
			case <-ctx.Done():
				return ctx.Err()
			}
			if p.s.published.Load().fullSeq >= target {
				return nil
			}
			return ErrClosed
		case <-pub.superseded:
		}
	}
}

// close shuts the scheduler down, draining any outstanding answers into one
// final generation. When ctx expires first the in-flight fit is cancelled;
// the previous generation keeps serving reads.
func (p *fitPipeline) close(ctx context.Context) error {
	p.stopOnce.Do(func() { close(p.stop) })
	select {
	case <-p.done:
		return nil
	case <-ctx.Done():
		p.cancelFit()
		<-p.done
		return ctx.Err()
	}
}

// FitPipelineStats is a point-in-time view of the published generation and,
// where one runs, of the fit pipeline: the backing state for the
// poilabel_fit_* metrics and the /healthz fit section.
type FitPipelineStats struct {
	// Enabled reports whether WithBackgroundFit was configured; the
	// scheduler fields below (InFlight, QueueDepth, Fits, Coalesced) stay
	// zero without it.
	Enabled bool `json:"enabled"`
	// Generation is the published parameter generation (0 until the engine
	// is built).
	Generation uint64 `json:"generation"`
	// CoveredAnswers is the number of accepted answers the published
	// generation covers (full fit plus merged delta).
	CoveredAnswers uint64 `json:"covered_answers"`
	// FullFitAnswers is the number of answers covered by the generation's
	// underlying full fit.
	FullFitAnswers uint64 `json:"full_fit_answers"`
	// PublishedAt is when the generation was published (zero until then).
	PublishedAt time.Time `json:"published_at"`
	// Staleness is how long answers not covered by the published generation
	// have been waiting: zero when the publication covers everything, else
	// the age of the publication.
	Staleness time.Duration `json:"staleness,omitempty"`
	// InFlight reports whether a pipeline fit is running right now.
	InFlight bool `json:"in_flight"`
	// QueueDepth counts the in-flight fit (if any) plus the queued re-fit
	// token (if any): 0 idle, 1 fitting or queued, 2 both.
	QueueDepth int `json:"queue_depth"`
	// Fits is the number of completed pipeline fit attempts, including
	// abandoned ones.
	Fits uint64 `json:"fits"`
	// Coalesced is the number of fit triggers dropped because a re-fit was
	// already queued.
	Coalesced uint64 `json:"coalesced"`
}

// FitStats reports the published generation's coverage and, with
// WithBackgroundFit, the pipeline scheduler's counters.
func (s *Service) FitStats() FitPipelineStats {
	var st FitPipelineStats
	if p := s.bg; p != nil {
		st.Enabled = true
		st.Fits = p.fits.Load()
		st.Coalesced = p.coalesced.Load()
		p.mu.Lock()
		if p.inFlight {
			st.InFlight = true
			st.QueueDepth++
		}
		p.mu.Unlock()
		if len(p.kick) > 0 {
			st.QueueDepth++
		}
	}
	seq := s.led.answered()
	if pub := s.published.Load(); pub != nil {
		st.Generation = pub.gen
		st.CoveredAnswers = pub.seq
		st.FullFitAnswers = pub.fullSeq
		st.PublishedAt = pub.at
		st.Staleness = pub.staleness(seq)
	}
	return st
}

// Close shuts down the fit pipeline, folding any outstanding answers into
// one final published generation. The context bounds the drain: on expiry
// the in-flight fit is cancelled and the last complete generation keeps
// serving. Close is idempotent and a no-op on services whose fits run
// inline; the service remains usable for reads and submissions afterwards
// (submissions keep learning incrementally, but no further full fits run).
func (s *Service) Close(ctx context.Context) error {
	if s.elastic != nil {
		// Stop the drift detector first so no new migration is proposed
		// while the pipeline drains.
		s.elastic.close()
	}
	if s.bg == nil {
		return nil
	}
	return s.bg.close(ctx)
}
