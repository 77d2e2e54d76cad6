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
	"poilabel/internal/shard"
	"poilabel/internal/trace"
)

// ErrClosed is returned by operations that need the fit pipeline after Close
// has shut it down.
var ErrClosed = errors.New("poilabel: service closed")

// WithBackgroundFit decides who triggers full EM fits: a scheduler goroutine
// on its own cadence, instead of the callers — the FullEMInterval-th
// submission, Fit, a read of stale results — who otherwise run them and wait.
// The fit is the same cycle either way: EM over a fork of the engine with no
// lock held, adopted by the live engine when it finishes, the answers
// accepted meanwhile folded in by the engine's incremental update. With a
// scheduler no request ever waits for EM, at one price: reads serve the last
// generation however stale, and Fit and WaitFresh are the barriers that buy
// freshness back.
//
// interval is the fit cadence: whenever answers are outstanding, a full fit
// starts at most this long after they arrived. minAnswers (values below 1
// mean 1) triggers an eager fit as soon as that many answers are waiting,
// without waiting for the tick. At most one fit is ever in flight; triggers
// arriving mid-fit coalesce into a single queued re-fit.
//
// The scheduler's cadence replaces WithFullEMInterval's. Call Close to drain
// it on shutdown. See docs/ARCHITECTURE.md ("Life of a fit") for the
// staleness contract and PERFORMANCE.md for what a cycle costs beyond EM.
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
// staleness. Every full fit ends in one, whoever triggered it.
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

// fitPipeline runs a Service's fit cycles — every service has one — and, with
// WithBackgroundFit, the scheduler goroutine that owns their cadence. Lock
// ordering: slot (claimed with no lock held), then s.mu, then p.mu.
type fitPipeline struct {
	s          *Service
	scheduled  bool // the scheduler goroutine runs (WithBackgroundFit)
	interval   time.Duration
	minAnswers int

	kick     chan struct{} // capacity 1: the queued re-fit token
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	fitCtx    context.Context // cancels the scheduler's in-flight fit on hard shutdown
	cancelFit context.CancelFunc

	// slot holds a token while a cycle — fit or migration, the scheduler's or
	// a caller's — is in flight, so there is at most one. A channel, not a
	// mutex: a caller waiting its turn honors its context.
	slot chan struct{}

	mu         sync.Mutex
	wantFull   bool              // an explicit full fit was requested (WaitFresh)
	pendingMig *migrationRequest // queued elastic migration (capacity 1)

	fits      atomic.Uint64 // completed fit attempts (including abandoned)
	coalesced atomic.Uint64 // triggers dropped because a re-fit was queued
}

// newFitPipeline returns s's pipeline; a positive interval starts its scheduler.
func newFitPipeline(s *Service, interval time.Duration, minAnswers int) *fitPipeline {
	// The scheduler's lifetime is the service's, not any request's: this root
	// context exists to be cancelled by Close.
	//lint:ignore ctxflow pipeline root context, cancelled by Close — no caller to inherit from
	ctx, cancel := context.WithCancel(context.Background())
	p := &fitPipeline{
		s:          s,
		scheduled:  interval > 0,
		interval:   interval,
		minAnswers: minAnswers,
		kick:       make(chan struct{}, 1),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		fitCtx:     ctx,
		cancelFit:  cancel,
		slot:       make(chan struct{}, 1),
	}
	if p.scheduled {
		go p.run()
	}
	return p
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
				p.runCycle(p.fitCtx, cycle{})
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
		p.runCycle(p.fitCtx, cycle{})
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

// cyclePhases mints one lifecycle's spans. The names stay string literals at
// their trace call so the metricname vocabulary check sees every one.
type cyclePhases struct {
	root                     func(*trace.Tracer, context.Context) (context.Context, *trace.Span)
	capture, em, merge, swap startSpan
}

type startSpan func(context.Context) (context.Context, *trace.Span)

var fitPhases = cyclePhases{
	// A cycle run for a traced caller hangs off the caller's span, so a slow
	// FullEMInterval-th submission is explained by its own trace; otherwise
	// it is a trace of its own.
	root: func(tr *trace.Tracer, ctx context.Context) (context.Context, *trace.Span) {
		if trace.FromContext(ctx) != nil {
			return trace.Start(ctx, "fit.cycle")
		}
		return tr.StartRoot(ctx, "fit.cycle", 0)
	},
	capture: func(ctx context.Context) (context.Context, *trace.Span) { return trace.Start(ctx, "fit.capture") },
	em:      func(ctx context.Context) (context.Context, *trace.Span) { return trace.Start(ctx, "fit.em") },
	merge:   func(ctx context.Context) (context.Context, *trace.Span) { return trace.Start(ctx, "fit.merge") },
	swap:    func(ctx context.Context) (context.Context, *trace.Span) { return trace.Start(ctx, "fit.swap") },
}

// cycle is one request to runCycle.
type cycle struct {
	mig    *migrationRequest // set: a migration rather than a fit
	caller bool              // run by and for the calling goroutine, not the scheduler
	build  bool              // construct an engine that does not exist yet
	// unless, when set, reports under the lock that the fit is no longer
	// needed — somebody else's covered it. Nil: always fit (the scheduler
	// decided already; Fit without one always refits).
	unless func(*Service) bool
}

// The two reasons a caller's fit is not owed: nothing arrived since the last
// adopted one (WaitFresh, reads), and fewer than FullEMInterval answers did
// (a submission).
func clean(s *Service) bool  { return !s.dirty }
func notDue(s *Service) bool { return s.cfg.fullEMInterval <= 0 || s.sinceFull < s.cfg.fullEMInterval }

// owedLocked reports whether cycle c has anything to do; callers hold s.mu.
func (s *Service) owedLocked(c cycle) bool {
	switch {
	case c.mig != nil:
		return true
	case s.eng == nil:
		return c.build
	case s.published.Load() == nil:
		return true // an engine nobody published yet owes readers a generation
	}
	return c.unless == nil || !c.unless(s)
}

// runCycle is the one way a service fits (c.mig nil) or migrates (set: a fit
// with a re-layout step before EM), whoever triggered it, one at a time:
//
//  1. Capture, under the write lock: fork the engine — the append-only
//     evidence shared, the parameters copied: O(parameters) whatever the log
//     holds. A migration first validates its decision against the live layout.
//  2. Fit, with no lock held: full EM over the fork, honoring ctx between
//     iterations, while the live engine keeps learning. A migration first
//     rebuilds the fork at the new layout, replaying every answer it sees in
//     global arrival order into a fresh fitter, and fits that.
//  3. Merge, under the write lock: the live engine adopts the fitted
//     parameters — prior rows for what was registered since the fork, its
//     incremental update re-applied to log[fork:], the answers accepted since
//     — and the generation is published. A migration instead catches the
//     rebuilt fitter up on that suffix and swaps it in. The fork is still a
//     prefix of the live state: only Restore replaces that, and it is
//     admitted only on an empty service.
//
// On error (a cancelled context, shutdown, a stale migration decision) the
// cycle is abandoned: the live engine is untouched, the last generation
// keeps serving, and sinceFull, dirty and the coverage sequences stay what
// they were — only an adopted fit moves them. The ledger is never touched.
func (p *fitPipeline) runCycle(ctx context.Context, c cycle) error {
	s := p.s
	if err := ctx.Err(); err != nil {
		return err
	}
	if c.caller {
		// A settled barrier or read: a flag test, no turn to wait for.
		s.mu.RLock()
		owed := s.owedLocked(c)
		s.mu.RUnlock()
		if !owed {
			return nil
		}
	}
	select {
	case p.slot <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-p.slot }()

	ph, runBy := fitPhases, "scheduler"
	if c.mig != nil {
		ph = migratePhases
	}
	if c.caller {
		runBy = "caller"
	}
	// The cycle's span, a trace root or a child of the caller's. Its End is
	// deferred before the final Unlock so it runs after: a root's pushes the
	// trace into the rings, which never happens under s.mu.
	tctx, root := ph.root(s.cfg.tracer, ctx)
	defer root.End()
	root.Attr("run_by", runBy)
	if c.mig != nil {
		c.mig.describe(root)
	}

	_, capSp := ph.capture(tctx)
	s.mu.Lock()
	var (
		fork  engineFork     // a fit's
		live  *shard.Sharded // a migration's source and
		mfork *shard.Fork    // its fork
		err   error
	)
	switch {
	case c.mig != nil:
		if live, err = c.mig.admit(s); err == nil {
			capSp.AttrInt("k", int64(live.NumShards()))
			mfork = live.Fork()
		}
	case !s.owedLocked(c):
		// Somebody else's cycle covered it while this one waited its turn.
		s.mu.Unlock()
		capSp.End()
		return nil
	case s.eng == nil:
		// Built here and not published: the fit's publication is the
		// engine's first generation rather than its second.
		err = s.buildEngine(nil, 0)
	}
	if err != nil {
		s.mu.Unlock()
		capSp.Fail(err)
		capSp.End()
		root.Fail(err)
		if c.mig != nil {
			s.elastic.recordOutcome(c.mig, "", err)
		}
		return err
	}
	if c.mig == nil {
		fork = s.eng.fork()
	}
	startSeq := s.led.answered()
	forkTasks, forkWorkers := len(s.tasks), len(s.workers)
	s.mu.Unlock()
	capSp.AttrInt("answers", int64(startSeq))
	capSp.End()

	start := time.Now()
	var (
		rebuilt   *shard.Sharded
		action    string
		converged bool
	)
	if c.mig != nil {
		rebuilt, action, err = c.mig.relayout(tctx, mfork)
	}
	if err == nil {
		emCtx, emSp := ph.em(tctx)
		if rebuilt != nil {
			var st shard.FitStats
			st, err = rebuilt.FitContext(emCtx)
			converged = st.Converged
		} else {
			converged, err = fork.Fit(emCtx)
		}
		if err != nil {
			emSp.Fail(err)
		}
		emSp.End()
	}
	elapsed := time.Since(start)

	_, mergeSp := ph.merge(tctx)
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.mig == nil {
		p.fits.Add(1)
		if s.observer != nil {
			s.observer.FitObserved(elapsed, converged, err)
		}
	}
	if err == nil {
		if rebuilt != nil {
			err = live.ReplaySince(mfork, rebuilt)
		} else {
			fork.adopt()
		}
	}
	nDelta := int(s.led.answered() - startSeq)
	mergeSp.AttrInt("delta", int64(nDelta))
	mergeSp.End()
	if c.mig != nil {
		s.elastic.recordOutcome(c.mig, action, err)
	}
	if err != nil {
		root.Fail(err)
		if s.published.Load() == nil {
			// The engine was built for this fit: the prior-only generation
			// stands in, as after ensureEngine.
			s.publishLocked(0, 0, false)
		}
		return err
	}
	_, swapSp := ph.swap(tctx)
	if rebuilt != nil {
		s.eng = newShardedEngine(rebuilt)
		// The rebuilt layout spans every task registered at capture time, so
		// the construction boundary (what the next checkpoint's Layout
		// covers) moves up to the capture point.
		s.builtTasks = forkTasks
		s.builtWorkers = forkWorkers
	}
	s.sinceFull = nDelta
	s.dirty = nDelta > 0 || len(s.tasks) > forkTasks || len(s.workers) > forkWorkers
	s.publishLocked(s.led.answered(), startSeq, converged)
	swapSp.End()
	if c.mig == nil {
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

// close shuts the scheduler down, if one runs, draining any outstanding
// answers into one final generation. When ctx expires first the in-flight fit
// is cancelled; the previous generation keeps serving reads.
func (p *fitPipeline) close(ctx context.Context) error {
	if !p.scheduled {
		return nil
	}
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

// FitPipelineStats is a point-in-time view of the published generation and of
// the fit pipeline: the backing state for the poilabel_fit_* metrics and the
// /healthz fit section.
type FitPipelineStats struct {
	// Enabled reports whether WithBackgroundFit was configured, that is,
	// whether a scheduler triggers the fits; QueueDepth's queued token and
	// Coalesced stay zero without one.
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
	// InFlight reports whether a fit cycle is running right now, whoever
	// triggered it.
	InFlight bool `json:"in_flight"`
	// QueueDepth counts the in-flight cycle (if any) plus the scheduler's
	// queued re-fit token (if any): 0 idle, 1 fitting or queued, 2 both.
	QueueDepth int `json:"queue_depth"`
	// Fits is the number of completed fit attempts, including abandoned
	// ones, whoever triggered them.
	Fits uint64 `json:"fits"`
	// Coalesced is the number of fit triggers dropped because a re-fit was
	// already queued.
	Coalesced uint64 `json:"coalesced"`
}

// FitStats reports the published generation's coverage and the fit
// pipeline's counters.
func (s *Service) FitStats() FitPipelineStats {
	p := s.bg
	st := FitPipelineStats{
		Enabled:    p.scheduled,
		InFlight:   len(p.slot) > 0,
		QueueDepth: len(p.slot) + len(p.kick),
		Fits:       p.fits.Load(),
		Coalesced:  p.coalesced.Load(),
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

// Close stops whatever the service runs in the background: the drift detector
// and, with WithBackgroundFit, the scheduler, folding any outstanding answers
// into one final published generation. The context bounds that drain: on
// expiry the in-flight fit is cancelled and the last complete generation
// keeps serving. Close is idempotent, and a no-op without a scheduler; the
// service remains usable for reads and submissions afterwards (submissions
// keep learning incrementally, but a scheduler runs no further full fits).
func (s *Service) Close(ctx context.Context) error {
	if s.elastic != nil {
		// Stop the drift detector first so no new migration is proposed
		// while the pipeline drains.
		s.elastic.close()
	}
	return s.bg.close(ctx)
}
