// Package trace is the repository's request-scoped tracing subsystem: a
// dependency-free, allocation-conscious span recorder in the style of
// internal/metrics. A Tracer mints spans — name, start/end offsets, attrs,
// parent — into a per-trace arena of fixed-size chunks (pointers stay
// stable, growth never copies), and when a trace's root span ends the whole
// tree is rendered once into an immutable Trace value that lands in a
// goroutine-sharded ring of recent traces, plus two always-keep rings: one
// for *slow* traces (root duration at or above a configurable threshold)
// and one for *error* traces. The live arena is recycled through a pool, so
// steady-state tracing costs one chunk reuse per request, not an allocation
// per span.
//
// The three lifecycles docs/ARCHITECTURE.md narrates are instrumented with
// it: the life of an answer (answer.* spans), the life of an assignment
// (plan.* spans), and the life of a fit or migration (fit.* / migrate.*
// spans); a read of the results is one results.request root. Span names are
// dotted lowercase under exactly those five prefixes — the metricname
// analyzer enforces the convention.
//
// Spans thread through context.Context: a root span (Tracer.StartRoot)
// stores itself in the context, children (Start) attach to whatever span
// the context carries, and code without a tracer in scope pays two pointer
// checks and nothing else — every method is nil-receiver safe, so
// instrumentation sites need no conditionals.
//
// Concurrency contract: spans may be minted and ended from any goroutine
// (the sharded fit fan-out emits per-shard spans concurrently), but every
// child span must end before its trace's root span ends, and no span may be
// touched after the root ends — root End recycles the arena. The Tracer
// itself never takes any lock but its own per-trace arena mutex and the
// ring mutexes; in particular it never touches poilabel's Service lock, so
// tracing can be sprinkled inside critical sections without deadlock risk
// (see the invariants table row "spans never take Service.mu").
package trace

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes a Tracer. The zero value means the documented defaults.
type Config struct {
	// RingSize is the capacity of the recent-traces ring (every finished
	// trace lands here). Default 256.
	RingSize int
	// SlowRingSize is the capacity of the always-keep slow ring. Default 64.
	SlowRingSize int
	// ErrorRingSize is the capacity of the always-keep error ring. Default 64.
	ErrorRingSize int
	// SlowThreshold is the root duration at or above which a finished trace
	// is also kept in the slow ring. Default 100ms.
	SlowThreshold time.Duration
	// MaxSpans caps one trace's span count; spans minted beyond it are
	// dropped (counted, never blocking). Default 128.
	MaxSpans int
}

func (c Config) withDefaults() Config {
	if c.RingSize <= 0 {
		c.RingSize = 256
	}
	if c.SlowRingSize <= 0 {
		c.SlowRingSize = 64
	}
	if c.ErrorRingSize <= 0 {
		c.ErrorRingSize = 64
	}
	if c.SlowThreshold <= 0 {
		c.SlowThreshold = 100 * time.Millisecond
	}
	if c.MaxSpans <= 0 {
		c.MaxSpans = 128
	}
	return c
}

// Header is the HTTP header trace IDs travel in, both directions — the wire
// contract internal/serve shares with its clients, kept here so a client
// does not have to import the gateway.
const Header = "X-Poilabel-Trace"

// ringShards is the number of independently locked recent-trace rings.
// Finishing goroutines hash onto a shard, so concurrent request handlers do
// not serialize on one ring mutex.
const ringShards = 8

// Tracer mints and retains traces. Create one with New; a nil *Tracer is a
// valid no-op tracer (StartRoot returns a nil span, and nil spans swallow
// every operation), which is how tracing stays a flag, not a build mode.
type Tracer struct {
	cfg  Config
	seq  atomic.Uint64
	pool sync.Pool // *arena

	recent [ringShards]ring
	slow   ring
	errs   ring

	started   atomic.Uint64
	finished  atomic.Uint64
	slowKept  atomic.Uint64
	errKept   atomic.Uint64
	spanDrops atomic.Uint64

	// onSpan, when set, observes every span of every finished trace — the
	// hook RegisterMetrics uses for the per-span-name duration summaries.
	// Called from the finishing goroutine, never under any caller lock.
	onSpan atomic.Pointer[func(name string, d time.Duration, failed bool)]
}

// New returns a Tracer with cfg (zero fields take the documented defaults).
func New(cfg Config) *Tracer {
	t := &Tracer{cfg: cfg.withDefaults()}
	per := (t.cfg.RingSize + ringShards - 1) / ringShards
	for i := range t.recent {
		t.recent[i].init(per)
	}
	t.slow.init(t.cfg.SlowRingSize)
	t.errs.init(t.cfg.ErrorRingSize)
	t.pool.New = func() any { return &arena{} }
	return t
}

// SlowThreshold reports the configured slow-trace threshold.
func (t *Tracer) SlowThreshold() time.Duration {
	if t == nil {
		return 0
	}
	return t.cfg.SlowThreshold
}

// Stats is a point-in-time view of the tracer's lifetime counters.
type Stats struct {
	// Started counts root spans minted.
	Started uint64 `json:"started"`
	// Finished counts traces completed and recorded.
	Finished uint64 `json:"finished"`
	// SlowKept counts finished traces also kept in the slow ring.
	SlowKept uint64 `json:"slow_kept"`
	// ErrorKept counts finished traces also kept in the error ring.
	ErrorKept uint64 `json:"error_kept"`
	// DroppedSpans counts spans refused at the per-trace MaxSpans cap.
	DroppedSpans uint64 `json:"dropped_spans"`
}

// TracerStats reports the tracer's lifetime counters (zeros on nil).
func (t *Tracer) TracerStats() Stats {
	if t == nil {
		return Stats{}
	}
	return Stats{
		Started:      t.started.Load(),
		Finished:     t.finished.Load(),
		SlowKept:     t.slowKept.Load(),
		ErrorKept:    t.errKept.Load(),
		DroppedSpans: t.spanDrops.Load(),
	}
}

// arena is one in-flight trace's mutable state: a chunked span store whose
// chunks never move, so *Span pointers stay valid across growth. It is
// pooled and reused after the root span ends.
type arena struct {
	tracer *Tracer
	id     uint64
	start  time.Time

	mu      sync.Mutex
	chunks  [][]Span
	n       int32
	dropped uint32
	failed  atomic.Int32 // spans that ended with Fail
}

// spanChunk sizes the arena's allocation unit: one chunk covers a typical
// request trace, so steady state reuses a single chunk with zero allocation.
const spanChunk = 8

// Span is one timed operation inside a trace. Spans are minted by StartRoot
// and Start and must be closed with End (or Fail + End). All methods are
// nil-receiver safe. A span's fields are owned by the minting goroutine
// until End; the trace serializes at root End, after which no span of the
// trace may be touched.
type Span struct {
	ar     *arena
	idx    int32
	parent int32
	name   string
	start  time.Duration // offset from trace start
	end    time.Duration // 0 until End
	failed bool
	errMsg string
	attrs  []Attr
}

// Attr is one span attribute.
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// spanCtxKey carries the current *Span through context.Context.
type spanCtxKey struct{}

// FromContext returns the span the context carries, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// ContextWith returns ctx carrying s as the current span.
func ContextWith(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// StartRoot mints a new trace whose root span is named name and returns the
// derived context carrying it. id is the trace ID to adopt (a client-provided
// X-Poilabel-Trace); zero mints a fresh one. On a nil tracer it returns ctx
// unchanged and a nil span.
func (t *Tracer) StartRoot(ctx context.Context, name string, id uint64) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if id == 0 {
		// Never hand out ID 0: it is the "mint one" sentinel.
		for id == 0 {
			id = t.seq.Add(1)
		}
	}
	ar := t.pool.Get().(*arena)
	ar.tracer = t
	ar.id = id
	ar.start = time.Now()
	ar.n = 0
	ar.dropped = 0
	ar.failed.Store(0)
	t.started.Add(1)
	sp := ar.mint(name, -1)
	return ContextWith(ctx, sp), sp
}

// Start mints a child of the context's current span and returns the derived
// context carrying it. Without a span in ctx it returns ctx unchanged and a
// nil span, so instrumentation is free when tracing is off.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.ar.mint(name, parent.idx)
	if sp == nil {
		return ctx, nil
	}
	return ContextWith(ctx, sp), sp
}

// mint allocates the next span slot. Concurrent minters (the sharded fit
// fan-out) serialize on the arena mutex for the slot assignment only; the
// span's fields are then owned by the caller. Returns nil at the MaxSpans
// cap.
func (a *arena) mint(name string, parent int32) *Span {
	a.mu.Lock()
	if int(a.n) >= a.tracer.cfg.MaxSpans {
		a.dropped++
		a.mu.Unlock()
		a.tracer.spanDrops.Add(1)
		return nil
	}
	ci, off := int(a.n)/spanChunk, int(a.n)%spanChunk
	if ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]Span, spanChunk))
	}
	sp := &a.chunks[ci][off]
	idx := a.n
	a.n++
	a.mu.Unlock()
	*sp = Span{ar: a, idx: idx, parent: parent, name: name, start: time.Since(a.start)}
	return sp
}

// Attr attaches one string attribute.
func (s *Span) Attr(k, v string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{K: k, V: v})
}

// AttrInt attaches one integer attribute.
func (s *Span) AttrInt(k string, v int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{K: k, V: strconv.FormatInt(v, 10)})
}

// Fail marks the span (and therefore its trace) as errored. A nil err marks
// the span failed without a message.
func (s *Span) Fail(err error) {
	if s == nil {
		return
	}
	if !s.failed {
		s.failed = true
		s.ar.failed.Add(1)
	}
	if err != nil {
		s.errMsg = err.Error()
	}
}

// TraceID returns the span's trace ID in the X-Poilabel-Trace wire form
// (16 hex digits), or "" on nil.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return FormatID(s.ar.id)
}

// End closes the span. Ending the root span finishes the trace: the span
// tree is rendered into an immutable Trace, recorded in the recent ring
// (and the slow/error keep-rings when it qualifies), reported to the span
// observer, and the arena is recycled. End on the root must therefore be the
// trace's last operation, and must not run while holding locks the observer
// or ring consumers could contend on the other way — in poilabel, never
// under Service.mu.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.end = time.Since(s.ar.start)
	if s.parent == -1 {
		s.ar.finish(s.end)
	}
}

// FormatID renders a trace ID in its 16-hex-digit wire form.
func FormatID(id uint64) string {
	const hexdig = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdig[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// ParseID parses a wire-form trace ID; ok is false for anything but 1–16
// hex digits or for the reserved ID 0.
func ParseID(s string) (uint64, bool) {
	if s == "" || len(s) > 16 {
		return 0, false
	}
	id, err := strconv.ParseUint(s, 16, 64)
	if err != nil || id == 0 {
		return 0, false
	}
	return id, true
}
