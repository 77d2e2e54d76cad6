package poilabel

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"poilabel/internal/geo"
	"poilabel/internal/shard"
	"poilabel/internal/trace"
)

// ElasticConfig tunes drift-aware elastic re-sharding (WithElasticShards).
// The detector watches per-shard answer arrivals in fixed windows (one per
// CheckInterval tick) and proposes at most one migration per window: split
// the hottest shard when its share of the window's answers crosses
// SplitRatio times the per-shard mean, or merge the coldest shard into its
// nearest neighbor when their combined share falls below MergeRatio times
// the mean.
type ElasticConfig struct {
	// CheckInterval is the drift-detector tick. Zero disables the detector
	// goroutine entirely; migrations then only happen through the forced
	// test hooks.
	CheckInterval time.Duration
	// SplitRatio is the hot threshold: shard s splits when its window
	// answer count is at least SplitRatio times the per-shard mean.
	// Defaults to 2.
	SplitRatio float64
	// MergeRatio is the cold threshold: the coldest shard merges with its
	// nearest neighbor when their combined window answer count is at most
	// MergeRatio times the per-shard mean. Defaults to 0.5.
	MergeRatio float64
	// MinShards and MaxShards bound the layout. Defaults: 1 and 16.
	MinShards int
	MaxShards int
	// MinAnswers is the minimum number of answers a window must hold before
	// the detector acts — thin windows carry no drift signal. Defaults
	// to 32.
	MinAnswers int
}

// withElasticDefaults fills zero fields with the documented defaults.
func (c ElasticConfig) withElasticDefaults() ElasticConfig {
	if c.SplitRatio <= 0 {
		c.SplitRatio = 2
	}
	if c.MergeRatio <= 0 {
		c.MergeRatio = 0.5
	}
	if c.MinShards < 1 {
		c.MinShards = 1
	}
	if c.MaxShards < 1 {
		c.MaxShards = 16
	}
	if c.MinAnswers < 1 {
		c.MinAnswers = 32
	}
	return c
}

// WithElasticShards turns on drift-aware elastic re-sharding: a detector
// goroutine watches the per-shard imbalance signals (the same ones the
// poilabel_shard_* metrics export) and re-partitions the sharded engine live
// — splitting the hottest shard or merging cold neighbors — through the
// background fit pipeline, so in-flight answers and handed-out assignments
// are never dropped. Requires WithEngine(EngineSharded) and
// WithBackgroundFit; NewService rejects other combinations.
func WithElasticShards(cfg ElasticConfig) ServiceOption {
	return func(c *serviceConfig) error {
		if cfg.CheckInterval < 0 {
			return fmt.Errorf("poilabel: negative elastic check interval %v", cfg.CheckInterval)
		}
		cfg = cfg.withElasticDefaults()
		if cfg.MinShards > cfg.MaxShards {
			return fmt.Errorf("poilabel: elastic MinShards %d above MaxShards %d", cfg.MinShards, cfg.MaxShards)
		}
		c.elasticOn = true
		c.elastic = cfg
		return nil
	}
}

// ShardStat is one shard's slice of the imbalance signals, as exposed by
// Service.ShardStats for the drift detector, the /metrics gauges, and
// dashboards.
type ShardStat struct {
	// Shard is the shard index in the current layout.
	Shard int `json:"shard"`
	// Tasks is the number of tasks the shard currently owns.
	Tasks int `json:"tasks"`
	// Answers is the number of answers routed to the shard so far.
	Answers int `json:"answers"`
	// BoundaryAnswers is the subset of Answers from roaming workers —
	// answer-graph mass straddling the shard's partition boundary.
	BoundaryAnswers int `json:"boundary_answers"`
	// LastFitDuration is the shard's most recent EM wall-clock time.
	LastFitDuration time.Duration `json:"last_fit_duration"`
}

// sharded returns the sharded engine's fitter, nil when the engine is
// another kind or not built yet; callers hold s.mu.
func (s *Service) sharded() *shard.Sharded {
	if e, ok := s.eng.(*partitionEngine); ok && e.fed == nil {
		return e.sh
	}
	return nil
}

// ShardStats returns the per-shard imbalance signals of the sharded engine,
// or nil when the engine is not sharded or not built yet.
func (s *Service) ShardStats() []ShardStat {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sh := s.sharded()
	if sh == nil {
		return nil
	}
	raw := sh.Stats()
	out := make([]ShardStat, len(raw))
	for i, st := range raw {
		out[i] = ShardStat{
			Shard:           i,
			Tasks:           st.Tasks,
			Answers:         st.Answers,
			BoundaryAnswers: st.BoundaryAnswers,
			LastFitDuration: st.LastFitDuration,
		}
	}
	return out
}

// ElasticStats is a point-in-time view of the elastic re-sharding machinery,
// the backing state for the poilabel_elastic_* metrics and the /healthz
// elastic section.
type ElasticStats struct {
	// Enabled reports whether WithElasticShards was configured.
	Enabled bool `json:"enabled"`
	// Shards is the sharded engine's current shard count (0 until built).
	Shards int `json:"shards"`
	// MinShards and MaxShards are the configured layout bounds.
	MinShards int `json:"min_shards,omitempty"`
	MaxShards int `json:"max_shards,omitempty"`
	// Migrations counts completed migrations (splits + merges); Aborted
	// counts migrations abandoned mid-flight (raced a restore, layout
	// changed under the decision, rebuild error, shutdown).
	Migrations uint64 `json:"migrations"`
	Splits     uint64 `json:"splits"`
	Merges     uint64 `json:"merges"`
	Aborted    uint64 `json:"aborted"`
	// Migrating reports whether a migration is executing right now.
	Migrating bool `json:"migrating"`
	// LastAction describes the most recent completed migration.
	LastAction   string    `json:"last_action,omitempty"`
	LastActionAt time.Time `json:"last_action_at,omitempty"`
}

// ElasticStats reports the elastic controller's current state. On a service
// without WithElasticShards it returns Enabled false with the live shard
// count (when sharded) still populated.
func (s *Service) ElasticStats() ElasticStats {
	st := ElasticStats{}
	s.mu.RLock()
	if sh := s.sharded(); sh != nil {
		st.Shards = sh.NumShards()
	}
	s.mu.RUnlock()
	c := s.elastic
	if c == nil {
		return st
	}
	st.Enabled = true
	st.MinShards = c.cfg.MinShards
	st.MaxShards = c.cfg.MaxShards
	st.Migrations = c.migrations.Load()
	st.Splits = c.splits.Load()
	st.Merges = c.merges.Load()
	st.Aborted = c.aborted.Load()
	st.Migrating = c.migrating.Load()
	c.mu.Lock()
	st.LastAction = c.lastAction
	st.LastActionAt = c.lastActionAt
	c.mu.Unlock()
	return st
}

// migrationKind is the two layout moves the detector can propose.
type migrationKind int

const (
	migrateSplit migrationKind = iota
	migrateMerge
)

// migrationRequest is one proposed migration queued on the fit pipeline.
// expectK guards the decision: the migration aborts if the live layout's
// shard count no longer matches (another migration landed in between); zero
// skips the check (forced test-hook migrations).
type migrationRequest struct {
	kind    migrationKind
	si, sj  int
	expectK int
	// done receives the outcome exactly once (capacity 1, never blocks).
	done chan error
}

func (r *migrationRequest) String() string {
	if r.kind == migrateSplit {
		return fmt.Sprintf("split shard %d", r.si)
	}
	return fmt.Sprintf("merge shards %d+%d", r.si, r.sj)
}

// finish delivers the outcome to a waiting test hook, if any.
func (r *migrationRequest) finish(err error) {
	if r.done != nil {
		r.done <- err
	}
}

// elasticController is the drift detector: one goroutine sampling the
// per-shard answer counters every CheckInterval and proposing at most one
// split or merge per window. It never touches engine state itself — proposed
// migrations execute on the fit pipeline goroutine, serialized with
// background fits.
type elasticController struct {
	s   *Service
	cfg ElasticConfig

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	// lastCounts holds the per-shard cumulative answer counts at the last
	// tick; the difference against the current tick is the drift window.
	// Only the detector goroutine and forced-migration tests touch it.
	lastCounts []int

	migrations atomic.Uint64
	splits     atomic.Uint64
	merges     atomic.Uint64
	aborted    atomic.Uint64
	migrating  atomic.Bool

	mu           sync.Mutex
	lastAction   string
	lastActionAt time.Time
}

func newElasticController(s *Service, cfg ElasticConfig) *elasticController {
	return &elasticController{
		s:    s,
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// run is the detector loop. One goroutine per elastic service; started only
// when CheckInterval is positive.
func (c *elasticController) run() {
	defer close(c.done)
	tick := time.NewTicker(c.cfg.CheckInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		c.checkOnce()
	}
}

// close stops the detector goroutine (when it was started).
func (c *elasticController) close() {
	c.stopOnce.Do(func() { close(c.stop) })
	if c.cfg.CheckInterval > 0 {
		<-c.done
	}
}

// checkOnce samples the per-shard counters, closes the current drift window,
// and proposes at most one migration when the window shows imbalance.
func (c *elasticController) checkOnce() {
	s := c.s
	s.mu.RLock()
	var stats []shard.ShardStat
	if sh := s.sharded(); sh != nil {
		stats = sh.Stats()
	}
	s.mu.RUnlock()
	if stats == nil {
		return
	}
	k := len(stats)
	cur := make([]int, k)
	for i := range stats {
		cur[i] = stats[i].Answers
	}
	last := c.lastCounts
	c.lastCounts = cur
	if len(last) != k {
		// First tick at this layout (startup, or a migration landed):
		// start a fresh window.
		return
	}
	total := 0
	deltas := make([]int, k)
	for i := range cur {
		d := cur[i] - last[i]
		if d < 0 {
			// The engine was replaced under us (a restore); restart the
			// window from the new counters.
			return
		}
		deltas[i] = d
		total += d
	}
	if total < c.cfg.MinAnswers || c.migrating.Load() {
		return
	}
	mean := float64(total) / float64(k)
	hot, cold := 0, 0
	for i, d := range deltas {
		if d > deltas[hot] {
			hot = i
		}
		if d < deltas[cold] {
			cold = i
		}
	}
	if k < c.cfg.MaxShards && float64(deltas[hot]) >= c.cfg.SplitRatio*mean && stats[hot].Tasks >= 2 {
		c.propose(&migrationRequest{kind: migrateSplit, si: hot, expectK: k})
		return
	}
	if k > c.cfg.MinShards && k >= 2 {
		sj := nearestShard(stats, cold)
		if float64(deltas[cold]+deltas[sj]) <= c.cfg.MergeRatio*mean {
			c.propose(&migrationRequest{kind: migrateMerge, si: cold, sj: sj, expectK: k})
		}
	}
}

// nearestShard returns the shard whose task region is nearest to shard si's
// region center (ties to the lowest index) — the merge partner that keeps
// the fused shard spatially coherent.
func nearestShard(stats []shard.ShardStat, si int) int {
	r := stats[si].Region
	center := geo.Point{X: (r.Min.X + r.Max.X) / 2, Y: (r.Min.Y + r.Max.Y) / 2}
	best, bestD := -1, 0.0
	for j := range stats {
		if j == si {
			continue
		}
		d := center.Dist(stats[j].Region.Clamp(center))
		if best == -1 || d < bestD {
			best, bestD = j, d
		}
	}
	return best
}

// propose queues a migration on the fit pipeline; a proposal is dropped when
// one is already queued.
func (c *elasticController) propose(req *migrationRequest) {
	c.s.bg.requestMigration(req)
}

// recordOutcome updates the controller's counters after a migration attempt.
func (c *elasticController) recordOutcome(req *migrationRequest, action string, err error) {
	if c == nil {
		return
	}
	if err != nil {
		c.aborted.Add(1)
		return
	}
	c.migrations.Add(1)
	if req.kind == migrateSplit {
		c.splits.Add(1)
	} else {
		c.merges.Add(1)
	}
	c.mu.Lock()
	c.lastAction = action
	c.lastActionAt = time.Now()
	// The layout changed: invalidate the drift window so the next tick
	// starts fresh against the new shard count.
	c.lastCounts = nil
	c.mu.Unlock()
}

var migratePhases = cyclePhases{
	root: func(tr *trace.Tracer, ctx context.Context) (context.Context, *trace.Span) {
		return tr.StartRoot(ctx, "migrate.cycle", 0)
	},
	capture: func(ctx context.Context) (context.Context, *trace.Span) { return trace.Start(ctx, "migrate.capture") },
	em:      func(ctx context.Context) (context.Context, *trace.Span) { return trace.Start(ctx, "migrate.em") },
	merge:   func(ctx context.Context) (context.Context, *trace.Span) { return trace.Start(ctx, "migrate.merge") },
	swap:    func(ctx context.Context) (context.Context, *trace.Span) { return trace.Start(ctx, "migrate.swap") },
}

// runOneMigration executes one live re-partition on the scheduler goroutine:
// runCycle with this request's re-layout step between the fork and EM. The
// waiter is notified after the cycle's last locked section has dropped the
// write lock.
func (p *fitPipeline) runOneMigration(req *migrationRequest) {
	if c := p.s.elastic; c != nil {
		c.migrating.Store(true)
		defer c.migrating.Store(false)
	}
	req.finish(p.runCycle(p.fitCtx, cycle{mig: req}))
}

// describe stamps the decision on the cycle's root span.
func (r *migrationRequest) describe(root *trace.Span) {
	if r.kind == migrateSplit {
		root.Attr("kind", "split")
	} else {
		root.Attr("kind", "merge")
		root.AttrInt("with", int64(r.sj))
	}
	root.AttrInt("shard", int64(r.si))
}

// admit validates the decision against the live layout and returns the
// sharded fitter it will re-partition; callers hold the write lock.
func (r *migrationRequest) admit(s *Service) (*shard.Sharded, error) {
	sh := s.sharded()
	if sh == nil {
		return nil, fmt.Errorf("poilabel: migration needs a built sharded engine")
	}
	if liveK := sh.NumShards(); r.expectK != 0 && liveK != r.expectK {
		return nil, fmt.Errorf("poilabel: migration decided at K=%d, layout is now K=%d; abandoned", r.expectK, liveK)
	}
	return sh, nil
}

// relayout is the migration's step between the fork and EM, with no lock
// held: derive the new layout (kd-split of the hot shard or sorted union of
// the cold pair) and rebuild the fork at it. It reads nothing but the stores
// the fork shares with the live fitter.
func (r *migrationRequest) relayout(ctx context.Context, f *shard.Fork) (rebuilt *shard.Sharded, action string, err error) {
	_, sp := trace.Start(ctx, "migrate.rebuild")
	defer sp.End()
	var layout [][]int
	switch r.kind {
	case migrateSplit:
		tasks := f.Tasks()
		pts := make([]geo.Point, len(tasks))
		for i := range tasks {
			pts[i] = tasks[i].Location
		}
		layout, err = shard.SplitLayout(pts, f.Partition(), r.si)
	case migrateMerge:
		layout, err = shard.MergeLayout(f.Partition(), r.si, r.sj)
	}
	if err == nil {
		rebuilt, err = f.Rebuild(layout)
	}
	if err != nil {
		sp.Fail(err)
		return nil, "", err
	}
	sp.AttrInt("k_after", int64(rebuilt.NumShards()))
	return rebuilt, fmt.Sprintf("%s (K %d -> %d)", r, len(f.Partition()), rebuilt.NumShards()), nil
}

// forceMigration queues a migration and blocks until it completes — the
// test entry point for deterministic splits and merges. It requires a
// scheduler (migrations are queued on it, between its fits).
func (s *Service) forceMigration(ctx context.Context, req *migrationRequest) error {
	if !s.bg.scheduled {
		return fmt.Errorf("poilabel: forced migration requires WithBackgroundFit")
	}
	req.done = make(chan error, 1)
	if !s.bg.requestMigration(req) {
		return fmt.Errorf("poilabel: a migration is already queued")
	}
	select {
	case err := <-req.done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// forceSplit splits shard si now, regardless of drift.
func (s *Service) forceSplit(ctx context.Context, si int) error {
	return s.forceMigration(ctx, &migrationRequest{kind: migrateSplit, si: si})
}

// forceMerge merges shards si and sj now, regardless of drift.
func (s *Service) forceMerge(ctx context.Context, si, sj int) error {
	return s.forceMigration(ctx, &migrationRequest{kind: migrateMerge, si: si, sj: sj})
}
