package poilabel

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"poilabel/internal/core"
)

// elasticOpts builds the canonical elastic test service: sharded over k
// shards, background fits that only run when driven explicitly (bgOpts), and
// the detector goroutine disabled (CheckInterval 0) so every migration in
// the test is a forced, deterministic one.
func elasticOpts(k int, extra ...ServiceOption) []ServiceOption {
	opts := []ServiceOption{WithEngine(EngineSharded), WithShards(k)}
	opts = append(opts, bgOpts()...)
	opts = append(opts, WithElasticShards(ElasticConfig{}))
	return append(opts, extra...)
}

// newElasticService is the Fatal-on-error constructor the tests lean on.
func newElasticService(t *testing.T, k int, extra ...ServiceOption) *Service {
	t.Helper()
	svc, err := NewService(elasticOpts(k, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close(context.Background()) })
	return svc
}

// quiesce forces the engine build and one explicit full fit, leaving the
// service with a fresh publication — the precondition for a forced migration.
func quiesce(t *testing.T, svc *Service) {
	t.Helper()
	ctx := context.Background()
	if _, err := svc.Results(ctx); err != nil {
		t.Fatal(err)
	}
	if err := svc.WaitFresh(ctx); err != nil {
		t.Fatal(err)
	}
}

// samePlans requests assignments for the same workers from both services and
// requires byte-identical plans — the "next plans" half of the migration
// bit-identity contract.
func samePlans(t *testing.T, got, want *Service, workers []string) {
	t.Helper()
	ctx := context.Background()
	g, errG := got.RequestTasks(ctx, workers)
	w, errW := want.RequestTasks(ctx, workers)
	if (errG == nil) != (errW == nil) {
		t.Fatalf("plan errors diverge: got %v, want %v", errG, errW)
	}
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("plans diverge after migration:\ngot  %v\nwant %v", g, w)
	}
}

// TestElasticOptionValidation pins the constructor contract: elastic
// re-sharding exists only on a sharded engine with a background fit pipeline.
func TestElasticOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []ServiceOption
		want string
	}{
		{"single engine", append(bgOpts(), WithElasticShards(ElasticConfig{})),
			"requires the sharded engine"},
		{"no background fit", []ServiceOption{
			WithEngine(EngineSharded), WithShards(4), WithElasticShards(ElasticConfig{})},
			"requires WithBackgroundFit"},
		{"negative interval", []ServiceOption{
			WithElasticShards(ElasticConfig{CheckInterval: -time.Second})},
			"negative elastic check interval"},
		{"min above max", []ServiceOption{
			WithElasticShards(ElasticConfig{MinShards: 8, MaxShards: 2})},
			"MinShards 8 above MaxShards 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			svc, err := NewService(tc.opts...)
			if err == nil {
				svc.Close(context.Background())
				t.Fatalf("NewService accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// A forced migration needs the engine built first.
	svc := newElasticService(t, 4)
	registerGridWorld(t, svc, 16, 4)
	if err := svc.forceSplit(context.Background(), 0); err == nil ||
		!strings.Contains(err.Error(), "built sharded engine") {
		t.Fatalf("split before engine build: %v", err)
	}
}

// TestForcedSplitMatchesReplayedHistory pins live-split determinism: a
// quiesced service that splits a shard serves bit-identical results and
// plans to a second service fed the byte-identical history and split the
// same way.
func TestForcedSplitMatchesReplayedHistory(t *testing.T) {
	ctx := context.Background()
	a := newElasticService(t, 4)
	truth := registerGridWorld(t, a, 48, 8)
	log := feedPairs(t, a, truth, 7, 0, 8, 0, 24)
	quiesce(t, a)
	if err := a.forceSplit(ctx, 1); err != nil {
		t.Fatal(err)
	}

	b := newElasticService(t, 4)
	registerGridWorld(t, b, 48, 8)
	replayAnswers(t, b, log)
	quiesce(t, b)
	if err := b.forceSplit(ctx, 1); err != nil {
		t.Fatal(err)
	}

	for _, svc := range []*Service{a, b} {
		st := svc.ElasticStats()
		if !st.Enabled || st.Shards != 5 || st.Splits != 1 || st.Migrations != 1 || st.Aborted != 0 {
			t.Fatalf("elastic stats after split: %+v", st)
		}
		if !strings.Contains(st.LastAction, "split shard 1") {
			t.Fatalf("last action %q", st.LastAction)
		}
	}
	requireIdenticalResults(t, a, b)
	samePlans(t, a, b, []string{wid(0), wid(3), wid(5)})
}

// TestServiceSplitMergeRoundTrip pins the layout round trip through the live
// service: split a shard, merge the two halves back, and the service must
// return to bit-identical results at the original layout.
func TestServiceSplitMergeRoundTrip(t *testing.T) {
	ctx := context.Background()
	svc := newElasticService(t, 4)
	truth := registerGridWorld(t, svc, 48, 8)
	feedPairs(t, svc, truth, 21, 0, 8, 0, 24)
	quiesce(t, svc)
	before, err := svc.ResultSet(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// SplitLayout inserts the new shard at si+1, so merging si with si+1
	// restores the pre-split grouping exactly.
	if err := svc.forceSplit(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if got := svc.ElasticStats().Shards; got != 5 {
		t.Fatalf("shards after split: %d", got)
	}
	if err := svc.forceMerge(ctx, 2, 3); err != nil {
		t.Fatal(err)
	}

	st := svc.ElasticStats()
	if st.Shards != 4 || st.Migrations != 2 || st.Splits != 1 || st.Merges != 1 || st.Aborted != 0 {
		t.Fatalf("elastic stats after round trip: %+v", st)
	}
	after, err := svc.ResultSet(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before.Prob, after.Prob) || !reflect.DeepEqual(before.Inferred, after.Inferred) {
		t.Fatal("split-then-merge did not restore bit-identical results")
	}

	// Bad forced migrations abort without touching the layout or the
	// completed-migration counters.
	if err := svc.forceMerge(ctx, 1, 1); err == nil {
		t.Fatal("self-merge accepted")
	}
	if err := svc.forceSplit(ctx, 99); err == nil {
		t.Fatal("split of unknown shard accepted")
	}
	st = svc.ElasticStats()
	if st.Shards != 4 || st.Migrations != 2 || st.Aborted != 2 {
		t.Fatalf("elastic stats after rejected migrations: %+v", st)
	}
}

// TestElasticMergeToSingleShardMatchesPlainModel pins the K=1 equivalence at
// the service level: merging an elastic sharded service down to one shard
// must serve results bit-identical to the plain core.Model over the same
// history — the migration's rebuild-and-fit is indistinguishable from
// constructing the paper's model fresh.
func TestElasticMergeToSingleShardMatchesPlainModel(t *testing.T) {
	ctx := context.Background()
	sharded := newElasticService(t, 2)
	truth := registerGridWorld(t, sharded, 32, 6)
	log := feedPairs(t, sharded, truth, 33, 0, 6, 0, 16)
	quiesce(t, sharded)
	if err := sharded.forceMerge(ctx, 0, 1); err != nil {
		t.Fatal(err)
	}
	if got := sharded.ElasticStats().Shards; got != 1 {
		t.Fatalf("shards after merge: %d", got)
	}

	// The plain model over the identical inputs: same tasks, workers,
	// distance normalizer, and EM config, answers in arrival order, one
	// full fit from priors — exactly what the migration's rebuild did.
	sh := sharded.sharded()
	plain, err := core.NewModel(sharded.tasks, sharded.workers, sh.Normalizer(), sharded.cfg.model)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range log {
		if err := plain.Observe(Answer{
			Worker: WorkerID(a.worker), Task: TaskID(a.task), Selected: a.selected,
		}); err != nil {
			t.Fatal(err)
		}
	}
	plain.Fit()

	got, err := sharded.ResultSet(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := plain.Result()
	for ti := range want.Prob {
		for k := range want.Prob[ti] {
			if got.Prob[ti][k] != want.Prob[ti][k] {
				t.Fatalf("task %d label %d: prob %v != plain model's %v (not bit-identical)",
					ti, k, got.Prob[ti][k], want.Prob[ti][k])
			}
			if got.Inferred[ti][k] != want.Inferred[ti][k] {
				t.Fatalf("task %d label %d: inferred %v != %v", ti, k, got.Inferred[ti][k], want.Inferred[ti][k])
			}
		}
	}
	for wi := 0; wi < sharded.NumWorkers(); wi++ {
		info, err := sharded.WorkerInfo(wid(wi))
		if err != nil {
			t.Fatal(err)
		}
		if q := plain.WorkerQuality(WorkerID(wi)); info.Quality != q {
			t.Fatalf("worker %d quality %v != plain model's %v", wi, info.Quality, q)
		}
	}
}

// TestSnapshotAcrossLayouts pins checkpoint compatibility across elastic
// layouts: a snapshot carries its live layout, an elastic service restores
// it regardless of its own configured shard count, and an old pre-migration
// checkpoint replayed through the same migrations converges to the same
// state.
func TestSnapshotAcrossLayouts(t *testing.T) {
	ctx := context.Background()
	a := newElasticService(t, 4)
	truth := registerGridWorld(t, a, 48, 8)
	feedPairs(t, a, truth, 55, 0, 8, 0, 24)
	quiesce(t, a)

	var atK4 bytes.Buffer
	if err := a.Checkpoint(&atK4); err != nil {
		t.Fatal(err)
	}
	// Drive A from K=4 to K=6 with two splits, then checkpoint again.
	if err := a.forceSplit(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.forceSplit(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if got := a.ElasticStats().Shards; got != 6 {
		t.Fatalf("shards after two splits: %d", got)
	}
	var atK6 bytes.Buffer
	if err := a.Checkpoint(&atK6); err != nil {
		t.Fatal(err)
	}

	// The K=6 snapshot restores into an elastic service configured with a
	// different shard count: the snapshot's layout is authoritative.
	b := newElasticService(t, 3)
	if err := b.Restore(bytes.NewReader(atK6.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := b.ElasticStats().Shards; got != 6 {
		t.Fatalf("restored shards: %d, want 6", got)
	}
	requireIdenticalResults(t, b, a)
	samePlans(t, b, a, []string{wid(1), wid(4)})

	// The old K=4 checkpoint is still usable after the original split to
	// K=6: restore it and replay the same migrations to converge on the
	// same layout and results.
	c := newElasticService(t, 4)
	if err := c.Restore(bytes.NewReader(atK4.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := c.forceSplit(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.forceSplit(ctx, 3); err != nil {
		t.Fatal(err)
	}
	requireIdenticalResults(t, c, a)

	// Without elastic re-sharding the configured count still has to match,
	// exactly as TestServiceRestoreValidation pins for plain services.
	frozen, err := NewService(append(bgOpts(), WithEngine(EngineSharded), WithShards(3))...)
	if err != nil {
		t.Fatal(err)
	}
	defer frozen.Close(ctx)
	err = frozen.Restore(bytes.NewReader(atK6.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "shard count") {
		t.Fatalf("non-elastic restore of mismatched snapshot: %v", err)
	}
}

// TestConcurrentTrafficDuringLiveSplit is the migration liveness invariant
// under fire: 16 workers drain the budget through concurrent request/answer
// loops while shard 0 is repeatedly split and re-merged live. No (worker,
// task) pair may be handed out twice, the budget is spent exactly once per
// pick, and every acknowledged answer survives the migrations. Run with
// -race, this is the elastic suite's data-race canary.
func TestConcurrentTrafficDuringLiveSplit(t *testing.T) {
	const (
		nTasks   = 60
		nWorkers = 16
		budget   = 150
	)
	svc, err := NewService(
		WithEngine(EngineSharded),
		WithShards(2),
		WithBackgroundFit(time.Millisecond, 8),
		WithTasksPerRequest(2),
		WithBudget(budget),
		WithElasticShards(ElasticConfig{}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	truth := registerGridWorld(t, svc, nTasks, nWorkers)
	ctx := context.Background()
	quiesce(t, svc)

	var (
		mu     sync.Mutex
		handed = make(map[[2]int]bool)
		total  int
	)
	record := func(t *testing.T, wi, ti int) {
		mu.Lock()
		defer mu.Unlock()
		key := [2]int{wi, ti}
		if handed[key] {
			t.Errorf("pair (worker %d, task %d) handed out twice", wi, ti)
		}
		handed[key] = true
		total++
	}

	// The migration churn: alternate split and merge-back of shard 0 until
	// the traffic drains. Individual attempts may legitimately abort (the
	// shard ran out of tasks to halve); the invariants below must hold
	// regardless, but at least one migration has to land for the test to
	// mean anything.
	stop := make(chan struct{})
	var churn sync.WaitGroup
	var landed atomic.Uint64
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			if i%2 == 0 {
				err = svc.forceSplit(ctx, 0)
			} else {
				err = svc.forceMerge(ctx, 0, 1)
			}
			if err == nil {
				landed.Add(1)
			}
		}
	}()

	var acked atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < nWorkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(2000 + g)))
			me := wid(g)
			for {
				assigned, err := svc.RequestTasks(ctx, []string{me})
				if errors.Is(err, ErrBudgetExhausted) {
					return
				}
				if err != nil {
					t.Errorf("worker %d: %v", g, err)
					return
				}
				for _, task := range assigned[me] {
					ti, err := parseTid(task)
					if err != nil {
						t.Errorf("bad task id %q: %v", task, err)
						return
					}
					record(t, g, ti)
					a := answer(WorkerID(g), TaskID(ti), truth, 0.85, rng)
					if err := svc.SubmitAnswer(me, task, a.Selected); err != nil {
						t.Errorf("worker %d answer task %d: %v", g, ti, err)
						return
					}
					acked.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	churn.Wait()

	if total != budget {
		t.Errorf("handed out %d pairs, want exactly the budget %d", total, budget)
	}
	if got := svc.RemainingBudget(); got != 0 {
		t.Errorf("remaining budget %d, want 0", got)
	}
	if got := svc.PendingCount(); got != 0 {
		t.Errorf("pending pairs at end: %d, want 0", got)
	}
	if landed.Load() == 0 {
		t.Error("no migration landed during the drain")
	}
	// Every acknowledged answer survived the migrations: the engine holds
	// exactly what the workers submitted, no losses and no duplicates.
	if err := svc.WaitFresh(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := svc.AnswerCount(), int(acked.Load()); got != want {
		t.Errorf("engine holds %d answers, workers got %d acks", got, want)
	}
	st := svc.ElasticStats()
	if st.Migrations != landed.Load() || st.Migrations != st.Splits+st.Merges {
		t.Errorf("migration accounting: %+v, %d landed client-side", st, landed.Load())
	}
}

// TestDriftDetectorSplitsHotShard drives the detector's window logic by
// hand (checkOnce, no goroutine): a thin window does nothing, a window with
// all its mass on one shard proposes the split, and the proposal executes on
// the fit pipeline.
func TestDriftDetectorSplitsHotShard(t *testing.T) {
	svc := newElasticService(t, 2, WithElasticShards(ElasticConfig{MinAnswers: 8}))
	truth := registerGridWorld(t, svc, 32, 6)
	feedPairs(t, svc, truth, 77, 0, 6, 0, 4)
	quiesce(t, svc)
	c := svc.elastic

	c.checkOnce() // first tick: opens the window, never proposes
	feedPairs(t, svc, truth, 78, 0, 1, 4, 6)
	c.checkOnce() // 2 answers < MinAnswers: thin window, no proposal
	if st := svc.ElasticStats(); st.Migrating || st.Migrations != 0 {
		t.Fatalf("thin window triggered a migration: %+v", st)
	}

	// Pour a hot window into one side of the kd split: tasks 8..15 all sit
	// at x >= 8, so 5 workers x 8 tasks = 40 answers land on a single
	// shard. 40 >= SplitRatio (2) x mean (20), so the next tick proposes
	// splitting it.
	feedPairs(t, svc, truth, 79, 1, 6, 8, 16)
	c.checkOnce()

	deadline := time.Now().Add(10 * time.Second)
	for svc.ElasticStats().Migrations == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("detector proposal never executed: %+v", svc.ElasticStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := svc.ElasticStats()
	if st.Splits != 1 || st.Shards != 3 {
		t.Fatalf("hot window did not land a split: %+v", st)
	}
}
