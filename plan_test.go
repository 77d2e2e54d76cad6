package poilabel

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"poilabel/internal/trace"
)

// parseWid and parseTid invert the wid/tid test helpers.
func parseWid(id string) (int, error) {
	var i int
	_, err := fmt.Sscanf(id, "worker-%d", &i)
	return i, err
}

func parseTid(id string) (int, error) {
	var i int
	_, err := fmt.Sscanf(id, "task-%d", &i)
	return i, err
}

// dedupCounter totals the pending pairs a service's planning rounds report
// having skipped; planPair hangs one on each side.
type dedupCounter struct{ hits atomic.Int64 }

func (*dedupCounter) FitObserved(time.Duration, bool, error) {}
func (*dedupCounter) AnswerObserved(bool)                    {}
func (c *dedupCounter) DedupHitsObserved(n int)              { c.hits.Add(int64(n)) }

func dedupHits(s *Service) int64 { return s.observer.(*dedupCounter).hits.Load() }

// planPair builds the matched pair of services the equivalence tests diff:
// two background-fit services over the same world, one forced through the
// write-locked planner, fed byte-identical histories, each counting its
// dedup hits.
func planPair(t *testing.T, nTasks, nWorkers int, extra ...ServiceOption) (free, locked *Service, truth *GroundTruth) {
	t.Helper()
	opts := append(bgOpts(), extra...)
	var err error
	free, err = NewService(opts...)
	if err != nil {
		t.Fatal(err)
	}
	locked, err = NewService(opts...)
	if err != nil {
		t.Fatal(err)
	}
	locked.forceLockedPlan = true
	free.SetObserver(new(dedupCounter))
	locked.SetObserver(new(dedupCounter))
	truth = registerGridWorld(t, free, nTasks, nWorkers)
	registerGridWorld(t, locked, nTasks, nWorkers)
	return free, locked, truth
}

// requestBoth runs the same RequestTasks call on both services and requires
// byte-identical assignments (or the same error) and, after every round, the
// same number of pending pairs skipped while planning.
func requestBoth(t *testing.T, free, locked *Service, workers []string) map[string][]string {
	t.Helper()
	ctx := context.Background()
	got, errGot := free.RequestTasks(ctx, workers)
	want, errWant := locked.RequestTasks(ctx, workers)
	if (errGot == nil) != (errWant == nil) || (errGot != nil && errGot.Error() != errWant.Error()) {
		t.Fatalf("lock-free error %v, locked error %v", errGot, errWant)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("lock-free plan %v differs from locked plan %v", got, want)
	}
	if f, l := dedupHits(free), dedupHits(locked); f != l {
		t.Fatalf("dedup hits after %v: lock-free %d, locked %d", workers, f, l)
	}
	return got
}

// TestLockFreePlanQuiescedEquivalence pins the tentpole's correctness
// contract: on a quiesced service, the lock-free snapshot-plan-and-commit
// path hands out byte-identical assignments to the old write-locked planner
// — through single-worker (candidate list) rounds, multi-worker (pooled
// planner) rounds, pending-pair dedup, and fresh generations after more
// answers — on every engine shape of TestShapeIdentity's table: a partition
// node's snapshot is a capture of its view.
func TestLockFreePlanQuiescedEquivalence(t *testing.T) {
	shapes := map[string][]ServiceOption{
		"single":        nil,
		"sharded":       {WithEngine(EngineSharded), WithShards(4)},
		"federated-2x2": {WithEngine(EngineFederated), WithCities(2), WithShards(2)},
	}
	for name, shape := range shapes {
		t.Run(name, func(t *testing.T) { lockFreeQuiescedEquivalence(t, shape) })
	}
}

func lockFreeQuiescedEquivalence(t *testing.T, shape []ServiceOption) {
	free, locked, truth := planPair(t, 24, 6, append(shape, WithTasksPerRequest(3))...)
	defer free.Close(context.Background())
	defer locked.Close(context.Background())
	ctx := context.Background()

	log := feedPairs(t, free, truth, 99, 0, 6, 0, 4)
	replayAnswers(t, locked, log)
	for _, svc := range []*Service{free, locked} {
		if err := svc.WaitFresh(ctx); err != nil {
			t.Fatal(err)
		}
	}

	// Single-worker rounds (the candidate-list fast path), repeated so the
	// second round must exclude the first round's pending pairs.
	requestBoth(t, free, locked, []string{wid(0)})
	requestBoth(t, free, locked, []string{wid(0)})
	requestBoth(t, free, locked, []string{wid(3)})
	// Multi-worker round: the pooled-planner path, in Trim order.
	handed := requestBoth(t, free, locked, []string{wid(1), wid(2), wid(4), wid(5)})

	// Answer some handed-out pairs identically on both sides, quiesce, and
	// plan again on the fresh generation.
	rng := rand.New(rand.NewSource(7))
	for _, w := range []string{wid(1), wid(2)} {
		for _, task := range handed[w] {
			wi, err := parseWid(w)
			if err != nil {
				t.Fatal(err)
			}
			ti, err := parseTid(task)
			if err != nil {
				t.Fatal(err)
			}
			a := answer(WorkerID(wi), TaskID(ti), truth, 0.9, rng)
			if err := free.SubmitAnswer(w, task, a.Selected); err != nil {
				t.Fatal(err)
			}
			if err := locked.SubmitAnswer(w, task, a.Selected); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, svc := range []*Service{free, locked} {
		if err := svc.WaitFresh(ctx); err != nil {
			t.Fatal(err)
		}
	}
	requestBoth(t, free, locked, []string{wid(1), wid(2)})
	requestBoth(t, free, locked, []string{wid(5)})

	// The diff is only meaningful if the two services actually took
	// different paths.
	if st := free.PlanStats(); !st.Enabled || st.LockFreePlans == 0 {
		t.Fatalf("lock-free service never planned off the lock: %+v", st)
	}
	if st := locked.PlanStats(); st.LockFreePlans != 0 {
		t.Fatalf("forced-locked service planned off the lock: %+v", st)
	}
}

// TestLockFreePlanBudgetEquivalence repeats the equivalence diff under
// budget pressure: the optimistic commit must trim mid-round exactly like
// assign.Trim, spend the budget identically, and exhaust at the same call.
func TestLockFreePlanBudgetEquivalence(t *testing.T) {
	free, locked, truth := planPair(t, 20, 5, WithTasksPerRequest(3), WithBudget(11))
	defer free.Close(context.Background())
	defer locked.Close(context.Background())
	ctx := context.Background()

	log := feedPairs(t, free, truth, 101, 0, 5, 0, 3)
	replayAnswers(t, locked, log)
	for _, svc := range []*Service{free, locked} {
		if err := svc.WaitFresh(ctx); err != nil {
			t.Fatal(err)
		}
	}

	// 11 units against rounds of up to 3×3: the multi-worker round must be
	// trimmed mid-round, then the remainder drains one worker at a time.
	requestBoth(t, free, locked, []string{wid(0), wid(1), wid(2)}) // 9 units
	requestBoth(t, free, locked, []string{wid(3), wid(4)})         // trimmed to 2
	if got, want := free.RemainingBudget(), locked.RemainingBudget(); got != want || got != 0 {
		t.Fatalf("remaining budget: lock-free %d, locked %d, want 0", got, want)
	}
	_, errFree := free.RequestTasks(ctx, []string{wid(0)})
	_, errLocked := locked.RequestTasks(ctx, []string{wid(0)})
	if !errors.Is(errFree, ErrBudgetExhausted) || !errors.Is(errLocked, ErrBudgetExhausted) {
		t.Fatalf("exhausted errors: lock-free %v, locked %v", errFree, errLocked)
	}
}

// TestLockFreeDedupHitsCountPendingOnly: a dedup hit is a pending pair skipped
// while planning, on either path. The lock-free path leaves out a second kind
// of pair — answered since the generation's snapshot was captured — and must
// not count it: with unsolicited answers after the snapshot and nothing
// pending, both paths report zero for the same plan.
func TestLockFreeDedupHitsCountPendingOnly(t *testing.T) {
	free, locked, truth := planPair(t, 24, 4, WithTasksPerRequest(2))
	defer free.Close(context.Background())
	defer locked.Close(context.Background())
	ctx := context.Background()
	for _, svc := range []*Service{free, locked} {
		if _, err := svc.Results(ctx); err != nil { // builds the engine, publishes the plan view
			t.Fatal(err)
		}
	}
	// Six unsolicited answers the published snapshot does not hold; bgOpts
	// never fits on its own, so they stay in sincePlan.
	log := feedPairs(t, free, truth, 5, 0, 2, 0, 3)
	replayAnswers(t, locked, log)
	since := 0
	for _, ts := range free.sincePlan {
		since += len(ts)
	}
	if n := since; n != len(log) || free.PendingCount() != 0 {
		t.Fatalf("setup: %d pairs answered since the snapshot (want %d), %d pending (want 0)", n, len(log), free.PendingCount())
	}

	requestBoth(t, free, locked, []string{wid(0)})
	requestBoth(t, free, locked, []string{wid(0), wid(1)})
	if got := dedupHits(locked); got != 2 {
		// Round two re-probed worker 0's two pending pairs and nothing else.
		t.Fatalf("locked path counted %d dedup hits, want 2", got)
	}
	if st := free.PlanStats(); st.LockFreePlans != 2 {
		t.Fatalf("the lock-free side planned %d rounds off the lock, want 2: %+v", st.LockFreePlans, st)
	}
}

// TestLockFreeCommitReportsExhaustedBudget replays, deterministically, the
// race the locked planner's re-check covers: a round captures its plan
// context while budget remains, another round spends the last unit, and only
// then does the first round commit. It must report ErrBudgetExhausted like
// the locked path — not an empty assignment and a nil error.
func TestLockFreeCommitReportsExhaustedBudget(t *testing.T) {
	ctx := context.Background()
	svc, err := NewService(append(bgOpts(), WithTasksPerRequest(2), WithBudget(2))...)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(ctx)
	registerGridWorld(t, svc, 12, 3)
	if _, err := svc.Results(ctx); err != nil { // builds the engine, publishes the plan view
		t.Fatal(err)
	}

	// What RequestTasks captures under the read lock, while 2 units remain.
	ws, pc, err := svc.capturePlan([]string{wid(0)})
	if err != nil {
		t.Fatal(err)
	}
	if pc == nil {
		t.Fatal("no plan view published; the lock-free path is not configured")
	}

	if got, err := svc.RequestTasks(ctx, []string{wid(1)}); err != nil || len(got[wid(1)]) != 2 {
		t.Fatalf("the competing round got %v, %v; want the last 2 units", got, err)
	}
	got, err := svc.requestTasksLockFree(ctx, ws, pc)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("commit after the budget was spent returned %v, %v; want ErrBudgetExhausted", got, err)
	}
	if svc.PendingCount() != 2 || svc.RemainingBudget() != 0 {
		t.Fatalf("exhausted commit changed the ledger: %d pending, budget %d", svc.PendingCount(), svc.RemainingBudget())
	}
}

// TestLockFreeReplanDedupHits replays a forced conflict deterministically: a
// round captures its plan context while worker 0 has nothing pending, the
// first of the two picks its plan makes is handed out before the round
// commits, so the commit takes the second and replans the first. The replan
// must leave the round's own just-committed pick out without counting it: a
// dedup hit is a pending pair the round's workers had at capture, and here
// there was none.
func TestLockFreeReplanDedupHits(t *testing.T) {
	ctx := context.Background()
	svc, err := NewService(append(bgOpts(), WithTasksPerRequest(2))...)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(ctx)
	registerGridWorld(t, svc, 12, 3)
	if _, err := svc.Results(ctx); err != nil { // builds the engine, publishes the plan view
		t.Fatal(err)
	}
	counter := new(dedupCounter)
	svc.SetObserver(counter)

	ws, pc, err := svc.capturePlan([]string{wid(0)})
	if err != nil {
		t.Fatal(err)
	}
	if pc == nil {
		t.Fatal("no plan view published; the lock-free path is not configured")
	}
	planned, _ := svc.cands.PlanWorker(pc.pub.plan, pc.pub.gen, 0, 2, nil)
	if len(planned) != 2 {
		t.Fatalf("worker 0's plan is %v, want two picks", planned)
	}
	svc.mu.Lock()
	svc.led.commit(map[WorkerID][]TaskID{0: {planned[0]}}, nil)
	svc.mu.Unlock()

	got, err := svc.requestTasksLockFree(ctx, ws, pc)
	if err != nil {
		t.Fatal(err)
	}
	ts := got[wid(0)]
	if len(ts) != 2 || ts[0] != tid(int(planned[1])) || ts[1] == tid(int(planned[0])) || ts[1] == ts[0] {
		t.Fatalf("round handed out %v; want %s, then a replanned pick other than %s", ts, tid(int(planned[1])), tid(int(planned[0])))
	}
	if st := svc.PlanStats(); st.Conflicts != 1 || st.Retries != 1 {
		t.Fatalf("plan stats %+v, want one conflict and one retry", st)
	}
	if n := counter.hits.Load(); n != 0 {
		t.Fatalf("the round counted %d dedup hits, want 0: nothing was pending at capture", n)
	}
}

// TestConcurrentRequestTasksRace drives 16 workers through concurrent
// request/answer loops with eager background fits and checks the handout
// invariants the optimistic commit must preserve: no (worker, task) pair is
// ever handed out twice, and the budget is spent exactly once per pick —
// never double-spent, fully drained by the end.
func TestConcurrentRequestTasksRace(t *testing.T) {
	const (
		nTasks   = 60
		nWorkers = 16
		budget   = 150
	)
	svc, err := NewService(
		WithBackgroundFit(time.Millisecond, 8),
		WithTasksPerRequest(2),
		WithBudget(budget),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	truth := registerGridWorld(t, svc, nTasks, nWorkers)
	ctx := context.Background()
	// Force the prior-only publication before the race: until the engine is
	// built and a generation is published, requests legitimately fall back
	// to the locked planner, which would dilute the invariant below that
	// every pick flows through the optimistic commit.
	if _, err := svc.Results(ctx); err != nil {
		t.Fatal(err)
	}
	if err := svc.WaitFresh(ctx); err != nil {
		t.Fatal(err)
	}

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

	var wg sync.WaitGroup
	for g := 0; g < nWorkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
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
				}
			}
		}(g)
	}
	wg.Wait()

	if total != budget {
		t.Errorf("handed out %d pairs, want exactly the budget %d", total, budget)
	}
	if got := svc.RemainingBudget(); got != 0 {
		t.Errorf("remaining budget %d after drain, want 0", got)
	}
	st := svc.PlanStats()
	if !st.Enabled || st.LockFreePlans == 0 {
		t.Fatalf("race test never exercised the lock-free path: %+v", st)
	}
	if st.CommittedPicks != uint64(budget) {
		t.Errorf("committed %d picks, want %d", st.CommittedPicks, budget)
	}
	t.Logf("plan stats: %+v", st)
}

// TestLockedPlanSpanCountsItsRound reads a locked round's size off its trace:
// the plan.locked span carries how many workers asked and how many pairs the
// round committed, so /debug/traces gives the write-lock hold per worker.
func TestLockedPlanSpanCountsItsRound(t *testing.T) {
	tracer := trace.New(trace.Config{})
	svc, err := NewService(WithEngine(EngineSharded), WithShards(2), WithTasksPerRequest(2), WithTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	registerGridWorld(t, svc, 24, 4)

	ctx, root := tracer.StartRoot(context.Background(), "plan.request", 0)
	got, err := svc.RequestTasks(ctx, []string{wid(0), wid(1), wid(2)})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	pairs := 0
	for _, ts := range got {
		pairs += len(ts)
	}
	if pairs != 6 {
		t.Fatalf("round handed out %d pairs, want 6: %v", pairs, got)
	}
	traces := tracer.Snapshot(trace.Query{Name: "plan.request"})
	if len(traces) != 1 {
		t.Fatalf("got %d plan.request traces, want 1", len(traces))
	}
	for _, sp := range traces[0].Spans {
		if sp.Name != "plan.locked" {
			continue
		}
		attrs := make(map[string]string)
		for _, a := range sp.Attrs {
			attrs[a.K] = a.V
		}
		if attrs["workers"] != "3" || attrs["committed"] != "6" {
			t.Fatalf("plan.locked attrs = %v, want workers=3 committed=6", attrs)
		}
		return
	}
	t.Fatalf("no plan.locked span in %+v", traces[0].Spans)
}
