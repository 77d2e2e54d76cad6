package poilabel

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"poilabel/internal/assign"
	"poilabel/internal/snapshot"
)

func newTestLedger(budget int, pending ...pairKey) *ledger {
	l := &ledger{pending: make(map[WorkerID][]TaskID), budget: budget}
	for _, pk := range pending {
		l.pending[pk.w] = append(l.pending[pk.w], pk.t)
		l.npending++
	}
	return l
}

// pendingSet flattens the ledger's per-worker pending lists into a set,
// failing if a pair is listed twice or the count disagrees.
func pendingSet(t *testing.T, l *ledger) map[pairKey]bool {
	t.Helper()
	set := make(map[pairKey]bool)
	for w, ts := range l.pending {
		for _, task := range ts {
			if set[pairKey{w, task}] {
				t.Fatalf("pair (%d, %d) pending twice", w, task)
			}
			set[pairKey{w, task}] = true
		}
	}
	if len(set) != l.npending {
		t.Fatalf("%d pairs pending, the count says %d", len(set), l.npending)
	}
	return set
}

// TestLedgerCommit is the commit both planning paths end in, case by case:
// assign.Trim's order, a budget that runs out mid-round, conflicts that cost
// nothing, and the two ends of the budget's range.
func TestLedgerCommit(t *testing.T) {
	type plan = map[WorkerID][]TaskID
	cases := []struct {
		name      string
		budget    int
		pending   []pairKey
		answered  map[pairKey]bool // nil: no probe, as under the lock
		plans     plan
		accepted  plan
		conflicts []pairKey
		exhausted bool
		left      int // budget afterwards
	}{
		{
			name:   "trim order across workers with uneven plans",
			budget: 5,
			plans:  plan{2: {20, 21, 22}, 0: {1}, 1: {10, 11, 12}},
			// Round 0: workers 0, 1, 2; round 1: workers 1, 2; then nothing left to spend.
			accepted:  plan{0: {1}, 1: {10, 11}, 2: {20, 21}},
			exhausted: true,
		},
		{
			name:      "budget cut mid-round",
			budget:    3,
			plans:     plan{0: {1, 2}, 1: {3, 4}},
			accepted:  plan{0: {1, 2}, 1: {3}},
			exhausted: true,
		},
		{
			name:     "a plan that fits exactly leaves nothing waiting",
			budget:   4,
			plans:    plan{0: {1, 2}, 1: {3, 4}},
			accepted: plan{0: {1, 2}, 1: {3, 4}},
		},
		{
			name:      "a conflicted pick spends nothing and is returned",
			budget:    3,
			pending:   []pairKey{{0, 5}},
			answered:  map[pairKey]bool{{1, 6}: true},
			plans:     plan{0: {5, 7}, 1: {6, 8}},
			accepted:  plan{0: {7}, 1: {8}},
			conflicts: []pairKey{{0, 5}, {1, 6}},
			left:      1,
		},
		{
			name:      "a pair planned twice is handed out once",
			budget:    -1,
			plans:     plan{0: {4, 4}},
			accepted:  plan{0: {4}},
			conflicts: []pairKey{{0, 4}},
			left:      -1,
		},
		{
			name:     "an unlimited budget never reports exhausted",
			budget:   -1,
			plans:    plan{0: {1, 2, 3}, 3: {1, 2, 3}},
			accepted: plan{0: {1, 2, 3}, 3: {1, 2, 3}},
			left:     -1,
		},
		{
			name:      "exhausted before the first pick commits nothing",
			budget:    0,
			pending:   []pairKey{{2, 2}},
			plans:     plan{0: {1}, 1: {2}},
			accepted:  plan{},
			exhausted: true,
		},
		{
			name:     "no plans, nothing to report",
			budget:   0,
			accepted: plan{},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l := newTestLedger(c.budget, c.pending...)
			var probe func(WorkerID, TaskID) bool
			if c.answered != nil {
				probe = func(w WorkerID, t TaskID) bool { return c.answered[pairKey{w, t}] }
			}
			accepted, conflicts, exhausted := l.commit(c.plans, probe)
			if !reflect.DeepEqual(accepted, c.accepted) || !reflect.DeepEqual(conflicts, c.conflicts) || exhausted != c.exhausted {
				t.Fatalf("commit = %v, conflicts %v, exhausted %t\nwant     %v, conflicts %v, exhausted %t",
					accepted, conflicts, exhausted, c.accepted, c.conflicts, c.exhausted)
			}
			if l.budget != c.left {
				t.Fatalf("budget left %d, want %d", l.budget, c.left)
			}
			want := make(map[pairKey]bool)
			for _, pk := range c.pending {
				want[pk] = true
			}
			for w, ts := range c.accepted {
				for _, task := range ts {
					want[pairKey{w, task}] = true
				}
			}
			if got := pendingSet(t, l); !reflect.DeepEqual(got, want) {
				t.Fatalf("pending %v, want %v", got, want)
			}
			if len(c.conflicts) == 0 {
				// Without conflicts the commit is assign.Trim, which is what lets
				// the locked path's engine trim its own round first.
				trimmed := plan{}
				for w, ts := range assign.Trim(c.plans, c.budget) {
					if len(ts) > 0 {
						trimmed[w] = ts
					}
				}
				if !reflect.DeepEqual(accepted, trimmed) {
					t.Fatalf("commit %v, assign.Trim %v", accepted, trimmed)
				}
			}
		})
	}
}

// TestLedgerExclusions: a round's exclusions are the requesting workers'
// pending lists, each worker once, as copies the caller may grow while the
// ledger moves on; the pending count is the round's dedup hits.
func TestLedgerExclusions(t *testing.T) {
	l := newTestLedger(-1, pairKey{0, 3}, pairKey{0, 5}, pairKey{1, 2}, pairKey{2, 7})
	ex, pending := l.exclusions([]WorkerID{0, 1, 0, 4})
	want := assign.TaskLists{0: {3, 5}, 1: {2}, 4: nil}
	if !reflect.DeepEqual(ex, want) || pending != 3 {
		t.Fatalf("exclusions %v (%d pending), want %v (3 pending)", ex, pending, want)
	}
	ex[0] = append(ex[0], 9)
	l.answer(0, 3)
	if got := pendingSet(t, l); !reflect.DeepEqual(got, map[pairKey]bool{{0, 5}: true, {1, 2}: true, {2, 7}: true}) {
		t.Fatalf("growing the copy or answering changed the ledger wrongly: pending %v", got)
	}
	if !reflect.DeepEqual(ex[0], []TaskID{3, 5, 9}) {
		t.Fatalf("answering changed the round's copy: %v", ex[0])
	}
}

// ledgerModel is the reference the randomized history holds the ledger to:
// two sets and two counters.
type ledgerModel struct {
	out      map[pairKey]bool // accepted, answer outstanding
	answered map[pairKey]bool // every pair an answer was accepted for
	accepted int              // pairs ever accepted
	answers  int
}

// TestLedgerAgainstModel drives seeded random histories — rounds of arbitrary
// plans, solicited and unsolicited answers, checkpoint and restore into a
// fresh ledger — and after every step holds the ledger to the invariants the
// north star names: spent == pairs accepted, pending == accepted − answered,
// no pair accepted twice, every answer counted once.
func TestLedgerAgainstModel(t *testing.T) {
	const nW, nT = 5, 12
	for _, budget := range []int{-1, 40, 400} {
		rng := rand.New(rand.NewSource(int64(1000 + budget)))
		l := newTestLedger(budget)
		m := ledgerModel{out: map[pairKey]bool{}, answered: map[pairKey]bool{}}
		randomPair := func() pairKey { return pairKey{WorkerID(rng.Intn(nW)), TaskID(rng.Intn(nT))} }
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // a round: up to three workers, up to four picks each, repeats and stale picks allowed
				plans := map[WorkerID][]TaskID{}
				for i := rng.Intn(3) + 1; i > 0; i-- {
					w := WorkerID(rng.Intn(nW))
					for j := rng.Intn(4) + 1; j > 0; j-- {
						plans[w] = append(plans[w], TaskID(rng.Intn(nT)))
					}
				}
				before := l.budget
				accepted, conflicts, exhausted := l.commit(plans, func(w WorkerID, t TaskID) bool { return m.answered[pairKey{w, t}] })
				n := 0
				for w, ts := range accepted {
					for _, task := range ts {
						pk := pairKey{w, task}
						if m.out[pk] || m.answered[pk] {
							t.Fatalf("budget %d step %d: pair %v accepted twice (or after its answer)", budget, step, pk)
						}
						m.out[pk] = true
						n++
					}
				}
				m.accepted += n
				if before >= 0 && before-l.budget != n {
					t.Fatalf("budget %d step %d: round accepted %d pairs and spent %d", budget, step, n, before-l.budget)
				}
				for _, pk := range conflicts {
					if !m.out[pk] && !m.answered[pk] {
						t.Fatalf("budget %d step %d: %v reported in conflict, but is neither out nor answered", budget, step, pk)
					}
				}
				if exhausted && l.budget != 0 {
					t.Fatalf("budget %d step %d: exhausted with %d units left", budget, step, l.budget)
				}
			case op < 7: // the answer to a pair that is out
				for pk := range m.out {
					l.answer(pk.w, pk.t)
					delete(m.out, pk)
					m.answered[pk] = true
					m.answers++
					break
				}
			case op < 9: // an unsolicited answer (the engine refuses a pair's second answer before the ledger hears of it)
				if pk := randomPair(); !m.out[pk] && !m.answered[pk] {
					l.answer(pk.w, pk.t)
					m.answered[pk] = true
					m.answers++
				}
			default: // checkpoint, restore into a fresh ledger, carry on with that one
				sv := snapshot.ServiceState{Tasks: make([]snapshot.Task, nT), Workers: make([]snapshot.Worker, nW)}
				l.capture(&sv)
				fresh := newTestLedger(7)
				if err := fresh.apply(&sv, int(l.answered())); err != nil {
					t.Fatalf("budget %d step %d: %v", budget, step, err)
				}
				again := sv
				fresh.capture(&again)
				if !reflect.DeepEqual(sv, again) {
					t.Fatalf("budget %d step %d: capture after apply differs:\n%+v\n%+v", budget, step, sv, again)
				}
				l = fresh
			}
			if budget >= 0 && budget-l.budget != m.accepted {
				t.Fatalf("budget %d step %d: spent %d, accepted %d pairs", budget, step, budget-l.budget, m.accepted)
			}
			if budget < 0 && l.budget != -1 {
				t.Fatalf("budget %d step %d: unlimited budget became %d", budget, step, l.budget)
			}
			if got := pendingSet(t, l); !reflect.DeepEqual(got, m.out) {
				t.Fatalf("budget %d step %d: pending %v, model has %v out", budget, step, got, m.out)
			}
			if got := int(l.answered()); got != m.answers {
				t.Fatalf("budget %d step %d: %d answers counted, %d accepted", budget, step, got, m.answers)
			}
			if l.exhausted() != (l.budget == 0) {
				t.Fatalf("budget %d step %d: exhausted() = %t with %d left", budget, step, l.exhausted(), l.budget)
			}
		}
		if m.accepted == 0 || m.answers == 0 || (budget == 40 && l.budget != 0) {
			t.Fatalf("budget %d: history too thin: %d accepted, %d answers, %d left", budget, m.accepted, m.answers, l.budget)
		}
	}
}

// TestRestoreAdmittedOnlyOnEmptyService pins the precondition that stands
// where the restore-epoch guards stood: Restore replaces the ID tables and
// the engine, and is admitted only while there is nothing to replace. A plan
// starts from a resolved worker, a fit and a migration from an engine, so
// none of them can be in flight over state a restore swaps out — a service
// with a single task or worker already refuses, and one with a fit in flight
// and lock-free rounds beside it refuses without a trace.
func TestRestoreAdmittedOnlyOnEmptyService(t *testing.T) {
	ctx := context.Background()
	opts := func() []ServiceOption {
		return append(bgOpts(), WithModelConfig(slowFitConfig(1500)), WithTasksPerRequest(2))
	}
	// What every attempt offers is a valid snapshot for these options, so
	// only the admission test can refuse it.
	donor, err := NewService(opts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer donor.Close(ctx)
	feedPairs(t, donor, registerGridWorld(t, donor, 20, 4), 3, 0, 4, 0, 5)
	var offered bytes.Buffer
	if err := donor.Checkpoint(&offered); err != nil {
		t.Fatal(err)
	}
	refused := func(t *testing.T, svc *Service) {
		t.Helper()
		err := svc.Restore(bytes.NewReader(offered.Bytes()))
		if err == nil || !strings.Contains(err.Error(), "already has state") {
			t.Fatalf("Restore returned %v, want a refusal", err)
		}
	}

	registrations := map[string]func(*Service) error{
		"one task, no engine": func(s *Service) error {
			return s.AddTask(tid(0), TaskSpec{Location: Pt(1, 1), Labels: []string{"a"}})
		},
		"one worker, no engine": func(s *Service) error {
			return s.AddWorker(wid(0), WorkerSpec{Locations: []Point{Pt(1, 1)}})
		},
	}
	for name, register := range registrations {
		t.Run(name, func(t *testing.T) {
			svc, err := NewService(opts()...)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close(ctx)
			if err := register(svc); err != nil {
				t.Fatal(err)
			}
			before := svc.Health()
			refused(t, svc)
			if after := svc.Health(); after != before || svc.FitStats().Generation != 0 {
				t.Fatalf("refused restore changed the service: %+v -> %+v", before, after)
			}
		})
	}

	t.Run("fit in flight beside lock-free rounds", func(t *testing.T) {
		svc, err := NewService(opts()...)
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close(ctx)
		truth := registerGridWorld(t, svc, 120, 8)
		feedPairs(t, svc, truth, 41, 0, 8, 0, 40)
		if err := svc.WaitFresh(ctx); err != nil {
			t.Fatal(err)
		}
		feedPairs(t, svc, truth, 43, 0, 8, 40, 80)
		fitted := make(chan error, 1)
		go func() { fitted <- svc.WaitFresh(ctx) }()
		for deadline := time.Now().Add(10 * time.Second); !svc.FitStats().InFlight; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("fit never started")
			}
		}
		// Lock-free rounds, each answered in full, beside the fit and the attempts.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				for {
					select {
					case <-stop:
						return
					default:
					}
					got, err := svc.RequestTasks(ctx, []string{wid(g)})
					if err != nil {
						t.Errorf("worker %d: %v", g, err)
						return
					}
					for _, task := range got[wid(g)] {
						ti, _ := parseTid(task)
						if err := svc.SubmitAnswer(wid(g), task, answer(WorkerID(g), TaskID(ti), truth, 0.9, rng).Selected); err != nil {
							t.Errorf("worker %d, %s: %v", g, task, err)
							return
						}
					}
				}
			}(g)
		}
		duringFit := 0
		for i := 0; i < 50 || svc.PlanStats().LockFreePlans == 0; i++ {
			inFlight := svc.FitStats().InFlight
			refused(t, svc)
			if inFlight && svc.FitStats().InFlight {
				duringFit++
			}
		}
		close(stop)
		wg.Wait()
		if err := <-fitted; err != nil {
			t.Fatal(err)
		}
		if duringFit == 0 {
			t.Fatal("no restore was attempted while the fit was in flight")
		}
		if t.Failed() {
			return
		}

		// Settled, one more attempt must leave no trace: counters, generation,
		// the whole durable state, and the plan the next round gets — which
		// is the plan a service restored from that state gives.
		if err := svc.WaitFresh(ctx); err != nil {
			t.Fatal(err)
		}
		health, gen := svc.Health(), svc.FitStats().Generation
		var before, after bytes.Buffer
		if err := svc.Checkpoint(&before); err != nil {
			t.Fatal(err)
		}
		refused(t, svc)
		if err := svc.Checkpoint(&after); err != nil {
			t.Fatal(err)
		}
		if h, g := svc.Health(), svc.FitStats().Generation; h != health || g != gen || !bytes.Equal(before.Bytes(), after.Bytes()) {
			t.Fatalf("refused restore changed the service: %+v generation %d -> %+v generation %d (checkpoints equal: %t)",
				health, gen, h, g, bytes.Equal(before.Bytes(), after.Bytes()))
		}
		twin, err := NewService(opts()...)
		if err != nil {
			t.Fatal(err)
		}
		defer twin.Close(ctx)
		if err := twin.Restore(&before); err != nil {
			t.Fatal(err)
		}
		everyone := svc.WorkerIDs()
		want, err := twin.RequestTasks(ctx, everyone)
		if err != nil {
			t.Fatal(err)
		}
		got, err := svc.RequestTasks(ctx, everyone)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || len(got) == 0 {
			t.Fatalf("next plan after a refused restore\ngot  %v\nwant %v", got, want)
		}
	})
}
