package poilabel

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"poilabel/internal/assign"
	"poilabel/internal/snapshot"
)

// pairKey identifies one (worker, task) assignment by dense indices.
type pairKey struct {
	w WorkerID
	t TaskID
}

// ledger is the service's hand-out accounting: which pairs are out awaiting
// an answer, how much budget remains and how many answers were accepted. The
// three things that must never break while the protocol runs are properties
// of this type alone — no accepted answer is lost or counted twice (answer),
// no pair is out twice and no budget unit is spent twice (commit).
//
// pending, npending and budget are guarded by Service.mu; the answer count is
// written under its write lock and read lock-free. A ledger is never copied.
type ledger struct {
	// pending holds each worker's pairs out awaiting an answer, grouped by
	// worker so a round reads its requesting workers' lists whole; npending
	// counts the pairs.
	pending  map[WorkerID][]TaskID
	npending int
	budget   int // remaining units; negative means unlimited
	answers  atomic.Uint64
}

// exhausted reports that no budget unit is left to hand out.
func (l *ledger) exhausted() bool { return l.budget == 0 }

// isPending reports whether the pair is out awaiting its answer.
func (l *ledger) isPending(w WorkerID, t TaskID) bool { return slices.Contains(l.pending[w], t) }

// exclusions returns, for each distinct worker of ws, a copy of its pending
// tasks — what a round must leave out on top of the answered pairs — and how
// many pairs the copies hold: the round's dedup hits, counted once per round
// whatever the planner then probes.
func (l *ledger) exclusions(ws []WorkerID) (ex assign.TaskLists, pending int) {
	ex = make(assign.TaskLists, len(ws))
	for _, w := range ws {
		if _, dup := ex[w]; !dup {
			ex[w] = slices.Clone(l.pending[w])
			pending += len(ex[w])
		}
	}
	return ex, pending
}

// answered returns the number of answers accepted so far. Safe without the
// service lock.
func (l *ledger) answered() uint64 { return l.answers.Load() }

// answer records one accepted answer: the pair's pending mark, if it was
// handed out, clears, and the count grows. Budget is never refunded, and an
// unsolicited answer touches nothing but the count.
func (l *ledger) answer(w WorkerID, t TaskID) {
	if i := slices.Index(l.pending[w], t); i >= 0 {
		l.pending[w] = slices.Delete(l.pending[w], i, i+1)
		l.npending--
	}
	l.answers.Add(1)
}

// commit hands out planned picks: the one place a pair becomes pending and a
// budget unit is spent, the two always together. Picks are taken in
// assign.Trim order — round-robin over ascending worker IDs, one task per
// round — so a budget that runs out mid-round cuts the plan exactly where
// Trim would; exhausted reports that it did, with picks still waiting. A pick
// that is already pending, or that the answered probe reports (the caller's
// view of the answer log; nil where the planner already excluded answered
// pairs), spends nothing and is returned in conflicts.
func (l *ledger) commit(plans map[WorkerID][]TaskID, answered func(WorkerID, TaskID) bool) (accepted map[WorkerID][]TaskID, conflicts []pairKey, exhausted bool) {
	order := make([]WorkerID, 0, len(plans))
	for w := range plans {
		order = append(order, w)
	}
	slices.Sort(order)
	accepted = make(map[WorkerID][]TaskID, len(plans))
	for round, progressed := 0, true; progressed; round++ {
		progressed = false
		for _, w := range order {
			if round >= len(plans[w]) {
				continue
			}
			progressed = true
			if l.budget == 0 {
				return accepted, conflicts, true
			}
			pk := pairKey{w, plans[w][round]}
			if l.isPending(pk.w, pk.t) || (answered != nil && answered(pk.w, pk.t)) {
				conflicts = append(conflicts, pk)
				continue
			}
			l.pending[w] = append(l.pending[w], pk.t)
			l.npending++
			accepted[w] = append(accepted[w], pk.t)
			if l.budget > 0 {
				l.budget--
			}
		}
	}
	return accepted, conflicts, false
}

// capture writes the ledger's part of a checkpoint's service section: the
// pending pairs, sorted so the encoding is deterministic, and the remaining
// budget. The answer count is not recorded; a restore recounts the log.
func (l *ledger) capture(sv *snapshot.ServiceState) {
	sv.Budget, sv.Pending = l.budget, nil
	for w, ts := range l.pending {
		for _, t := range ts {
			sv.Pending = append(sv.Pending, snapshot.Pair{Worker: int(w), Task: int(t)})
		}
	}
	slices.SortFunc(sv.Pending, func(a, b snapshot.Pair) int {
		return cmp.Or(cmp.Compare(a.Worker, b.Worker), cmp.Compare(a.Task, b.Task))
	})
}

// apply is capture's inverse, with answers the restored log's length. It
// rejects what no capture writes — a pair outside the section's registered
// workers and tasks, a pair listed twice — and leaves the ledger untouched
// when it does.
func (l *ledger) apply(sv *snapshot.ServiceState, answers int) error {
	seen := make(map[pairKey]bool, len(sv.Pending))
	pending := make(map[WorkerID][]TaskID)
	for _, p := range sv.Pending {
		if p.Worker < 0 || p.Worker >= len(sv.Workers) || p.Task < 0 || p.Task >= len(sv.Tasks) {
			return fmt.Errorf("poilabel: corrupt snapshot: pending pair (%d, %d) out of range", p.Worker, p.Task)
		}
		pk := pairKey{WorkerID(p.Worker), TaskID(p.Task)}
		if seen[pk] {
			return fmt.Errorf("poilabel: corrupt snapshot: pending pair (%d, %d) listed twice", p.Worker, p.Task)
		}
		seen[pk] = true
		pending[pk.w] = append(pending[pk.w], pk.t)
	}
	l.pending, l.npending = pending, len(sv.Pending)
	l.budget = max(sv.Budget, -1)
	l.answers.Store(uint64(answers))
	return nil
}
