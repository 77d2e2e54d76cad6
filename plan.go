package poilabel

import (
	"context"
	"sync/atomic"
	"time"

	"poilabel/internal/assign"
	"poilabel/internal/trace"
)

// maxPlanRetries bounds the optimistic-commit retry loop. Each retry
// permanently excludes the pairs that conflicted, so the loop terminates on
// its own for any finite task set; the cap is a safety valve against
// pathological contention, after which the worker simply receives the picks
// committed so far.
const maxPlanRetries = 8

// planCounters is the Service's lock-free planning instrumentation, updated
// atomically so readers never need the service lock.
type planCounters struct {
	lockFree  atomic.Uint64 // assignment rounds planned off the write lock
	locked    atomic.Uint64 // assignment rounds planned under the write lock
	committed atomic.Uint64 // picks accepted at commit
	conflicts atomic.Uint64 // picks rejected at commit (pair taken since planning)
	retries   atomic.Uint64 // replan rounds after a conflicted commit
	lastNanos atomic.Int64  // wall-clock of the last lock-free plan+commit
}

// PlanPipelineStats is a point-in-time view of the assignment planning path,
// the backing state for the poilabel_plan_* metrics and the /healthz plan
// section. Counters cover the service's lifetime.
type PlanPipelineStats struct {
	// Enabled reports whether the lock-free planning path is configured
	// (a fit scheduler with the AccOpt assigner, on any engine shape).
	// Individual rounds can still fall back to the locked path —
	// e.g. for workers registered after the last publication.
	Enabled bool `json:"enabled"`
	// LockFreePlans counts assignment rounds planned against a published
	// snapshot, off the write lock.
	LockFreePlans uint64 `json:"lock_free_plans"`
	// LockedPlans counts assignment rounds planned under the write lock
	// (the only mode for non-planner assigners and services without a fit
	// scheduler).
	LockedPlans uint64 `json:"locked_plans"`
	// CommittedPicks counts (worker, task) pairs accepted at commit.
	CommittedPicks uint64 `json:"committed_picks"`
	// Conflicts counts picks rejected at commit because the pair was
	// answered or handed out between planning and commit.
	Conflicts uint64 `json:"conflicts"`
	// Retries counts replan rounds run to replace conflicted picks.
	Retries uint64 `json:"retries"`
	// ConflictRate is Conflicts / (Conflicts + CommittedPicks), the
	// fraction of planned picks that lost their optimistic race.
	ConflictRate float64 `json:"conflict_rate"`
	// LastPlanDuration is the wall-clock of the most recent lock-free
	// plan-and-commit round.
	LastPlanDuration time.Duration `json:"last_plan_duration"`
	// CandidatePrefix is the per-worker candidate prefix K the lock-free
	// planner caches per generation, assign.DefaultCandidatePrefix (0 when
	// the path is not configured).
	CandidatePrefix int `json:"candidate_prefix"`
	// Candidates holds the candidate index counters (zero value when the
	// path is not configured).
	Candidates assign.CandidateStats `json:"candidates"`
}

// PlanStats reports the assignment planning path's current state.
func (s *Service) PlanStats() PlanPipelineStats {
	st := PlanPipelineStats{
		Enabled:          s.planEnabled,
		LockFreePlans:    s.planStats.lockFree.Load(),
		LockedPlans:      s.planStats.locked.Load(),
		CommittedPicks:   s.planStats.committed.Load(),
		Conflicts:        s.planStats.conflicts.Load(),
		Retries:          s.planStats.retries.Load(),
		LastPlanDuration: time.Duration(s.planStats.lastNanos.Load()),
	}
	if total := st.Conflicts + st.CommittedPicks; total > 0 {
		st.ConflictRate = float64(st.Conflicts) / float64(total)
	}
	if s.cands != nil {
		st.CandidatePrefix = s.cands.Prefix()
		st.Candidates = s.cands.Stats()
	}
	return st
}

// warmPlanCandidates pre-builds the recently active workers' candidate
// lists against the just-published generation so their next request scans a
// warm list instead of paying the O(|T| log K) build on the request path.
// The fit pipeline calls it right after a publication, from the background
// goroutine with no lock held.
func (s *Service) warmPlanCandidates() {
	// A generation carries a plan view only when lock-free planning is
	// configured, which is also when the candidate index exists.
	if pub := s.published.Load(); pub != nil && pub.plan != nil {
		s.cands.Warm(pub.plan, pub.gen)
	}
}

// planContext carries the state the lock-free path captures under the read
// lock: the generation to plan against, the requesting workers' live
// exclusions at capture time, and the ID tables for translating the result.
// exclude lists each requesting worker's pending tasks and those answered
// since the generation's snapshot, and grows by the pairs a commit found in
// conflict or took; pending is how many of the captured ones were pending —
// the round's dedup hits, the only pairs DedupHitsObserved counts.
type planContext struct {
	pub       *paramGen
	exclude   assign.TaskLists
	pending   int
	taskKeys  []string
	workerKey []string
	observer  Observer
}

// planWorkers plans h tasks per worker against the immutable snapshot, with
// no service lock held. Single-worker rounds go through the candidate index
// (the serving hot path: HTTP /assignments requests carry one worker);
// everything else runs a pooled planner over the snapshot.
func (s *Service) planWorkers(snap *assign.Snapshot, gen uint64, ws []WorkerID, h int, ex assign.Exclusions) map[WorkerID][]TaskID {
	if len(ws) == 1 {
		picks, _ := s.cands.PlanWorker(snap, gen, ws[0], h, ex)
		if len(picks) == 0 {
			return map[WorkerID][]TaskID{}
		}
		return map[WorkerID][]TaskID{ws[0]: picks}
	}
	pl := s.planPool.Get().(*assign.Planner)
	defer s.planPool.Put(pl)
	return pl.AssignExcluding(snap, ws, h, ex)
}

// requestTasksLockFree is RequestTasks' snapshot-planning path: plan against
// the published generation with no lock, then validate the picks in a short
// optimistic commit under the write lock, replanning conflicted picks with a
// grown exclusion set instead of starting over. See docs/ARCHITECTURE.md
// ("Life of an assignment").
func (s *Service) requestTasksLockFree(ctx context.Context, ws []WorkerID, pc *planContext) (map[string][]string, error) {
	start := time.Now()
	snap := pc.pub.plan

	accepted := make(map[WorkerID][]TaskID, len(ws))
	// The candidate-scan phase: plan every requested worker against the
	// immutable snapshot, no lock held.
	_, planSp := trace.Start(ctx, "plan.plan")
	plans := s.planWorkers(snap, pc.pub.gen, ws, s.cfg.h, pc.exclude)
	planSp.End()
	var totalConflicts, retries int64
	var exhausted bool
	for attempt := 0; len(plans) > 0; attempt++ {
		// The optimistic commit: every pick re-checked against the live
		// ledger and the live answer log.
		_, commitSp := trace.Start(ctx, "plan.commit")
		var took map[WorkerID][]TaskID
		var conflicts []pairKey
		s.mu.Lock()
		took, conflicts, exhausted = s.led.commit(plans, s.eng.view().HasAnswer)
		s.mu.Unlock()
		commitSp.AttrInt("conflicts", int64(len(conflicts)))
		commitSp.End()
		for w, ts := range took {
			accepted[w] = append(accepted[w], ts...)
			s.planStats.committed.Add(uint64(len(ts)))
		}
		s.planStats.conflicts.Add(uint64(len(conflicts)))
		totalConflicts += int64(len(conflicts))
		if len(conflicts) == 0 || exhausted || attempt >= maxPlanRetries {
			break
		}
		s.planStats.retries.Add(1)
		retries++
		// A conflicted pair is answered or pending on the live state; it can
		// never become assignable again, so excluding it permanently keeps
		// the retry loop shrinking. Pairs we committed ourselves entered the
		// live pending set after our capture — exclude them explicitly too so
		// replans cannot propose them twice.
		_, replanSp := trace.Start(ctx, "plan.replan")
		need := make(map[WorkerID]int, len(conflicts))
		for _, pk := range conflicts {
			pc.exclude[pk.w] = append(pc.exclude[pk.w], pk.t)
			need[pk.w]++
		}
		for w, ts := range took {
			pc.exclude[w] = append(pc.exclude[w], ts...)
		}
		plans = make(map[WorkerID][]TaskID, len(need))
		for w, n := range need {
			repl := s.planWorkers(snap, pc.pub.gen, []WorkerID{w}, n, pc.exclude)
			if ts := repl[w]; len(ts) > 0 {
				plans[w] = ts
			}
		}
		replanSp.End()
	}

	s.planStats.lockFree.Add(1)
	s.planStats.lastNanos.Store(time.Since(start).Nanoseconds())
	if pc.pending > 0 && pc.observer != nil {
		pc.observer.DedupHitsObserved(pc.pending)
	}
	out, committed := handOut(accepted, pc.workerKey, pc.taskKeys)
	sp := trace.FromContext(ctx) // the caller's span, nil-safe
	sp.AttrInt("committed", committed)
	sp.AttrInt("conflicts", totalConflicts)
	sp.AttrInt("retries", retries)
	if exhausted && committed == 0 {
		// The budget was spent between the read-locked check and the commit:
		// the same answer the locked planner's re-check gives.
		return nil, ErrBudgetExhausted
	}
	return out, nil
}
