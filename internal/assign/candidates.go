package assign

import (
	"slices"
	"sync"
	"sync/atomic"

	"poilabel/internal/model"
)

// DefaultCandidatePrefix is the default per-worker candidate prefix length K
// used by NewCandidates when the caller passes k <= 0.
const DefaultCandidatePrefix = 64

// Candidates maintains per-worker top-K candidate lists over a published
// Snapshot so the single-worker planning hot path rescans O(K) entries
// instead of the full O(|T|) improvement row on every request.
//
// The exactness argument: within one snapshot generation, a worker's
// improvement row is static — parameters, coverage, and distances are all
// frozen at capture, and the single-worker greedy's successive row maxima
// are exactly the row sorted by (improvement desc, task asc). Exclusions
// layered on top (pending pairs, answers since capture, conflicted commits)
// are monotone: a pair that leaves the assignable set never returns within
// the generation. So the worker's true top h under any exclusion set is
// always a sub-sequence of the sorted full row, and a stored K-prefix
// answers the query exactly whenever h valid entries survive in it.
// PlanWorker rebuilds a longer prefix — h plus the exclusion count, at least
// double the last — the moment the prefix cannot prove completeness.
//
// Invalidation is wholesale by generation: lists carry the generation they
// were built from and are dropped when a different generation is queried
// (new parameters invalidate every improvement value). There is no
// per-answer invalidation to get wrong — within a generation answers only
// grow the exclusion set, which the scan applies on the fly.
//
// Candidates is safe for concurrent use; builds for distinct workers run in
// parallel, queries for one worker serialize on that worker's list.
type Candidates struct {
	k int
	// scratch recycles the 2·|T| agreement and improvement rows a build
	// fills, so builds under publication churn do not allocate them.
	scratch sync.Pool

	mu   sync.Mutex
	gen  uint64
	rows map[model.WorkerID]*candRow
	// last holds the workers that had a list in the previous generation —
	// the recently active cohort Warm pre-builds for after a publication.
	last []model.WorkerID

	builds   atomic.Uint64 // full-row builds (first touch per worker per generation)
	rebuilds atomic.Uint64 // prefix shortfalls that forced a longer rebuild
	hits     atomic.Uint64 // queries answered from an already-built list
}

// candRow is one worker's candidate list: the row's sorted prefix plus
// whether it is the whole assignable row (full) or a truncated top-K.
type candRow struct {
	mu      sync.Mutex
	built   bool
	full    bool
	entries []candEntry
}

// candEntry is one assignable task with its improvement value at build time.
type candEntry struct {
	t model.TaskID
	d float64
}

// NewCandidates returns an empty candidate index keeping prefixes of k
// entries per worker (k <= 0 means DefaultCandidatePrefix).
func NewCandidates(k int) *Candidates {
	if k <= 0 {
		k = DefaultCandidatePrefix
	}
	return &Candidates{k: k, rows: make(map[model.WorkerID]*candRow)}
}

// Prefix returns the configured prefix length K.
func (c *Candidates) Prefix() int { return c.k }

// roll advances the index to generation gen, dropping every cached list and
// remembering which workers had one (the cohort Warm rebuilds eagerly). The
// caller must hold c.mu. Generations only move forward (publications are
// serialized and monotonic), so a stale caller is a no-op. An empty
// generation — publications with no requests in between — keeps the
// previous cohort rather than forgetting it.
func (c *Candidates) roll(gen uint64) {
	if gen <= c.gen {
		return
	}
	if len(c.rows) > 0 {
		c.last = c.last[:0]
		for w := range c.rows {
			c.last = append(c.last, w)
		}
	}
	c.gen = gen
	c.rows = make(map[model.WorkerID]*candRow, len(c.rows))
}

// row returns worker w's list for generation gen, dropping every list when
// the generation moved.
func (c *Candidates) row(gen uint64, w model.WorkerID) *candRow {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.roll(gen)
	r := c.rows[w]
	if r == nil {
		r = &candRow{}
		c.rows[w] = r
	}
	return r
}

// Warm pre-builds generation gen's candidate lists for the workers that had
// one in the previous generation — the recently active request cohort — so
// their first plan after a publication scans a warm list instead of paying
// the O(|T| log K) build on the request path. The serving layer calls it
// from the background fit goroutine right after publishing a generation;
// concurrent PlanWorker calls are safe (whoever reaches a row first builds
// it, the other finds it built).
func (c *Candidates) Warm(snap *Snapshot, gen uint64) {
	c.mu.Lock()
	c.roll(gen)
	if c.gen != gen {
		// A newer generation already rolled the index; warming this one
		// would build stale lists. Its own Warm call is on the way.
		c.mu.Unlock()
		return
	}
	cohort := append([]model.WorkerID(nil), c.last...)
	c.mu.Unlock()
	for _, w := range cohort {
		if int(w) >= len(snap.Workers()) {
			continue
		}
		c.mu.Lock()
		if c.gen != gen {
			c.mu.Unlock()
			return
		}
		r := c.rows[w]
		if r == nil {
			r = &candRow{}
			c.rows[w] = r
		}
		c.mu.Unlock()
		r.mu.Lock()
		if !r.built {
			c.build(r, snap, w, c.k)
			c.builds.Add(1)
		}
		r.mu.Unlock()
	}
}

// PlanWorker returns the top-h assignable tasks for worker w against snap —
// byte-identical to Planner.AssignExcluding(snap, []WorkerID{w}, h, ex)[w]
// — consulting (and lazily building) the worker's candidate list for
// generation gen. ex carries the caller's live exclusions (pending pairs,
// answers since capture, conflicted picks), read once per call; pairs
// answered in the snapshot are excluded structurally at build. built reports
// whether this call paid for a row build rather than scanning an existing
// list.
//
// The worker index must be within snap's worker set; gen must identify snap
// one-to-one (the serving layer uses the published generation counter).
func (c *Candidates) PlanWorker(snap *Snapshot, gen uint64, w model.WorkerID, h int, ex Exclusions) (picks []model.TaskID, built bool) {
	if h <= 0 {
		return nil, false
	}
	var excluded []model.TaskID
	if ex != nil {
		excluded = ex.ExcludedTasks(w, nil)
	}
	r := c.row(gen, w)
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.built {
		c.build(r, snap, w, c.k)
		c.builds.Add(1)
		built = true
	}
	picks = scanRow(r.entries, h, excluded)
	if len(picks) < h && !r.full {
		// The truncated prefix ran dry before h valid entries. The
		// exclusions can hide at most len(excluded) entries of any prefix,
		// so one of h + len(excluded) entries holds the true top h, or is
		// the whole row and proves there are fewer. Doubling at least keeps
		// a worker's rebuilds within a generation logarithmic.
		c.build(r, snap, w, max(h+len(excluded), 2*len(r.entries)))
		c.rebuilds.Add(1)
		built = true
		picks = scanRow(r.entries, h, excluded)
	}
	if !built {
		c.hits.Add(1)
	}
	return picks, built
}

// scanRow collects the first h entries not in excluded, in stored order.
func scanRow(entries []candEntry, h int, excluded []model.TaskID) []model.TaskID {
	picks := make([]model.TaskID, 0, h)
	for i := range entries {
		t := entries[i].t
		if slices.Contains(excluded, t) {
			continue
		}
		picks = append(picks, t)
		if len(picks) == h {
			break
		}
	}
	return picks
}

// build fills r with worker w's assignable row against snap, sorted by
// (improvement desc, task asc), truncated to k entries (k < 0 keeps the
// whole row). The improvement values come from the same row kernel as the
// Planner's matrix init, so the sorted order ties out exactly. A truncated
// prefix is selected through a bounded heap whose root is the entry that
// sorts last, O(|T| log k) instead of sorting the whole row.
func (c *Candidates) build(r *candRow, snap *Snapshot, w model.WorkerID, k int) {
	nT := len(snap.tasks)
	buf, _ := c.scratch.Get().(*[]float64)
	if buf == nil || cap(*buf) < 2*nT {
		buf = new([]float64)
		*buf = make([]float64, 2*nT)
	}
	rows := (*buf)[:2*nT]
	delta := rows[nT:]
	newRowKernel(snap, snap.params, snap.taskN, snap.taskU).fill(w, nil, rows[:nT], delta, nil)
	entries, assignable := r.entries[:0], 0
	for t, d := range delta {
		if d == unavailable {
			continue
		}
		assignable++
		e := candEntry{t: model.TaskID(t), d: d}
		switch {
		case k < 0 || len(entries) < k:
			entries = append(entries, e)
			if len(entries) == k {
				for i := k/2 - 1; i >= 0; i-- {
					siftLast(entries, i)
				}
			}
		case e.before(entries[0]):
			entries[0] = e
			siftLast(entries, 0)
		}
	}
	c.scratch.Put(buf)
	slices.SortFunc(entries, func(a, b candEntry) int {
		switch {
		case a.before(b):
			return -1
		case b.before(a):
			return 1
		}
		return 0
	})
	r.full = k < 0 || assignable <= k
	r.entries = entries
	r.built = true
}

// before reports whether e sorts ahead of o in a row: larger improvement
// first, ties to the lower task index.
func (e candEntry) before(o candEntry) bool {
	return e.d > o.d || (e.d == o.d && e.t < o.t)
}

// siftLast restores, below index i, the heap order that keeps the entry
// sorting last at the root of h.
func siftLast(h []candEntry, i int) {
	for {
		last, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && h[last].before(h[l]) {
			last = l
		}
		if r < len(h) && h[last].before(h[r]) {
			last = r
		}
		if last == i {
			return
		}
		h[i], h[last] = h[last], h[i]
		i = last
	}
}

// CandidateStats is a point-in-time view of the index's counters.
type CandidateStats struct {
	// Builds counts full-row builds: the first query per (worker,
	// generation) pays one.
	Builds uint64 `json:"builds"`
	// Rebuilds counts prefix shortfalls that forced a longer rebuild.
	Rebuilds uint64 `json:"rebuilds"`
	// Hits counts queries served entirely from an existing list.
	Hits uint64 `json:"hits"`
}

// Stats returns the index's counters.
func (c *Candidates) Stats() CandidateStats {
	return CandidateStats{
		Builds:   c.builds.Load(),
		Rebuilds: c.rebuilds.Load(),
		Hits:     c.hits.Load(),
	}
}
