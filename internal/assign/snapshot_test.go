package assign

import (
	"math/rand"
	"reflect"
	"testing"

	"poilabel/internal/core"
	"poilabel/internal/geo"
	"poilabel/internal/model"
)

// TestSnapshotViewMatchesModel pins the View contract: a Snapshot must
// answer every View query bit-identically to the live model it captured —
// distances, answer-log lookups, and per-row counts — because the planner's
// float arithmetic ties out only if its inputs are identical.
func TestSnapshotViewMatchesModel(t *testing.T) {
	m := smallWorld(t, 12, 4, 21)
	rng := rand.New(rand.NewSource(22))
	warm(t, m, [][2]int{{0, 0}, {0, 5}, {1, 3}, {2, 7}, {3, 1}, {3, 2}}, rng)
	snap := SnapshotModel(m)

	if got, want := len(snap.Tasks()), len(m.Tasks()); got != want {
		t.Fatalf("snapshot has %d tasks, model %d", got, want)
	}
	if got, want := len(snap.Workers()), len(m.Workers()); got != want {
		t.Fatalf("snapshot has %d workers, model %d", got, want)
	}
	if got, want := snap.NumAnswers(), m.Answers().Len(); got != want {
		t.Fatalf("snapshot has %d answers, model %d", got, want)
	}
	for w := 0; w < len(m.Workers()); w++ {
		wid := model.WorkerID(w)
		if got, want := snap.WorkerAnswerCount(wid), m.WorkerAnswerCount(wid); got != want {
			t.Fatalf("worker %d answer count: snapshot %d, model %d", w, got, want)
		}
		for tk := 0; tk < len(m.Tasks()); tk++ {
			tid := model.TaskID(tk)
			if got, want := snap.HasAnswer(wid, tid), m.HasAnswer(wid, tid); got != want {
				t.Fatalf("HasAnswer(%d,%d): snapshot %v, model %v", w, tk, got, want)
			}
			if got, want := snap.Distance(wid, tid), m.Distance(wid, tid); got != want {
				t.Fatalf("Distance(%d,%d): snapshot %v, model %v", w, tk, got, want)
			}
		}
	}
	for tk := 0; tk < len(m.Tasks()); tk++ {
		tid := model.TaskID(tk)
		if got, want := snap.TaskAnswerCount(tid), m.TaskAnswerCount(tid); got != want {
			t.Fatalf("task %d answer count: snapshot %d, model %d", tk, got, want)
		}
	}
}

// TestSnapshotPlanIdentical pins the tentpole's exactness claim: planning
// against a Snapshot produces byte-identical assignments to planning against
// the live model, with and without exclusions.
func TestSnapshotPlanIdentical(t *testing.T) {
	m := smallWorld(t, 20, 5, 31)
	rng := rand.New(rand.NewSource(32))
	warm(t, m, [][2]int{{0, 0}, {0, 1}, {1, 3}, {2, 9}, {4, 14}, {4, 15}, {3, 8}}, rng)
	snap := SnapshotModel(m)
	workers := allWorkers(5)
	ex := listsWhere(workers, 20, func(w model.WorkerID, tk model.TaskID) bool {
		return (int(w)+int(tk))%5 == 0
	})

	for _, tc := range []struct {
		name string
		plan func(v View) Assignment
	}{
		{"accopt", func(v View) Assignment { return AccOpt{}.AssignExcluding(v, workers, 3, nil) }},
		{"accopt-excluding", func(v View) Assignment { return AccOpt{}.AssignExcluding(v, workers, 3, ex) }},
		{"planner", func(v View) Assignment { return NewPlanner().AssignExcluding(v, workers, 4, ex) }},
	} {
		live := tc.plan(m)
		snapped := tc.plan(snap)
		if !reflect.DeepEqual(live, snapped) {
			t.Errorf("%s: snapshot plan %v differs from live plan %v", tc.name, snapped, live)
		}
	}
}

// TestCandidatesMatchPlanner pins the candidate index's exactness: for any
// prefix length, exclusion set, and h, PlanWorker must return exactly what a
// full single-worker planner run would, because a truncated prefix that runs
// dry forces a rebuild long enough to hold the true top h.
func TestCandidatesMatchPlanner(t *testing.T) {
	m := smallWorld(t, 30, 3, 41)
	rng := rand.New(rand.NewSource(42))
	warm(t, m, [][2]int{{0, 2}, {0, 11}, {1, 5}, {2, 20}, {2, 21}, {2, 22}}, rng)
	snap := SnapshotModel(m)
	pl := NewPlanner()

	for _, k := range []int{1, 2, 3, 64} {
		c := NewCandidates(k)
		for _, h := range []int{1, 2, 5, 40} {
			for w := 0; w < 3; w++ {
				wid := model.WorkerID(w)
				// A skewed exclusion list exercises prefix shortfalls at small K.
				ex := TaskLists{wid: listWhere(30, func(st model.TaskID) bool { return int(st)%3 == w })}
				want := pl.AssignExcluding(snap, []model.WorkerID{wid}, h, ex)[wid]
				got, _ := c.PlanWorker(snap, 1, wid, h, ex)
				if len(want) == 0 {
					if len(got) != 0 {
						t.Fatalf("k=%d h=%d w=%d: got %v, want empty", k, h, w, got)
					}
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("k=%d h=%d w=%d: candidates %v, planner %v", k, h, w, got, want)
				}
			}
		}
	}
}

// TestCandidatesGenerationInvalidation verifies that a new generation drops
// every cached list: after more answers and a refit, a query under the new
// generation must reflect the new snapshot, not the old lists.
func TestCandidatesGenerationInvalidation(t *testing.T) {
	m := smallWorld(t, 15, 2, 51)
	rng := rand.New(rand.NewSource(52))
	warm(t, m, [][2]int{{0, 0}, {1, 3}}, rng)
	c := NewCandidates(8)
	pl := NewPlanner()

	snap1 := SnapshotModel(m)
	got1, built1 := c.PlanWorker(snap1, 1, 0, 3, nil)
	if !built1 {
		t.Fatal("first query should build the list")
	}
	want1 := pl.AssignExcluding(snap1, []model.WorkerID{0}, 3, nil)[0]
	if !reflect.DeepEqual(got1, want1) {
		t.Fatalf("gen 1: candidates %v, planner %v", got1, want1)
	}
	if _, built := c.PlanWorker(snap1, 1, 0, 3, nil); built {
		t.Fatal("second query at the same generation should hit the cache")
	}

	// Answer the worker's top pick and refit: the old list is now wrong.
	warm(t, m, [][2]int{{0, int(got1[0])}, {0, 7}, {1, 9}}, rng)
	snap2 := SnapshotModel(m)
	got2, built2 := c.PlanWorker(snap2, 2, 0, 3, nil)
	if !built2 {
		t.Fatal("query under a new generation should rebuild")
	}
	want2 := pl.AssignExcluding(snap2, []model.WorkerID{0}, 3, nil)[0]
	if !reflect.DeepEqual(got2, want2) {
		t.Fatalf("gen 2: candidates %v, planner %v", got2, want2)
	}
	st := c.Stats()
	if st.Builds < 2 || st.Hits < 1 {
		t.Fatalf("stats = %+v, want >=2 builds and >=1 hit", st)
	}
}

// TestCandidatePrefixIsSortedRowPrefix holds builds to the planner on a row
// full of exact ties (every location carries three tasks): the full row is
// the single-worker greedy's pick order, ties to the lower task, and the
// bounded-heap selection keeps its first k entries whatever k cuts through a
// tie.
func TestCandidatePrefixIsSortedRowPrefix(t *testing.T) {
	var tasks []model.Task
	var pts []geo.Point
	for i := 0; i < 45; i++ {
		loc := geo.Pt(float64(i/3), float64((i/3)%4))
		tasks = append(tasks, model.Task{ID: model.TaskID(i), Location: loc, Labels: make([]string, 3)})
		pts = append(pts, loc)
	}
	workers := []model.Worker{{ID: 0, Locations: []geo.Point{geo.Pt(6.5, 1)}}}
	pts = append(pts, workers[0].Locations...)
	m, err := core.NewModel(tasks, workers, geo.NormalizerFor(pts), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap := SnapshotModel(m)
	c := NewCandidates(0)
	var full candRow
	c.build(&full, snap, 0, -1)
	if !full.full || len(full.entries) != len(tasks) {
		t.Fatalf("untruncated build kept %d of %d tasks (full %v)", len(full.entries), len(tasks), full.full)
	}
	greedy := NewPlanner().Assign(snap, []model.WorkerID{0}, len(tasks))[0]
	for i, e := range full.entries {
		if e.t != greedy[i] {
			t.Fatalf("row position %d holds task %d, the greedy picks %d", i, e.t, greedy[i])
		}
	}
	ties := 0
	for i := 1; i < len(full.entries); i++ {
		if full.entries[i].d == full.entries[i-1].d {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("test setup: the row has no ties")
	}
	for _, k := range []int{1, 2, 3, 4, 5, 7, 16, 44, 45, 64} {
		var r candRow
		c.build(&r, snap, 0, k)
		want := full.entries[:min(k, len(full.entries))]
		if !reflect.DeepEqual(r.entries, want) || r.full != (k >= len(tasks)) {
			t.Fatalf("k=%d: prefix %v (full %v), want %v", k, r.entries, r.full, want)
		}
	}
}
