package assign

import (
	"math"
	"math/rand"
	"testing"

	"poilabel/internal/core"
	"poilabel/internal/geo"
	"poilabel/internal/model"
)

// smallWorld builds a compact model for assignment tests: nT tasks on a
// line, nW workers at chosen positions, a few warm answers.
func smallWorld(t *testing.T, nT, nW int, seed int64) *core.Model {
	t.Helper()
	return smallWorldCfg(t, nT, nW, seed, core.DefaultConfig())
}

// smallWorldCfg is smallWorld under a caller-chosen model configuration.
func smallWorldCfg(t *testing.T, nT, nW int, seed int64, cfg core.Config) *core.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var tasks []model.Task
	var pts []geo.Point
	for i := 0; i < nT; i++ {
		loc := geo.Pt(float64(i), rng.Float64())
		tasks = append(tasks, model.Task{ID: model.TaskID(i), Location: loc, Labels: make([]string, 3)})
		pts = append(pts, loc)
	}
	var workers []model.Worker
	for i := 0; i < nW; i++ {
		loc := geo.Pt(rng.Float64()*float64(nT), rng.Float64())
		workers = append(workers, model.Worker{ID: model.WorkerID(i), Locations: []geo.Point{loc}})
		pts = append(pts, loc)
	}
	m, err := core.NewModel(tasks, workers, geo.NormalizerFor(pts), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func warm(t *testing.T, m *core.Model, pairs [][2]int, rng *rand.Rand) {
	t.Helper()
	for _, p := range pairs {
		sel := make([]bool, 3)
		for k := range sel {
			sel[k] = rng.Intn(2) == 0
		}
		if err := m.Observe(model.Answer{Worker: model.WorkerID(p[0]), Task: model.TaskID(p[1]), Selected: sel}); err != nil {
			t.Fatal(err)
		}
	}
	m.Fit()
}

func allWorkers(n int) []model.WorkerID {
	out := make([]model.WorkerID, n)
	for i := range out {
		out[i] = model.WorkerID(i)
	}
	return out
}

// checkAssignment verifies structural invariants every assigner must hold.
func checkAssignment(t *testing.T, m *core.Model, a Assignment, workers []model.WorkerID, h int) {
	t.Helper()
	answers := m.Answers()
	for _, w := range workers {
		ts := a[w]
		if len(ts) > h {
			t.Fatalf("worker %d got %d tasks, cap %d", w, len(ts), h)
		}
		seen := make(map[model.TaskID]bool)
		for _, tid := range ts {
			if seen[tid] {
				t.Fatalf("worker %d assigned task %d twice", w, tid)
			}
			seen[tid] = true
			if answers.Has(w, tid) {
				t.Fatalf("worker %d reassigned already-answered task %d", w, tid)
			}
			if int(tid) < 0 || int(tid) >= len(m.Tasks()) {
				t.Fatalf("assigned unknown task %d", tid)
			}
		}
	}
}

func TestRandomAssignInvariants(t *testing.T) {
	m := smallWorld(t, 10, 4, 1)
	rng := rand.New(rand.NewSource(2))
	warm(t, m, [][2]int{{0, 0}, {0, 1}, {1, 3}}, rng)
	asg := Random{Rand: rand.New(rand.NewSource(3))}
	workers := allWorkers(4)
	a := asg.Assign(m, workers, 3)
	checkAssignment(t, m, a, workers, 3)
	for _, w := range workers {
		if len(a[w]) != 3 {
			t.Errorf("worker %d got %d tasks, want 3 (plenty available)", w, len(a[w]))
		}
	}
}

func TestRandomAssignRespectsDone(t *testing.T) {
	m := smallWorld(t, 3, 1, 4)
	rng := rand.New(rand.NewSource(5))
	warm(t, m, [][2]int{{0, 0}, {0, 1}}, rng)
	asg := Random{Rand: rand.New(rand.NewSource(6))}
	a := asg.Assign(m, []model.WorkerID{0}, 3)
	// Only task 2 remains for worker 0.
	if len(a[0]) != 1 || a[0][0] != 2 {
		t.Errorf("assignment = %v, want just task 2", a[0])
	}
}

func TestSpatialFirstPicksClosest(t *testing.T) {
	m := smallWorld(t, 10, 1, 7)
	// Place the worker exactly at task 4.
	m.Workers()[0].Locations = []geo.Point{m.Tasks()[4].Location}
	sf := NewSpatialFirst(m.Tasks())
	a := sf.Assign(m, []model.WorkerID{0}, 3)
	if len(a[0]) != 3 {
		t.Fatalf("SF assigned %d tasks, want 3", len(a[0]))
	}
	if a[0][0] != 4 {
		t.Errorf("SF first pick = %v, want the co-located task 4", a[0][0])
	}
	// All picks must be within the 3 nearest by construction: tasks 3..5.
	for _, tid := range a[0] {
		if tid < 3 || tid > 5 {
			t.Errorf("SF picked task %d, want one of 3..5", tid)
		}
	}
}

func TestSpatialFirstSkipsDone(t *testing.T) {
	m := smallWorld(t, 6, 1, 8)
	m.Workers()[0].Locations = []geo.Point{m.Tasks()[2].Location}
	rng := rand.New(rand.NewSource(9))
	warm(t, m, [][2]int{{0, 2}}, rng) // closest task already done
	sf := NewSpatialFirst(m.Tasks())
	a := sf.Assign(m, []model.WorkerID{0}, 2)
	for _, tid := range a[0] {
		if tid == 2 {
			t.Error("SF reassigned the already-done closest task")
		}
	}
	checkAssignment(t, m, a, []model.WorkerID{0}, 2)
}

func TestSpatialFirstMinOverLocations(t *testing.T) {
	m := smallWorld(t, 10, 1, 10)
	// Two locations: near task 0 and near task 9.
	m.Workers()[0].Locations = []geo.Point{m.Tasks()[0].Location, m.Tasks()[9].Location}
	sf := NewSpatialFirst(m.Tasks())
	a := sf.Assign(m, []model.WorkerID{0}, 2)
	got := map[model.TaskID]bool{}
	for _, tid := range a[0] {
		got[tid] = true
	}
	if !got[0] || !got[9] {
		t.Errorf("SF with two homes picked %v, want tasks 0 and 9", a[0])
	}
}

func TestAccOptInvariants(t *testing.T) {
	for _, tc := range []struct {
		nT, nW int
		seed   int64
		warm   [][2]int
	}{
		{12, 5, 11, [][2]int{{0, 0}, {1, 0}, {2, 3}, {0, 5}}},
		{8, 3, 30, [][2]int{{0, 1}, {1, 2}}},
	} {
		m := smallWorld(t, tc.nT, tc.nW, tc.seed)
		warm(t, m, tc.warm, rand.New(rand.NewSource(tc.seed+1)))
		workers := allWorkers(tc.nW)
		a := AccOpt{}.Assign(m, workers, 2)
		checkAssignment(t, m, a, workers, 2)
		if a.TotalTasks() != 2*tc.nW {
			t.Errorf("AccOpt assigned %d pairs to %d workers, want %d", a.TotalTasks(), tc.nW, 2*tc.nW)
		}
	}
}

func TestAccOptPrefersHighImpactPairs(t *testing.T) {
	// One task is uncertain (never answered), others are confidently
	// settled by many prior answers. The greedy must route the worker to
	// the uncertain task where the expected improvement is larger.
	m := smallWorld(t, 4, 3, 13)
	rng := rand.New(rand.NewSource(14))
	var pairs [][2]int
	for ti := 0; ti < 3; ti++ { // task 3 left unanswered
		for wi := 0; wi < 2; wi++ {
			pairs = append(pairs, [2]int{wi, ti})
		}
	}
	warm(t, m, pairs, rng)
	a := AccOpt{}.Assign(m, []model.WorkerID{2}, 1)
	if len(a[2]) != 1 || a[2][0] != 3 {
		t.Errorf("AccOpt assigned %v, want the unanswered task 3", a[2])
	}
}

func TestAccOptMatchesExhaustiveObjective(t *testing.T) {
	// On small instances the greedy must stay below the exhaustive optimum
	// of Definition 7 (sanity of Exhaustive) and within 90% of it (0.93+
	// measured on these seeds).
	for seed := int64(20); seed < 26; seed++ {
		m := smallWorld(t, 5, 2, seed)
		rng := rand.New(rand.NewSource(seed + 100))
		warm(t, m, [][2]int{{0, 0}, {1, 1}, {0, 2}, {1, 2}}, rng)
		workers := allWorkers(2)

		g := TotalDelta(m, AccOpt{}.Assign(m, workers, 2))
		b := TotalDelta(m, Exhaustive{}.Assign(m, workers, 2))
		if g > b+1e-9 {
			t.Fatalf("seed %d: the greedy (%v) beat exhaustive (%v): exhaustive is broken", seed, g, b)
		}
		if g < 0.9*b {
			t.Errorf("seed %d: greedy objective %v below 90%% of optimum %v", seed, g, b)
		}
	}
}

func TestAssignFewerTasksThanH(t *testing.T) {
	m := smallWorld(t, 2, 1, 32)
	rng := rand.New(rand.NewSource(33))
	warm(t, m, [][2]int{{0, 0}}, rng)
	// Only task 1 remains; h=3 must degrade gracefully.
	for _, asg := range []Assigner{AccOpt{}, NewSpatialFirst(m.Tasks()), Random{Rand: rand.New(rand.NewSource(34))}} {
		a := asg.Assign(m, []model.WorkerID{0}, 3)
		if len(a[0]) != 1 || a[0][0] != 1 {
			t.Errorf("%s assigned %v, want just task 1", asg.Name(), a[0])
		}
	}
}

// h <= 0 asks for nothing: every assigner of the package returns an empty
// Assignment, none hands out a task and none panics on a negative h.
func TestNonPositiveHAssignsNothing(t *testing.T) {
	m := smallWorld(t, 6, 2, 36)
	rng := rand.New(rand.NewSource(37))
	warm(t, m, [][2]int{{0, 0}, {1, 3}}, rng)
	workers := allWorkers(2)
	assigners := []Assigner{
		AccOpt{}, NewPlanner(),
		Random{Rand: rand.New(rand.NewSource(38))}, NewSpatialFirst(m.Tasks()),
		Exhaustive{},
	}
	for _, h := range []int{0, -1} {
		for _, asg := range assigners {
			for _, v := range []View{m, SnapshotModel(m)} {
				if a := asg.Assign(v, workers, h); len(a) != 0 {
					t.Errorf("%s.Assign(%T, h=%d) = %v, want an empty assignment", asg.Name(), v, h, a)
				}
			}
			if ex, ok := asg.(ExcludingAssigner); ok {
				if a := ex.AssignExcluding(m, workers, h, TaskLists{}); len(a) != 0 {
					t.Errorf("%s.AssignExcluding(h=%d) = %v, want an empty assignment", asg.Name(), h, a)
				}
			}
		}
		if picks, built := NewCandidates(0).PlanWorker(SnapshotModel(m), 1, 0, h, nil); len(picks) != 0 || built {
			t.Errorf("Candidates.PlanWorker(h=%d) = %v (built %v), want nothing", h, picks, built)
		}
	}
}

func TestExhaustiveSubsets(t *testing.T) {
	ts := []model.TaskID{1, 2, 3}
	got := subsets(ts, 2)
	if len(got) != 3 {
		t.Fatalf("subsets(3 choose 2) = %d combos, want 3", len(got))
	}
	if subsets(ts, 4) != nil {
		t.Error("subsets with h > n should be nil")
	}
	if len(subsets(ts, 3)) != 1 {
		t.Error("subsets(3 choose 3) should have exactly 1 combo")
	}
}

func TestTotalDeltaEmptyAssignment(t *testing.T) {
	m := smallWorld(t, 3, 2, 35)
	if d := TotalDelta(m, Assignment{}); d != 0 {
		t.Errorf("TotalDelta of empty assignment = %v, want 0", d)
	}
}

func TestAssignerNames(t *testing.T) {
	if (AccOpt{}).Name() != "AccOpt" {
		t.Error("AccOpt name")
	}
	if (Random{}).Name() != "Random" {
		t.Error("Random name")
	}
	if NewSpatialFirst([]model.Task{{Location: geo.Pt(0, 0)}}).Name() != "SF" {
		t.Error("SF name")
	}
	if (Exhaustive{}).Name() != "Exhaustive" {
		t.Error("Exhaustive name")
	}
}

// TotalDelta takes workers and sums tasks in ascending order, so its last
// bits do not depend on map iteration order: repeated calls on one
// assignment agree bit for bit.
func TestTotalDeltaDeterministic(t *testing.T) {
	m := regressionWorld(t, 200, 8, 61)
	a := AccOpt{}.Assign(m, allWorkers(8), 6)
	want := TotalDelta(m, a)
	for i := 0; i < 20; i++ {
		if got := TotalDelta(m, a); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: TotalDelta = %v (%#x), first call %v (%#x)", i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}
