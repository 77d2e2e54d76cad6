package federation_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"poilabel/internal/assign"
	"poilabel/internal/federation"
	"poilabel/internal/geo"
	"poilabel/internal/model"
	"poilabel/internal/shard"
)

// twoCityWorld builds two well-separated city clusters (around (0,0) and
// (100,100)), each with nPerCity tasks and wPerCity workers.
func twoCityWorld(nPerCity, wPerCity int) ([]model.Task, []model.Worker, geo.Normalizer) {
	centers := []geo.Point{geo.Pt(0, 0), geo.Pt(100, 100)}
	labels := []string{"restaurant", "bar", "cafe"}
	var tasks []model.Task
	var workers []model.Worker
	var pts []geo.Point
	for _, c := range centers {
		for i := 0; i < nPerCity; i++ {
			loc := geo.Pt(c.X+0.31*float64(i%5), c.Y+0.17*float64(i%7))
			tasks = append(tasks, model.Task{
				ID:       model.TaskID(len(tasks)),
				Name:     "t",
				Location: loc,
				Labels:   labels[:2+(i%2)],
			})
			pts = append(pts, loc)
		}
		for j := 0; j < wPerCity; j++ {
			loc := geo.Pt(c.X+0.23*float64(j%3), c.Y+0.29*float64(j%4))
			workers = append(workers, model.Worker{
				ID:        model.WorkerID(len(workers)),
				Name:      "w",
				Locations: []geo.Point{loc},
			})
			pts = append(pts, loc)
		}
	}
	return tasks, workers, geo.NormalizerFor(pts)
}

func vote(w model.WorkerID, t model.TaskID, k int) bool {
	return (int(w)*7+int(t)*3+k)%5 < 3
}

func answer(tasks []model.Task, w model.WorkerID, t model.TaskID) model.Answer {
	sel := make([]bool, len(tasks[t].Labels))
	for k := range sel {
		sel[k] = vote(w, t, k)
	}
	return model.Answer{Worker: w, Task: t, Selected: sel}
}

// cityAnswers keeps every worker inside their own city: city-0 workers
// answer city-0 tasks, city-1 workers city-1 tasks.
func cityAnswers(tasks []model.Task, workers []model.Worker, nPerCity, wPerCity int) []model.Answer {
	var out []model.Answer
	for wi := range workers {
		city := wi / wPerCity
		for i := 0; i < nPerCity; i++ {
			if (wi+i)%3 == 0 {
				continue
			}
			out = append(out, answer(tasks, model.WorkerID(wi), model.TaskID(city*nPerCity+i)))
		}
	}
	return out
}

func TestFederationRoutingAndRoaming(t *testing.T) {
	tasks, workers, norm := twoCityWorld(8, 3)
	fed, err := federation.New(tasks, workers, norm, federation.Config{Cities: 2, Shard: shard.Config{Shards: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if fed.NumCities() != 2 {
		t.Fatalf("NumCities = %d, want 2", fed.NumCities())
	}
	// The KD split must recover the two clusters: tasks of one cluster all
	// share a city, and the two clusters get different cities.
	if fed.TaskCity(0) == fed.TaskCity(8) {
		t.Fatal("distinct clusters mapped to one city")
	}
	for ti := 1; ti < 8; ti++ {
		if fed.TaskCity(model.TaskID(ti)) != fed.TaskCity(0) {
			t.Fatalf("task %d left its cluster's city", ti)
		}
	}
	// Worker 0 roams: answers in both cities.
	for _, a := range cityAnswers(tasks, workers, 8, 3) {
		if err := fed.Observe(a); err != nil {
			t.Fatal(err)
		}
	}
	for ti := 8; ti < 12; ti++ {
		if err := fed.Observe(answer(tasks, 0, model.TaskID(ti))); err != nil {
			t.Fatal(err)
		}
	}
	st := fed.Fit()
	if !st.Converged {
		t.Error("federated fit did not converge")
	}
	if st.Roaming != 1 {
		t.Errorf("Roaming = %d, want 1", st.Roaming)
	}

	// The roamer's merged quality is the answer-count-weighted average of
	// the two city estimates.
	c0, c1 := fed.TaskCity(0), fed.TaskCity(8)
	q0 := fed.City(c0).WorkerQuality(0)
	q1 := fed.City(c1).WorkerQuality(0)
	// Worker 0 answered i in 1..7 with (0+i)%3 != 0 → 5 answers in their own
	// city, plus 4 in the other.
	want := (5*q0 + 4*q1) / 9
	if got := fed.WorkerQuality(0); math.Abs(got-want) > 1e-12 {
		t.Errorf("merged roamer quality = %v, want %v", got, want)
	}
	// Sensitivity merges the same way and stays a distribution.
	var sum float64
	for _, v := range fed.DistanceSensitivity(0) {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("merged sensitivity sums to %v", sum)
	}
}

func TestFederationAssignBudgetAndSkip(t *testing.T) {
	tasks, workers, norm := twoCityWorld(8, 3)
	fed, err := federation.New(tasks, workers, norm, federation.Config{Cities: 2, Shard: shard.Config{Shards: 2}})
	if err != nil {
		t.Fatal(err)
	}
	// A sparse log so every worker has plenty of undone tasks.
	for wi := range workers {
		city := wi / 3
		if err := fed.Observe(answer(tasks, model.WorkerID(wi), model.TaskID(city*8))); err != nil {
			t.Fatal(err)
		}
	}
	fed.Fit()

	all := make([]model.WorkerID, len(workers))
	for i := range workers {
		all[i] = model.WorkerID(i)
	}
	a := fed.Assign(all, 2, -1, nil)
	if a.TotalTasks() != 2*len(workers) {
		t.Fatalf("unlimited round handed out %d pairs, want %d", a.TotalTasks(), 2*len(workers))
	}
	// One round over both cities: h distinct tasks each, none answered.
	for w, ts := range a {
		if len(ts) != 2 || ts[0] == ts[1] {
			t.Fatalf("worker %d got %v, want two distinct tasks", w, ts)
		}
		for _, tid := range ts {
			if fed.HasAnswer(w, tid) {
				t.Fatalf("worker %d was assigned answered task %d", w, tid)
			}
		}
	}
	// Plans are deterministic.
	if again := fed.Assign(all, 2, -1, nil); !reflect.DeepEqual(again, a) {
		t.Fatalf("a second round over the same state differs:\n%v\nvs\n%v", again, a)
	}

	// A budget is spent exactly.
	b := fed.Assign(all, 2, 5, nil)
	if n := b.TotalTasks(); n != 5 {
		t.Fatalf("budgeted assignment used %d of 5", n)
	}

	// Excluded pairs are left out during planning, not after: with every
	// unlimited pick excluded, fresh pairs still fill the budget.
	picked := make(map[[2]int]bool)
	excluded := make(assign.TaskLists)
	for w, ts := range a {
		for _, tid := range ts {
			picked[[2]int{int(w), int(tid)}] = true
		}
		excluded[w] = ts
	}
	c := fed.Assign(all, 2, 5, excluded)
	if n := c.TotalTasks(); n != 5 {
		t.Fatalf("budgeted excluding assignment used %d of 5", n)
	}
	for w, ts := range c {
		for _, tid := range ts {
			if picked[[2]int{int(w), int(tid)}] {
				t.Fatalf("excluded pair (%d, %d) handed out again", w, tid)
			}
		}
	}
}

func TestFederationDynamicAdd(t *testing.T) {
	tasks, workers, norm := twoCityWorld(6, 2)
	fed, err := federation.New(tasks, workers, norm, federation.Config{Cities: 2, Shard: shard.Config{Shards: 2}})
	if err != nil {
		t.Fatal(err)
	}
	// A task near city 1's cluster must land in city 1.
	nt := model.Task{
		ID:       model.TaskID(len(tasks)),
		Name:     "late",
		Location: geo.Pt(100.5, 100.5),
		Labels:   []string{"restaurant", "bar"},
	}
	if err := fed.AddTask(nt); err != nil {
		t.Fatal(err)
	}
	if fed.TaskCity(nt.ID) != fed.TaskCity(6) {
		t.Fatal("late task not routed to the nearest city")
	}
	nw := model.Worker{
		ID:        model.WorkerID(len(workers)),
		Name:      "late",
		Locations: []geo.Point{geo.Pt(99.9, 100.1)},
	}
	if err := fed.AddWorker(nw); err != nil {
		t.Fatal(err)
	}
	if err := fed.Observe(answer(append(tasks, nt), nw.ID, nt.ID)); err != nil {
		t.Fatal(err)
	}
	if st := fed.Fit(); !st.Converged {
		t.Error("fit after dynamic add did not converge")
	}
	if got := len(fed.Result().Inferred); got != len(tasks)+1 {
		t.Fatalf("result covers %d tasks, want %d", got, len(tasks)+1)
	}
	// Dense-ID discipline.
	if err := fed.AddTask(nt); err == nil {
		t.Error("duplicate task ID accepted")
	}
	if err := fed.AddWorker(nw); err == nil {
		t.Error("duplicate worker ID accepted")
	}
}

func TestFederationFitContextCancellation(t *testing.T) {
	tasks, workers, norm := twoCityWorld(6, 2)
	fed, err := federation.New(tasks, workers, norm, federation.Config{Cities: 2, Shard: shard.Config{Shards: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range cityAnswers(tasks, workers, 6, 2) {
		if err := fed.Observe(a); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fed.FitContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("FitContext error = %v, want context.Canceled", err)
	}
	if _, err := fed.FitContext(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestFederationValidation(t *testing.T) {
	tasks, workers, norm := twoCityWorld(4, 2)
	if _, err := federation.New(nil, workers, norm, federation.Config{}); err == nil {
		t.Error("no tasks accepted")
	}
	if _, err := federation.New(tasks, nil, norm, federation.Config{}); err == nil {
		t.Error("no workers accepted")
	}
	bad := append([]model.Task(nil), tasks...)
	bad[2].ID = 99
	if _, err := federation.New(bad, workers, norm, federation.Config{}); err == nil {
		t.Error("non-dense task IDs accepted")
	}
	if _, err := federation.New(tasks, workers, norm, federation.Config{Cities: -1}); err == nil {
		t.Error("negative city count accepted")
	}
	// City counts above the task count clamp.
	fed, err := federation.New(tasks, workers, norm, federation.Config{Cities: 100})
	if err != nil {
		t.Fatal(err)
	}
	if fed.NumCities() != len(tasks) {
		t.Errorf("NumCities = %d, want clamp to %d", fed.NumCities(), len(tasks))
	}
}

// TestFederationCrossCityFallback: a worker whose own city has no assignable
// task left — every pair answered or pending across all of its shards — still
// gets a full round from the other city, and the exclusions hold there.
func TestFederationCrossCityFallback(t *testing.T) {
	tasks, workers, norm := twoCityWorld(3, 1)
	fed, err := federation.New(tasks, workers, norm, federation.Config{Cities: 2, Shard: shard.Config{Shards: 2}})
	if err != nil {
		t.Fatal(err)
	}
	w := model.WorkerID(0) // sits in the city of tasks 0..2
	own := fed.TaskCity(0)
	// Dry up the worker's own city: they answer every task it owns.
	for ti := range tasks {
		if fed.TaskCity(model.TaskID(ti)) != own {
			continue
		}
		if err := fed.Observe(answer(tasks, w, model.TaskID(ti))); err != nil {
			t.Fatal(err)
		}
	}
	fed.Fit()

	out := fed.Assign([]model.WorkerID{w}, 2, -1, nil)
	if len(out[w]) != 2 {
		t.Fatalf("own city answered: worker got %v, want two tasks of the other city", out[w])
	}
	for _, task := range out[w] {
		if got := fed.TaskCity(task); got == own {
			t.Fatalf("task %d is from the answered city %d", task, got)
		}
	}

	// The same dryness induced through the exclusion lists (pending pairs).
	fed2, err := federation.New(tasks, workers, norm, federation.Config{Cities: 2, Shard: shard.Config{Shards: 2}})
	if err != nil {
		t.Fatal(err)
	}
	pending := make(map[model.TaskID]bool)
	excluded, everything := assign.TaskLists{}, assign.TaskLists{}
	for ti := range tasks {
		if fed2.TaskCity(model.TaskID(ti)) == own {
			pending[model.TaskID(ti)] = true
			excluded[w] = append(excluded[w], model.TaskID(ti))
		}
		everything[w] = append(everything[w], model.TaskID(ti))
	}
	out2 := fed2.Assign([]model.WorkerID{w}, 2, -1, excluded)
	if len(out2[w]) != 2 {
		t.Fatalf("own city pending: worker got %v, want two tasks of the other city", out2[w])
	}
	for _, task := range out2[w] {
		if pending[task] {
			t.Fatalf("excluded task %d handed out", task)
		}
	}

	// A fully dry federation (every city excluded) still returns an empty
	// round rather than looping or inventing pairs.
	if out3 := fed2.Assign([]model.WorkerID{w}, 2, -1, everything); len(out3[w]) != 0 {
		t.Fatalf("fully excluded federation still handed out %d tasks", len(out3[w]))
	}
}
