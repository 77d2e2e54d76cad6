package shard

import (
	"context"
	"errors"
	"testing"

	"poilabel/internal/assign"
	"poilabel/internal/geo"
	"poilabel/internal/model"
)

func TestShardedAddTaskRoutesToNearestRegion(t *testing.T) {
	tasks, workers, norm := quadWorld(6, 2)
	s, err := New(tasks, workers, norm, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range blockAnswers(tasks, workers, 6, 2) {
		if err := s.Observe(a); err != nil {
			t.Fatal(err)
		}
	}
	s.Fit()

	// A task near the (10, 10) cluster must land in that cluster's shard.
	wantShard := s.nearestRegion(geo.Pt(10.2, 10.2))
	nt := model.Task{
		ID:       model.TaskID(len(tasks)),
		Name:     "late",
		Location: geo.Pt(10.2, 10.2),
		Labels:   []string{"restaurant", "bar"},
	}
	if err := s.AddTask(nt); err != nil {
		t.Fatal(err)
	}
	if got := s.TaskShard(nt.ID); got != wantShard {
		t.Fatalf("new task routed to shard %d, want %d", got, wantShard)
	}
	if !s.Region(wantShard).Contains(nt.Location) {
		t.Error("owning shard's region did not grow to cover the new task")
	}

	// The new task accepts answers and shows up in city-wide results.
	if err := s.Observe(answer(append(tasks, nt), 0, nt.ID)); err != nil {
		t.Fatal(err)
	}
	s.Fit()
	res := s.Result()
	if len(res.Inferred) != len(tasks)+1 {
		t.Fatalf("result covers %d tasks, want %d", len(res.Inferred), len(tasks)+1)
	}

	// Dense-ID discipline still enforced.
	if err := s.AddTask(nt); err == nil {
		t.Error("duplicate task ID accepted")
	}
}

func TestShardedAddWorker(t *testing.T) {
	tasks, workers, norm := quadWorld(4, 2)
	s, err := New(tasks, workers, norm, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	nw := model.Worker{
		ID:        model.WorkerID(len(workers)),
		Name:      "late",
		Locations: []geo.Point{geo.Pt(0.5, 0.5)},
	}
	if err := s.AddWorker(nw); err != nil {
		t.Fatal(err)
	}
	if got := s.WorkerQuality(nw.ID); got != s.cfg.Model.InitPI {
		t.Fatalf("new worker quality = %v, want prior %v", got, s.cfg.Model.InitPI)
	}
	// The new worker can answer tasks in any shard, and the merge sees them.
	for ti := 0; ti < len(tasks); ti += 5 {
		if err := s.Observe(answer(tasks, nw.ID, model.TaskID(ti))); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Fit()
	if !st.Converged {
		t.Error("fit after AddWorker did not converge")
	}
	if q := s.WorkerQuality(nw.ID); q <= 0 || q >= 1 {
		t.Fatalf("merged quality for new worker = %v", q)
	}
	if err := s.AddWorker(nw); err == nil {
		t.Error("duplicate worker ID accepted")
	}
}

func TestShardedFitContextCancellation(t *testing.T) {
	tasks, workers, norm := quadWorld(4, 2)
	s, err := New(tasks, workers, norm, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range blockAnswers(tasks, workers, 4, 2) {
		if err := s.Observe(a); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := s.FitContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("FitContext error = %v, want context.Canceled", err)
	}
	if st.Converged {
		t.Error("canceled fit reported convergence")
	}
	if _, err := s.FitContext(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestCoordinatorAssignExcluding(t *testing.T) {
	tasks, workers, norm := quadWorld(8, 2)
	s, err := New(tasks, workers, norm, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	// A sparse log: every worker answers two tasks of their own quadrant,
	// leaving plenty of undone pairs even after exclusions.
	for wi := range workers {
		q := wi / 2
		for i := 0; i < 8; i += 4 {
			a := answer(tasks, model.WorkerID(wi), model.TaskID(q*8+i))
			if err := s.Observe(a); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Fit()
	co := NewCoordinator(s)

	all := make([]model.WorkerID, len(workers))
	for i := range workers {
		all[i] = model.WorkerID(i)
	}
	base := co.AssignExcluding(all, 2, -1, nil)
	if base.TotalTasks() == 0 {
		t.Fatal("baseline assignment empty")
	}

	// Excluding everything the baseline picked must produce a disjoint set.
	picked := make(map[[2]int]bool)
	excluded := make(assign.TaskLists)
	for w, ts := range base {
		for _, tid := range ts {
			picked[[2]int{int(w), int(tid)}] = true
		}
		excluded[w] = ts
	}
	next := co.AssignExcluding(all, 2, -1, excluded)
	for w, ts := range next {
		for _, tid := range ts {
			if picked[[2]int{int(w), int(tid)}] {
				t.Fatalf("excluded pair (%d, %d) handed out again", w, tid)
			}
		}
	}

	// Excluded pairs consume no budget: a budget of 3 still yields 3 fresh
	// pairs even when the baseline's picks are all excluded.
	got := co.AssignExcluding(all, 2, 3, excluded)
	if n := got.TotalTasks(); n != 3 {
		t.Fatalf("budgeted excluding assignment used %d of 3", n)
	}
}
