package shard

import (
	"reflect"
	"testing"

	"poilabel/internal/assign"
	"poilabel/internal/model"
)

// fittedWorld builds a 4-shard fitter with block answers observed and fitted,
// ready for assignment rounds.
func fittedWorld(t *testing.T, nPerQuad, wPerQuad int) *Sharded {
	t.Helper()
	tasks, workers, norm := quadWorld(nPerQuad, wPerQuad)
	sh, err := New(tasks, workers, norm, Config{Shards: 4, Model: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range blockAnswers(tasks, workers, nPerQuad, wPerQuad) {
		if err := sh.Observe(a); err != nil {
			t.Fatal(err)
		}
	}
	sh.Fit()
	return sh
}

func allWorkers(sh *Sharded) []model.WorkerID {
	out := make([]model.WorkerID, len(sh.Workers()))
	for i := range out {
		out[i] = model.WorkerID(i)
	}
	return out
}

func TestCoordinatorAssignsWithinHomeShard(t *testing.T) {
	sh := fittedWorld(t, 10, 3)
	c := NewCoordinator(sh)
	out := c.Assign(allWorkers(sh), 2, -1)
	if out.TotalTasks() == 0 {
		t.Fatal("empty assignment")
	}
	for w, ts := range out {
		if len(ts) > 2 {
			t.Fatalf("worker %d got %d tasks, h=2", w, len(ts))
		}
		home := c.HomeShard(w)
		seen := make(map[model.TaskID]bool)
		for _, task := range ts {
			if seen[task] {
				t.Fatalf("worker %d assigned task %d twice", w, task)
			}
			seen[task] = true
			if got := sh.TaskShard(task); got != home {
				t.Fatalf("worker %d (home %d) assigned task %d from shard %d", w, home, task, got)
			}
			// Never a task the worker already answered.
			si := sh.TaskShard(task)
			if sh.models[si].Answers().Has(w, model.TaskID(sh.localOf[task])) {
				t.Fatalf("worker %d reassigned an answered task %d", w, task)
			}
		}
	}
}

func TestCoordinatorBudgetBalancing(t *testing.T) {
	sh := fittedWorld(t, 10, 3)
	c := NewCoordinator(sh)
	workers := allWorkers(sh)

	full := c.Assign(workers, 2, -1)
	demand := full.TotalTasks()
	if demand != 2*len(workers) {
		t.Fatalf("full demand %d, want %d", demand, 2*len(workers))
	}

	budget := demand / 2
	got := c.Assign(workers, 2, budget)
	if got.TotalTasks() != budget {
		t.Fatalf("budgeted round used %d of %d", got.TotalTasks(), budget)
	}
	// The cut must be spread: every shard with demand keeps at least one
	// assignment at half budget.
	perShard := make(map[int]int)
	for w, ts := range got {
		_ = w
		for _, task := range ts {
			perShard[sh.TaskShard(task)]++
		}
	}
	if len(perShard) != sh.NumShards() {
		t.Fatalf("budget concentrated on %d of %d shards", len(perShard), sh.NumShards())
	}

	if empty := c.Assign(workers, 2, 0); empty.TotalTasks() != 0 {
		t.Fatalf("zero budget produced %d assignments", empty.TotalTasks())
	}
	if empty := c.Assign(nil, 2, -1); empty.TotalTasks() != 0 {
		t.Fatalf("no workers produced %d assignments", empty.TotalTasks())
	}
}

// TestCoordinatorHomeShardFallback is the regression test for the
// dried-up-home-shard bug: a worker whose home shard has no assignable
// tasks used to walk away with an empty plan even when neighboring shards
// had plenty. They must now be planned in the next-nearest shard.
func TestCoordinatorHomeShardFallback(t *testing.T) {
	tasks, workers, norm := quadWorld(2, 1)
	sh, err := New(tasks, workers, norm, Config{Shards: 4, Model: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(sh)
	w := model.WorkerID(0)
	home := c.HomeShard(w)
	// Exhaust the home shard: the worker answers every task it holds.
	for _, g := range sh.Partition()[home] {
		if err := sh.Observe(answer(tasks, w, model.TaskID(g))); err != nil {
			t.Fatal(err)
		}
	}
	sh.Fit()

	out := c.Assign([]model.WorkerID{w}, 2, -1)
	if len(out[w]) == 0 {
		t.Fatal("home shard dry and no fallback: worker got an empty plan")
	}
	for _, task := range out[w] {
		if got := sh.TaskShard(task); got == home {
			t.Fatalf("task %d is from the exhausted home shard %d", task, got)
		}
	}

	// The same dryness induced through the exclusion lists (pending
	// pairs) must fall back too, and the exclusion must hold in the fallback
	// shard as well.
	sh2, err := New(tasks, workers, norm, Config{Shards: 4, Model: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCoordinator(sh2)
	home2 := c2.HomeShard(w)
	pending := make(map[model.TaskID]bool)
	excluded := assign.TaskLists{}
	for _, g := range sh2.Partition()[home2] {
		pending[model.TaskID(g)] = true
		excluded[w] = append(excluded[w], model.TaskID(g))
	}
	out2 := c2.AssignExcluding([]model.WorkerID{w}, 2, -1, excluded)
	if len(out2[w]) == 0 {
		t.Fatal("pending-exhausted home shard and no fallback")
	}
	for _, task := range out2[w] {
		if pending[task] {
			t.Fatalf("fallback handed out excluded task %d", task)
		}
		if got := sh2.TaskShard(task); got == home2 {
			t.Fatalf("task %d is from the excluded home shard %d", task, got)
		}
	}
}

func TestCoordinatorDeterministic(t *testing.T) {
	shA := fittedWorld(t, 8, 2)
	shB := fittedWorld(t, 8, 2)
	a := NewCoordinator(shA).Assign(allWorkers(shA), 2, 20)
	b := NewCoordinator(shB).Assign(allWorkers(shB), 2, 20)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("assignment not deterministic:\n%v\nvs\n%v", a, b)
	}
}
