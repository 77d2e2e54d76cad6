package shard

import (
	"reflect"
	"slices"
	"testing"

	"poilabel/internal/assign"
	"poilabel/internal/core"
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

// TestCoordinatorRoundInvariants: one round over every task caps each worker
// at h distinct tasks and never hands out an answered pair.
func TestCoordinatorRoundInvariants(t *testing.T) {
	sh := fittedWorld(t, 10, 3)
	out := NewCoordinator(sh).AssignExcluding(allWorkers(sh), 2, -1, nil)
	if out.TotalTasks() != 2*len(sh.Workers()) {
		t.Fatalf("round handed out %d pairs, want %d", out.TotalTasks(), 2*len(sh.Workers()))
	}
	for w, ts := range out {
		if len(ts) > 2 {
			t.Fatalf("worker %d got %d tasks, h=2", w, len(ts))
		}
		seen := make(map[model.TaskID]bool)
		for _, task := range ts {
			if seen[task] {
				t.Fatalf("worker %d assigned task %d twice", w, task)
			}
			seen[task] = true
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

	full := c.AssignExcluding(workers, 2, -1, nil)
	demand := full.TotalTasks()
	if demand != 2*len(workers) {
		t.Fatalf("full demand %d, want %d", demand, 2*len(workers))
	}

	budget := demand / 2
	got := c.AssignExcluding(workers, 2, budget, nil)
	if got.TotalTasks() != budget {
		t.Fatalf("budgeted round used %d of %d", got.TotalTasks(), budget)
	}
	// The cut falls round-robin across workers: at half budget every worker
	// keeps exactly their first pick of the unbudgeted round.
	for _, w := range workers {
		if len(got[w]) != 1 || got[w][0] != full[w][0] {
			t.Fatalf("worker %d kept %v of %v at half budget", w, got[w], full[w])
		}
	}

	if empty := c.AssignExcluding(workers, 2, 0, nil); empty.TotalTasks() != 0 {
		t.Fatalf("zero budget produced %d assignments", empty.TotalTasks())
	}
	if empty := c.AssignExcluding(nil, 2, -1, nil); empty.TotalTasks() != 0 {
		t.Fatalf("no workers produced %d assignments", empty.TotalTasks())
	}
}

// TestCoordinatorReachesFarTasks: a worker whose nearby tasks are all
// answered, or all excluded as pending, still gets a full round from the
// rest of the node, and the exclusions hold.
func TestCoordinatorReachesFarTasks(t *testing.T) {
	tasks, workers, norm := quadWorld(2, 1)
	w := model.WorkerID(0) // sits in quadrant 0, beside tasks 0 and 1
	sh, err := New(tasks, workers, norm, Config{Shards: 4, Model: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	near := sh.Partition()[sh.TaskShard(0)]
	for _, g := range near {
		if err := sh.Observe(answer(tasks, w, model.TaskID(g))); err != nil {
			t.Fatal(err)
		}
	}
	sh.Fit()
	out := NewCoordinator(sh).AssignExcluding([]model.WorkerID{w}, 2, -1, nil)
	if len(out[w]) != 2 {
		t.Fatalf("nearby tasks answered: worker got %v, want two far tasks", out[w])
	}
	for _, task := range out[w] {
		if slices.Contains(near, int(task)) {
			t.Fatalf("answered task %d handed out again", task)
		}
	}

	sh2, err := New(tasks, workers, norm, Config{Shards: 4, Model: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	excluded := assign.TaskLists{}
	for _, g := range near {
		excluded[w] = append(excluded[w], model.TaskID(g))
	}
	out2 := NewCoordinator(sh2).AssignExcluding([]model.WorkerID{w}, 2, -1, excluded)
	if len(out2[w]) != 2 {
		t.Fatalf("nearby tasks pending: worker got %v, want two far tasks", out2[w])
	}
	for _, task := range out2[w] {
		if slices.Contains(excluded[w], task) {
			t.Fatalf("excluded task %d handed out", task)
		}
	}
}

func TestCoordinatorDeterministic(t *testing.T) {
	shA := fittedWorld(t, 8, 2)
	shB := fittedWorld(t, 8, 2)
	a := NewCoordinator(shA).AssignExcluding(allWorkers(shA), 2, 20, nil)
	b := NewCoordinator(shB).AssignExcluding(allWorkers(shB), 2, 20, nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("assignment not deterministic:\n%v\nvs\n%v", a, b)
	}
}

// TestNodeViewMatchesModel holds the node's assign.View to a plain model fed
// the same answers: coverage, answer counts and distances equal on a 4-shard
// and a 2x2 nested node, pair by pair; and a one-shard node, fitted like the
// model, has its parameters and plans.
func TestNodeViewMatchesModel(t *testing.T) {
	tasks, workers, norm := quadWorld(6, 2)
	answers := blockAnswers(tasks, workers, 6, 2)
	// Two roaming answers, so some worker's coverage spans shards.
	answers = append(answers, answer(tasks, 0, 6), answer(tasks, 0, 13))
	m, err := core.NewModel(tasks, workers, norm, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	flat, err := New(tasks, workers, norm, Config{Shards: 4, Model: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	nested, err := NewNested(tasks, workers, norm, 2, Config{Shards: 2, Model: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	one, err := New(tasks, workers, norm, Config{Shards: 1, Model: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range answers {
		for _, o := range []interface{ Observe(model.Answer) error }{m, flat, nested, one} {
			if err := o.Observe(a); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, node := range []*Sharded{flat, nested} {
		var v assign.View = node
		for w := range workers {
			wid := model.WorkerID(w)
			if got, want := v.WorkerAnswerCount(wid), m.WorkerAnswerCount(wid); got != want {
				t.Fatalf("worker %d: %d answers, model %d", w, got, want)
			}
			got, want := v.AnsweredTasks(wid, nil), m.AnsweredTasks(wid, nil)
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("worker %d answered %v, model %v", w, got, want)
			}
			for ti := range tasks {
				tid := model.TaskID(ti)
				if v.HasAnswer(wid, tid) != m.HasAnswer(wid, tid) || v.Distance(wid, tid) != m.Distance(wid, tid) {
					t.Fatalf("pair (%d, %d): node and model disagree", w, ti)
				}
			}
		}
		for ti := range tasks {
			if got, want := v.TaskAnswerCount(model.TaskID(ti)), m.TaskAnswerCount(model.TaskID(ti)); got != want {
				t.Fatalf("task %d: %d answers, model %d", ti, got, want)
			}
		}
	}

	m.Fit()
	one.Fit()
	if !reflect.DeepEqual(one.Params(), m.Params()) {
		t.Fatal("one-shard node's view parameters differ from the model's")
	}
	ws := allWorkers(one)
	for round := 0; round < 3; round++ {
		got := NewCoordinator(one).AssignExcluding(ws, 2, -1, nil)
		want := assign.NewPlanner().AssignExcluding(m, ws, 2, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: one-shard node planned %v, model %v", round, got, want)
		}
		for w, ts := range want {
			for _, tid := range ts {
				a := answer(tasks, w, tid)
				if err := m.Observe(a); err != nil {
					t.Fatal(err)
				}
				if err := one.Observe(a); err != nil {
					t.Fatal(err)
				}
			}
		}
		m.Fit()
		one.Fit()
	}
}
