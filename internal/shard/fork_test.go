package shard

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"

	"poilabel/internal/core"
	"poilabel/internal/geo"
	"poilabel/internal/model"
)

// forkShapes are the two kinds of node a fork is taken of: one over leaves
// and a 2x2 nested one.
var forkShapes = []struct {
	name  string
	build func(tasks []model.Task, workers []model.Worker, norm geo.Normalizer, cfg core.Config) (*Sharded, error)
}{
	{"leaves", func(tasks []model.Task, workers []model.Worker, norm geo.Normalizer, cfg core.Config) (*Sharded, error) {
		return New(tasks, workers, norm, Config{Shards: 4, Model: cfg})
	}},
	{"nested-2x2", func(tasks []model.Task, workers []model.Worker, norm geo.Normalizer, cfg core.Config) (*Sharded, error) {
		return NewNested(tasks, workers, norm, 2, Config{Shards: 2, Model: cfg})
	}},
}

// leafModels returns every model beneath the node, in tree order.
func leafModels(s *Sharded) []*core.Model {
	if s.models != nil {
		return s.models
	}
	var out []*core.Model
	for si := range s.kids {
		out = append(out, leafModels(s.Nested(si))...)
	}
	return out
}

// assertBitIdentical holds two nodes to the same merged estimates, result and
// leaf parameters, compared as bits.
func assertBitIdentical(t *testing.T, what string, got, want *Sharded) {
	t.Helper()
	same := func(name string, g, w []float64) {
		t.Helper()
		if len(g) != len(w) {
			t.Fatalf("%s: %s has %d entries, want %d", what, name, len(g), len(w))
		}
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("%s: %s[%d] = %v, want %v (not bit-identical)", what, name, i, g[i], w[i])
			}
		}
	}
	same("merged pi", got.pi, want.pi)
	if len(got.pdw) != len(want.pdw) {
		t.Fatalf("%s: %d merged pdw rows, want %d", what, len(got.pdw), len(want.pdw))
	}
	for w := range want.pdw {
		same("merged pdw row", got.pdw[w], want.pdw[w])
	}
	gr, wr := got.Result(), want.Result()
	if len(gr.Prob) != len(wr.Prob) {
		t.Fatalf("%s: result has %d tasks, want %d", what, len(gr.Prob), len(wr.Prob))
	}
	for ti := range wr.Prob {
		same("result row", gr.Prob[ti], wr.Prob[ti])
		if !slices.Equal(gr.Inferred[ti], wr.Inferred[ti]) {
			t.Fatalf("%s: inferred labels of task %d differ", what, ti)
		}
	}
	gm, wm := leafModels(got), leafModels(want)
	if len(gm) != len(wm) {
		t.Fatalf("%s: %d leaves, want %d", what, len(gm), len(wm))
	}
	for li := range wm {
		gp, wp := gm[li].Params(), wm[li].Params()
		same("leaf PI", gp.PI, wp.PI)
		for _, rows := range [][2][][]float64{{gp.PZ, wp.PZ}, {gp.PDW, wp.PDW}, {gp.PDT, wp.PDT}} {
			if len(rows[0]) != len(rows[1]) {
				t.Fatalf("%s: leaf %d has %d parameter rows, want %d", what, li, len(rows[0]), len(rows[1]))
			}
			for i := range rows[1] {
				same("leaf row", rows[0][i], rows[1][i])
			}
		}
	}
}

// lateHistory is what a node takes in after a fork was taken of it: a task in
// the last quadrant, a worker beside it, and answers — some on the late task,
// some by the late worker, some from a worker who thereby starts roaming.
func lateHistory(tasks []model.Task, workers []model.Worker, nPerQuad int) (model.Task, model.Worker, []model.Answer) {
	lt := model.Task{ID: model.TaskID(len(tasks)), Name: "late", Location: geo.Pt(10.4, 10.2), Labels: []string{"bar", "cafe"}}
	lw := model.Worker{ID: model.WorkerID(len(workers)), Name: "late", Locations: []geo.Point{geo.Pt(9.8, 10.1)}}
	all := append(slices.Clone(tasks), lt)
	var late []model.Answer
	for i := 0; i < 4; i++ {
		late = append(late, answer(all, lw.ID, model.TaskID(3*nPerQuad+i)))
		late = append(late, answer(all, 1, model.TaskID(2*nPerQuad+i)))
	}
	late = append(late, answer(all, lw.ID, lt.ID), answer(all, 2, lt.ID))
	return lt, lw, late
}

func takeLate(t *testing.T, sh *Sharded, lt model.Task, lw model.Worker, late []model.Answer) {
	t.Helper()
	if err := sh.AddTask(lt); err != nil {
		t.Fatal(err)
	}
	if err := sh.AddWorker(lw); err != nil {
		t.Fatal(err)
	}
	observeAll(t, sh, late)
}

// TestForkAdoptMatchesReplay holds a node's fork to the in-place fit it
// replaces, over leaves and over nested children, at Parallelism 1 and 4: the
// fork fits to what a twin fitting in place at the fork point reaches while
// the forked node takes a task, a worker and more answers; it keeps the length
// it was taken at; and adopting it leaves the node bit-identical to a twin
// that fitted in place at the fork point and took the rest afterwards.
func TestForkAdoptMatchesReplay(t *testing.T) {
	const nPerQuad, wPerQuad = 12, 3
	tasks, workers, norm := quadWorld(nPerQuad, wPerQuad)
	early := roamingAnswers(tasks, workers, nPerQuad, wPerQuad)
	lt, lw, late := lateHistory(tasks, workers, nPerQuad)
	for _, shape := range forkShapes {
		for _, par := range []int{1, 4} {
			cfg := core.DefaultConfig()
			cfg.Parallelism = par
			twin := func() *Sharded {
				sh, err := shape.build(slices.Clone(tasks), slices.Clone(workers), norm, cfg)
				if err != nil {
					t.Fatal(err)
				}
				observeAll(t, sh, early)
				return sh
			}
			inPlace, forked := twin(), twin()
			want := inPlace.Fit()

			fork := forked.Fork()
			takeLate(t, forked, lt, lw, late)
			got, err := fork.FitContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(fork.tasks) != len(tasks) || len(fork.pi) != len(workers) || len(fork.order) != len(inPlace.order) {
				t.Fatalf("%s: the fitted fork covers %d tasks, %d workers, %d ordered answers; was taken at %d, %d, %d",
					shape.name, len(fork.tasks), len(fork.pi), len(fork.order), len(tasks), len(workers), len(inPlace.order))
			}
			for si, log := range fork.logs {
				if n := inPlace.models[si].Answers().Len(); log.Len() != n {
					t.Fatalf("%s: the fork sees %d answers of shard %d, was taken at %d", shape.name, log.Len(), si, n)
				}
			}
			if got.Iterations != want.Iterations || got.Converged != want.Converged || got.Roaming != want.Roaming {
				t.Fatalf("%s: fork fit %+v, in-place fit %+v", shape.name, got, want)
			}
			for w := range inPlace.pi {
				if math.Float64bits(fork.pi[w]) != math.Float64bits(inPlace.pi[w]) {
					t.Fatalf("%s: the fork merged pi[%d] = %v, the in-place fit %v", shape.name, w, fork.pi[w], inPlace.pi[w])
				}
			}

			forked.Adopt(fork)
			takeLate(t, inPlace, lt, lw, late) // the replay: fit at the fork point, then the rest
			assertBitIdentical(t, shape.name+": adopted vs replayed", forked, inPlace)
			if forked.TotalAnswers() != len(early)+len(late) {
				t.Fatalf("%s: adopting dropped answers: %d held, %d taken", shape.name, forked.TotalAnswers(), len(early)+len(late))
			}
			// And the two keep evolving identically: the same logs, counts and
			// arrival order feed the next fit.
			forked.Fit()
			inPlace.Fit()
			assertBitIdentical(t, shape.name+": refitted after adoption", forked, inPlace)
		}
	}
}

// TestForkRebuildMatchesRebuild is a migration at this level: rebuilding a
// fork at a new layout, fitting the result and replaying into it what the
// node took in since the fork is bit-identical to rebuilding the node itself
// at the fork point and feeding it the rest.
func TestForkRebuildMatchesRebuild(t *testing.T) {
	const nPerQuad, wPerQuad = 12, 3
	tasks, workers, norm := quadWorld(nPerQuad, wPerQuad)
	early := roamingAnswers(tasks, workers, nPerQuad, wPerQuad)
	lt, lw, late := lateHistory(tasks, workers, nPerQuad)
	twin := func() *Sharded {
		sh, err := New(slices.Clone(tasks), slices.Clone(workers), norm, Config{Shards: 4, Model: testConfig()})
		if err != nil {
			t.Fatal(err)
		}
		observeAll(t, sh, early)
		return sh
	}
	ref, live := twin(), twin()
	layout, err := SplitLayout(taskLocations(tasks), ref.Partition(), 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Rebuild(layout)
	if err != nil {
		t.Fatal(err)
	}
	want.Fit()
	takeLate(t, want, lt, lw, late)

	fork := live.Fork()
	takeLate(t, live, lt, lw, late)
	if got := fork.Partition(); len(got[3]) != nPerQuad || len(fork.Tasks()) != len(tasks) {
		t.Fatalf("the fork sees %d tasks, %d in the last shard, after the node took one more; was taken at %d, %d",
			len(fork.Tasks()), len(got[3]), len(tasks), nPerQuad)
	}
	got, err := fork.Rebuild(layout)
	if err != nil {
		t.Fatal(err)
	}
	got.Fit()
	if err := live.ReplaySince(fork, got); err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "fork rebuilt and caught up vs node rebuilt and fed", got, want)
	got.Fit()
	want.Fit()
	assertBitIdentical(t, "refitted after the catch-up", got, want)

	nested, err := NewNested(tasks, workers, norm, 2, Config{Shards: 2, Model: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nested.Fork().Rebuild(layout); err == nil {
		t.Fatal("a nested fork rebuilt; only a node over leaves keeps the arrival log")
	}
}

// TestForkSharesWhileNodeGrows is the fork's safety argument on a node, left
// to the race detector: one goroutine keeps routing answers, tasks and
// workers into a node while another takes forks, fits them with the node
// unlocked and has the node adopt them — and, over leaves, rebuilds every
// other fork at a split layout and catches the result up instead.
func TestForkSharesWhileNodeGrows(t *testing.T) {
	const nPerQuad, wPerQuad = 12, 3
	tasks, workers, norm := quadWorld(nPerQuad, wPerQuad)
	cfg := core.DefaultConfig()
	cfg.Parallelism = 4
	cfg.MaxIter = 5
	for _, shape := range forkShapes {
		sh, err := shape.build(slices.Clone(tasks), slices.Clone(workers), norm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex // what Service.mu is to an engine
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i, a := range roamingAnswers(tasks, workers, nPerQuad, wPerQuad) {
				mu.Lock()
				err := sh.Observe(a)
				if err == nil && i%24 == 0 {
					err = sh.AddTask(model.Task{ID: model.TaskID(len(sh.Tasks())), Location: geo.Pt(float64(i%11), 10.3), Labels: []string{"bar"}})
				}
				if err == nil && i%24 == 12 {
					err = sh.AddWorker(model.Worker{ID: model.WorkerID(len(sh.Workers())), Locations: []geo.Point{geo.Pt(0.2, float64(i%11))}})
				}
				mu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
		for cycles := 0; ; cycles++ {
			mu.Lock()
			fork := sh.Fork()
			mu.Unlock()
			if shape.name == "leaves" && cycles%2 == 1 {
				layout, err := SplitLayout(taskLocations(fork.Tasks()), fork.Partition(), 0)
				if err != nil {
					t.Fatal(err)
				}
				rebuilt, err := fork.Rebuild(layout)
				if err != nil {
					t.Fatal(err)
				}
				rebuilt.Fit()
				mu.Lock()
				err = sh.ReplaySince(fork, rebuilt)
				held, want := rebuilt.TotalAnswers(), sh.TotalAnswers()
				mu.Unlock()
				if err != nil || held != want {
					t.Fatalf("%s cycle %d: caught-up rebuild holds %d answers of %d (%v)", shape.name, cycles, held, want, err)
				}
			} else {
				if _, err := fork.FitContext(context.Background()); err != nil {
					t.Fatal(err)
				}
				mu.Lock()
				sh.Adopt(fork)
				mu.Unlock()
			}
			select {
			case <-done:
			default:
				continue
			}
			break
		}
		if got, want := len(sh.Result().Prob), len(sh.Tasks()); got != want || len(sh.pi) != len(sh.Workers()) {
			t.Fatalf("%s: estimates cover %d tasks and %d workers of %d and %d", shape.name, got, len(sh.pi), want, len(sh.Workers()))
		}
	}
}
