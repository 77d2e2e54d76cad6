package core_test

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"poilabel/internal/core"
	"poilabel/internal/geo"
	"poilabel/internal/model"
)

// ownModel builds a model over its own copies of the fixture's task and worker
// slices: NewModel keeps the slices it is given, and twins that register late
// tasks must not append into one shared backing array.
func (f *fixture) ownModel(t testing.TB, cfg core.Config) *core.Model {
	t.Helper()
	m, err := core.NewModel(slices.Clone(f.tasks), slices.Clone(f.workers), f.norm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sameBits fails unless two parameter sets are equal to the last bit.
func sameBits(t *testing.T, what string, got, want *core.Params) {
	t.Helper()
	rows := func(name string, g, w [][]float64) {
		if len(g) != len(w) {
			t.Fatalf("%s: %s has %d rows, want %d", what, name, len(g), len(w))
		}
		for i := range w {
			if len(g[i]) != len(w[i]) {
				t.Fatalf("%s: %s[%d] has %d entries, want %d", what, name, i, len(g[i]), len(w[i]))
			}
			for j := range w[i] {
				if math.Float64bits(g[i][j]) != math.Float64bits(w[i][j]) {
					t.Fatalf("%s: %s[%d][%d] = %v, want %v (not bit-identical)", what, name, i, j, g[i][j], w[i][j])
				}
			}
		}
	}
	rows("PZ", got.PZ, want.PZ)
	rows("PI", [][]float64{got.PI}, [][]float64{want.PI})
	rows("PDW", got.PDW, want.PDW)
	rows("PDT", got.PDT, want.PDT)
}

// TestForkAdoptMatchesReplay holds a fork to the in-place fit it replaces. A
// fork taken after a prefix of the history fits to exactly what a twin fitting
// in place at that point reaches, while the forked model takes a task, a
// worker and more answers; the fork keeps the length it was taken at; and
// adopting it leaves the model bit-identical to a twin that fitted in place at
// the fork point and took the same registrations and answers afterwards —
// through Update where the model relearns them, through Observe where it only
// logs them.
func TestForkAdoptMatchesReplay(t *testing.T) {
	f := newFixture(24, 3, 6, 71)
	rng := rand.New(rand.NewSource(72))
	var early, late []model.Answer
	for ti := 0; ti < 24; ti++ {
		for wi := 0; wi < 4; wi++ {
			early = append(early, f.answerAs(model.WorkerID(wi), model.TaskID(ti), 0.85, rng))
		}
	}
	lateTask := model.Task{ID: 24, Name: "late", Location: geo.Pt(3, 4), Labels: []string{"l", "l"}}
	lateWorker := model.Worker{ID: 6, Name: "late", Locations: []geo.Point{geo.Pt(5, 5)}}
	f.truth = append(f.truth, []bool{true, false})
	for ti := 0; ti < 25; ti += 2 {
		late = append(late, f.answerAs(4, model.TaskID(ti), 0.85, rng))
		late = append(late, f.answerAs(6, model.TaskID(ti), 0.7, rng))
	}

	for _, par := range []int{1, 4} {
		for _, relearn := range []bool{true, false} {
			cfg := core.DefaultConfig()
			cfg.Parallelism = par
			take := func(m *core.Model, a model.Answer) {
				t.Helper()
				learn := m.Observe
				if relearn {
					learn = m.Update
				}
				if err := learn(a); err != nil {
					t.Fatal(err)
				}
			}
			afterwards := func(m *core.Model) {
				t.Helper()
				if err := m.AddTask(lateTask); err != nil {
					t.Fatal(err)
				}
				if err := m.AddWorker(lateWorker); err != nil {
					t.Fatal(err)
				}
				for _, a := range late {
					take(m, a)
				}
			}

			inPlace, forked := f.ownModel(t, cfg), f.ownModel(t, cfg)
			for _, a := range early {
				take(inPlace, a)
				take(forked, a)
			}
			inPlace.Fit()

			fork := forked.Fork()
			afterwards(forked)
			if n := fork.Answers().Len(); n != len(early) {
				t.Fatalf("the fork sees %d answers after the model took more, was taken at %d", n, len(early))
			}
			st, err := fork.FitContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if n := fork.Answers().Len(); n != len(early) || len(fork.Params().PZ) != 24 || len(fork.Params().PI) != 6 {
				t.Fatalf("the fitted fork covers %d answers, %d tasks, %d workers; was taken at %d, 24, 6",
					n, len(fork.Params().PZ), len(fork.Params().PI), len(early))
			}
			if st.Iterations == 0 {
				t.Fatal("the fork's fit ran no iteration")
			}
			sameBits(t, "fork fitted beside a busy model vs in-place fit", fork.Params(), inPlace.Params())

			forked.Adopt(fork, relearn)
			afterwards(inPlace) // the replay: fit at the fork point, then the rest
			sameBits(t, "adopted vs replayed", forked.Params(), inPlace.Params())
			got, want := forked.Result(), inPlace.Result()
			for ti := range want.Prob {
				for k := range want.Prob[ti] {
					if math.Float64bits(got.Prob[ti][k]) != math.Float64bits(want.Prob[ti][k]) || got.Inferred[ti][k] != want.Inferred[ti][k] {
						t.Fatalf("parallelism %d relearn %t: result of task %d label %d differs", par, relearn, ti, k)
					}
				}
			}
			if forked.Answers().Len() != len(early)+len(late) {
				t.Fatalf("adopting dropped answers: %d held, %d taken", forked.Answers().Len(), len(early)+len(late))
			}
		}
	}
}

// TestForkSharesWhileModelGrows is the fork's safety argument, left to the
// race detector: one goroutine keeps appending answers, tasks and workers to a
// model while another takes forks, fits them with the model unlocked and has
// the model adopt them. A fork reads only the prefix it was taken at and
// writes only its own parameters, so nothing the two touch overlaps.
func TestForkSharesWhileModelGrows(t *testing.T) {
	const nTasks, nWorkers = 40, 8
	f := newFixture(nTasks, 3, nWorkers, 81)
	cfg := core.DefaultConfig()
	cfg.Parallelism = 4
	cfg.MaxIter = 5
	m := f.ownModel(t, cfg)
	var mu sync.Mutex // what Service.mu is to an engine

	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(82))
		for ti := 0; ti < nTasks; ti++ {
			for wi := 0; wi < nWorkers; wi++ {
				a := f.answerAs(model.WorkerID(wi), model.TaskID(ti), 0.85, rng)
				mu.Lock()
				err := m.Update(a)
				if err == nil && wi == 0 && ti%8 == 0 {
					err = m.AddTask(model.Task{ID: model.TaskID(len(m.Tasks())), Location: geo.Pt(1, float64(ti)), Labels: []string{"l"}})
				}
				if err == nil && wi == 1 && ti%8 == 0 {
					err = m.AddWorker(model.Worker{ID: model.WorkerID(len(m.Workers())), Locations: []geo.Point{geo.Pt(2, float64(ti))}})
				}
				mu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for cycles := 0; ; cycles++ {
		mu.Lock()
		fork := m.Fork()
		mu.Unlock()
		if _, err := fork.FitContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		m.Adopt(fork, true)
		err := m.Params().Validate()
		mu.Unlock()
		if err != nil {
			t.Fatalf("cycle %d adopted invalid parameters: %v", cycles, err)
		}
		select {
		case <-done:
			if got, want := len(m.Params().PZ), len(m.Tasks()); got != want || len(m.Params().PI) != len(m.Workers()) {
				t.Fatalf("parameters cover %d tasks and %d workers of %d and %d", got, len(m.Params().PI), want, len(m.Workers()))
			}
			return
		default:
		}
	}
}
