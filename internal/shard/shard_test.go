package shard

import (
	"testing"

	"poilabel/internal/core"
	"poilabel/internal/geo"
	"poilabel/internal/model"
)

// quadWorld builds a deterministic four-cluster world: nPerQuad tasks and
// wPerQuad workers around each of four well-separated centers, so a 4-way
// kd-partition recovers the clusters exactly.
func quadWorld(nPerQuad, wPerQuad int) ([]model.Task, []model.Worker, geo.Normalizer) {
	centers := []geo.Point{geo.Pt(0, 0), geo.Pt(0, 10), geo.Pt(10, 0), geo.Pt(10, 10)}
	labels := []string{"restaurant", "bar", "cafe"}
	var tasks []model.Task
	var workers []model.Worker
	var pts []geo.Point
	for q, c := range centers {
		for i := 0; i < nPerQuad; i++ {
			loc := geo.Pt(c.X+0.13*float64(i%7), c.Y+0.09*float64(i%5))
			t := model.Task{
				ID:       model.TaskID(len(tasks)),
				Name:     "t",
				Location: loc,
				Labels:   labels[:2+(i%2)],
			}
			tasks = append(tasks, t)
			pts = append(pts, loc)
		}
		for j := 0; j < wPerQuad; j++ {
			loc := geo.Pt(c.X+0.21*float64(j%3), c.Y+0.17*float64(j%4))
			workers = append(workers, model.Worker{
				ID:        model.WorkerID(len(workers)),
				Name:      "w",
				Locations: []geo.Point{loc},
			})
			pts = append(pts, loc)
		}
		_ = q
	}
	return tasks, workers, geo.NormalizerFor(pts)
}

// vote is a deterministic pseudo-answer: worker w's vote on label k of task t.
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

// blockAnswers generates answers strictly inside each quadrant: every worker
// answers a deterministic subset of their own quadrant's tasks.
func blockAnswers(tasks []model.Task, workers []model.Worker, nPerQuad, wPerQuad int) []model.Answer {
	var out []model.Answer
	for wi := range workers {
		q := wi / wPerQuad
		for i := 0; i < nPerQuad; i++ {
			if (wi+i)%3 == 0 {
				continue // leave some pairs unanswered
			}
			t := model.TaskID(q*nPerQuad + i)
			out = append(out, answer(tasks, model.WorkerID(wi), t))
		}
	}
	return out
}

func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Parallelism = 1
	return cfg
}

func TestBlockDiagonalMatchesPerBlockFits(t *testing.T) {
	const nPerQuad, wPerQuad = 12, 3
	tasks, workers, norm := quadWorld(nPerQuad, wPerQuad)
	answers := blockAnswers(tasks, workers, nPerQuad, wPerQuad)

	sh, err := New(tasks, workers, norm, Config{Shards: 4, Model: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range answers {
		if err := sh.Observe(a); err != nil {
			t.Fatal(err)
		}
	}
	st := sh.Fit()
	if st.Roaming != 0 {
		t.Fatalf("block-diagonal data reported %d roaming workers", st.Roaming)
	}

	for si, part := range sh.Partition() {
		local := make([]model.Task, len(part))
		for j, g := range part {
			local[j] = tasks[g].WithID(model.TaskID(j))
		}
		ref, err := core.NewModel(local, workers, norm, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		// Replay the global answer stream restricted to this block, in the
		// same relative order the sharded fitter saw it.
		for _, a := range answers {
			if sh.TaskShard(a.Task) != si {
				continue
			}
			la := a
			la.Task = model.TaskID(sh.localOf[a.Task])
			if err := ref.Observe(la); err != nil {
				t.Fatal(err)
			}
		}
		ref.Fit()

		rp, sp := ref.Params(), sh.models[si].Params()
		for j := range rp.PZ {
			for k := range rp.PZ[j] {
				if rp.PZ[j][k] != sp.PZ[j][k] {
					t.Fatalf("shard %d: PZ[%d][%d] %v vs per-block %v",
						si, j, k, sp.PZ[j][k], rp.PZ[j][k])
				}
			}
		}
		for wi := range workers {
			if sh.counts[si][wi] == 0 {
				continue
			}
			if rp.PI[wi] != sp.PI[wi] {
				t.Fatalf("shard %d: PI[%d] %v vs per-block %v", si, wi, sp.PI[wi], rp.PI[wi])
			}
			// Non-roaming: the merged quality is exactly the block estimate.
			if sh.WorkerQuality(model.WorkerID(wi)) != rp.PI[wi] {
				t.Fatalf("shard %d: merged quality of local worker %d diverged", si, wi)
			}
		}
	}
}

func TestRoamingWorkerMergedByAnswerCount(t *testing.T) {
	const nPerQuad, wPerQuad = 8, 2
	tasks, workers, norm := quadWorld(nPerQuad, wPerQuad)
	answers := blockAnswers(tasks, workers, nPerQuad, wPerQuad)
	// Worker 0 (quadrant 0) roams: three extra answers in quadrant 1's block.
	roamer := model.WorkerID(0)
	for i := 0; i < 3; i++ {
		answers = append(answers, answer(tasks, roamer, model.TaskID(nPerQuad+i)))
	}

	sh, err := New(tasks, workers, norm, Config{Shards: 4, Model: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range answers {
		if err := sh.Observe(a); err != nil {
			t.Fatal(err)
		}
	}
	st := sh.Fit()
	if st.Roaming != 1 {
		t.Fatalf("Roaming = %d, want 1", st.Roaming)
	}

	own, away := sh.TaskShard(0), sh.TaskShard(model.TaskID(nPerQuad))
	if own == away {
		t.Fatalf("test setup: quadrants 0 and 1 landed in the same shard")
	}
	cOwn, cAway := sh.counts[own][roamer], sh.counts[away][roamer]
	if cOwn == 0 || cAway == 0 {
		t.Fatalf("roamer counts: own quadrant %d, away %d", cOwn, cAway)
	}
	pOwn := sh.models[own].Params().PI[roamer]
	pAway := sh.models[away].Params().PI[roamer]
	want := (float64(cOwn)*pOwn + float64(cAway)*pAway) / float64(cOwn+cAway)
	if got := sh.WorkerQuality(roamer); got != want {
		t.Fatalf("merged quality %v, want weighted average %v", got, want)
	}

	pdw := sh.DistanceSensitivity(roamer)
	sum := 0.0
	for _, v := range pdw {
		sum += v
	}
	if sum < 0.999999 || sum > 1.000001 {
		t.Fatalf("merged sensitivity sums to %v", sum)
	}
}

func TestObserveAndConfigErrors(t *testing.T) {
	tasks, workers, norm := quadWorld(4, 1)
	sh, err := New(tasks, workers, norm, Config{Shards: 2, Model: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Observe(model.Answer{Worker: 0, Task: model.TaskID(len(tasks)), Selected: []bool{true, false}}); err == nil {
		t.Error("unknown task accepted")
	}
	if err := sh.Observe(model.Answer{Worker: model.WorkerID(len(workers)), Task: 0, Selected: []bool{true, false}}); err == nil {
		t.Error("unknown worker accepted")
	}
	a := answer(tasks, 0, 0)
	if err := sh.Observe(a); err != nil {
		t.Fatal(err)
	}
	if err := sh.Observe(a); err == nil {
		t.Error("duplicate answer accepted")
	}

	if _, err := New(nil, workers, norm, Config{}); err == nil {
		t.Error("empty task set accepted")
	}
	if _, err := New(tasks, workers, norm, Config{Shards: -1}); err == nil {
		t.Error("negative shard count accepted")
	}
	// More shards than tasks clamps rather than failing.
	sh2, err := New(tasks, workers, norm, Config{Shards: 100, Model: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if sh2.NumShards() != len(tasks) {
		t.Errorf("shard count not clamped: %d", sh2.NumShards())
	}
}
