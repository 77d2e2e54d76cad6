package poilabel

import (
	"context"
	"math/rand"
	"testing"

	"poilabel/internal/core"
	"poilabel/internal/federation"
	"poilabel/internal/geo"
	"poilabel/internal/shard"
)

// fitted is the view the shape-identity table needs of anything that learns
// from answers: a model, a partition node at either level, or a Service.
type fitted struct {
	observe func(Answer) error
	// fit runs one full fit and returns the depth of its critical path in EM
	// iterations, or -1 when the shape does not report one.
	fit         func() int
	result      func() *Result
	quality     func(WorkerID) float64
	sensitivity func(WorkerID) []float64
}

func fittedNode(sh *shard.Sharded) fitted {
	return fitted{
		observe: sh.Observe, fit: func() int { return sh.Fit().Iterations },
		result: sh.Result, quality: sh.WorkerQuality, sensitivity: sh.DistanceSensitivity,
	}
}

func fittedService(t *testing.T, svc *Service) fitted {
	info := func(w WorkerID) WorkerInfo {
		wi, err := svc.WorkerInfo(wid(int(w)))
		if err != nil {
			t.Fatal(err)
		}
		return wi
	}
	return fitted{
		observe: func(a Answer) error { return svc.SubmitAnswer(wid(int(a.Worker)), tid(int(a.Task)), a.Selected) },
		fit: func() int {
			if _, err := svc.Fit(context.Background()); err != nil {
				t.Fatal(err)
			}
			return -1
		},
		result: func() *Result {
			res, err := svc.ResultSet(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			return res
		},
		quality:     func(w WorkerID) float64 { return info(w).Quality },
		sensitivity: func(w WorkerID) []float64 { return info(w).DistanceSensitivity },
	}
}

// TestShapeIdentity pins that single, sharded and federated are one
// mechanism at different tree shapes: a one-child node is bit-identical to
// its child at every level — label posteriors, decisions, every worker's
// merged quality and sensitivity, and the EM iteration count where the shape
// reports one. The contributors == 1 branch of the worker merge and the
// per-child arrival order are what make it hold.
func TestShapeIdentity(t *testing.T) {
	// The grid world of registerGridWorld in dense form, with every worker
	// answering tasks in all four kd cells so the K=4 rows merge roamers.
	const nTasks, nWorkers = 48, 8
	dense, err := NewService()
	if err != nil {
		t.Fatal(err)
	}
	truth := registerGridWorld(t, dense, nTasks, nWorkers)
	tasks, workers := dense.tasks, dense.workers
	var pts []geo.Point
	for _, task := range tasks {
		pts = append(pts, task.Location)
	}
	for _, w := range workers {
		pts = append(pts, w.Locations...)
	}
	norm := geo.NormalizerFor(pts)
	rng := rand.New(rand.NewSource(14))
	var log []Answer
	for wi := 0; wi < nWorkers; wi++ {
		for ti := 0; ti < nTasks; ti++ {
			if (wi+ti)%5 != 0 {
				log = append(log, answer(WorkerID(wi), TaskID(ti), truth, 0.85, rng))
			}
		}
	}
	cfg := core.DefaultConfig()
	cfg.Parallelism = 1
	service := func(opts ...ServiceOption) fitted {
		svc, err := NewService(append(opts, WithShards(3), WithFullEMInterval(0))...)
		if err != nil {
			t.Fatal(err)
		}
		registerGridWorld(t, svc, nTasks, nWorkers)
		return fittedService(t, svc)
	}

	cases := []struct {
		name      string
		got, want func() (fitted, error)
	}{
		{"one-shard-is-the-plain-model",
			func() (fitted, error) {
				sh, err := shard.New(tasks, workers, norm, shard.Config{Shards: 1, Model: cfg})
				if err != nil {
					return fitted{}, err
				}
				return fittedNode(sh), nil
			},
			func() (fitted, error) {
				m, err := core.NewModel(tasks, workers, norm, cfg)
				if err != nil {
					return fitted{}, err
				}
				return fitted{
					observe: m.Observe, fit: func() int { return m.Fit().Iterations },
					result: m.Result, quality: m.WorkerQuality,
					sensitivity: func(w WorkerID) []float64 { return m.Params().PDW[w] },
				}, nil
			}},
		{"one-city-is-the-sharded-fitter",
			func() (fitted, error) {
				fed, err := federation.New(tasks, workers, norm, federation.Config{
					Cities: 1, Shard: shard.Config{Shards: 4, RefineSweeps: 1}})
				if err != nil {
					return fitted{}, err
				}
				f := fittedNode(fed.Sharded)
				f.fit = func() int { return fed.Fit().Cities[0].Iterations }
				return f, nil
			},
			func() (fitted, error) {
				sh, err := shard.New(tasks, workers, norm, shard.Config{Shards: 4, RefineSweeps: 1})
				if err != nil {
					return fitted{}, err
				}
				return fittedNode(sh), nil
			}},
		{"service-one-city-is-the-sharded-engine",
			func() (fitted, error) { return service(WithEngine(EngineFederated), WithCities(1)), nil },
			func() (fitted, error) { return service(WithEngine(EngineSharded)), nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.got()
			if err != nil {
				t.Fatal(err)
			}
			want, err := tc.want()
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range log {
				if err := got.observe(a); err != nil {
					t.Fatal(err)
				}
				if err := want.observe(a); err != nil {
					t.Fatal(err)
				}
			}
			if gi, wi := got.fit(), want.fit(); gi != wi {
				t.Errorf("iterations: %d, want %d", gi, wi)
			}
			gres, wres := got.result(), want.result()
			if len(gres.Prob) != nTasks {
				t.Fatalf("result covers %d tasks, want %d", len(gres.Prob), nTasks)
			}
			for ti := range wres.Prob {
				for k := range wres.Prob[ti] {
					if gres.Prob[ti][k] != wres.Prob[ti][k] {
						t.Fatalf("P(z) mismatch at task %d label %d: %v vs %v",
							ti, k, gres.Prob[ti][k], wres.Prob[ti][k])
					}
					if gres.Inferred[ti][k] != wres.Inferred[ti][k] {
						t.Fatalf("label mismatch at task %d label %d", ti, k)
					}
				}
			}
			for wi := 0; wi < nWorkers; wi++ {
				w := WorkerID(wi)
				if got.quality(w) != want.quality(w) {
					t.Fatalf("worker %d quality: %v vs %v", wi, got.quality(w), want.quality(w))
				}
				gs, ws := got.sensitivity(w), want.sensitivity(w)
				for j := range ws {
					if gs[j] != ws[j] {
						t.Fatalf("worker %d sensitivity[%d]: %v vs %v", wi, j, gs[j], ws[j])
					}
				}
			}
		})
	}
}
