package poilabel

import (
	"context"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
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
	// plan hands out one assignment round to the workers, nil where the
	// shape does not serve assignments.
	plan func(ws []WorkerID) map[string][]string
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
		plan: func(ws []WorkerID) map[string][]string {
			ids := make([]string, len(ws))
			for i, w := range ws {
				ids[i] = wid(int(w))
			}
			round, err := svc.RequestTasks(context.Background(), ids)
			if err != nil {
				t.Fatal(err)
			}
			return round
		},
	}
}

// TestShapeIdentity pins that single, sharded and federated are one
// mechanism at different tree shapes: a one-child node is bit-identical to
// its child at every level — label posteriors, decisions, every worker's
// merged quality and sensitivity, and the EM iteration count where the shape
// reports one. The contributors == 1 branch of the worker merge and the
// per-child arrival order are what make it hold. Where both sides are
// services they also hand out the same assignment rounds, byte for byte,
// round after answered round: a partition node plans the single engine's
// AccOpt round over its view. The single engine learns per answer between
// fits and a partition node does not, so the rows against it fit after every
// answer (WithFullEMInterval(1)), the one interval at which neither learns.
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
		svc, err := NewService(append([]ServiceOption{WithShards(3), WithFullEMInterval(0)}, opts...)...)
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
					Cities: 1, Shard: shard.Config{Shards: 4}})
				if err != nil {
					return fitted{}, err
				}
				f := fittedNode(fed.Sharded)
				f.fit = func() int { return fed.Fit().Cities[0].Iterations }
				return f, nil
			},
			func() (fitted, error) {
				sh, err := shard.New(tasks, workers, norm, shard.Config{Shards: 4})
				if err != nil {
					return fitted{}, err
				}
				return fittedNode(sh), nil
			}},
		{"service-one-shard-is-the-single-engine",
			func() (fitted, error) {
				return service(WithEngine(EngineSharded), WithShards(1), WithFullEMInterval(1)), nil
			},
			func() (fitted, error) { return service(WithFullEMInterval(1)), nil }},
		{"service-one-city-of-one-shard-is-the-single-engine",
			func() (fitted, error) {
				return service(WithEngine(EngineFederated), WithCities(1), WithShards(1), WithFullEMInterval(1)), nil
			},
			func() (fitted, error) { return service(WithFullEMInterval(1)), nil }},
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
			if got.plan == nil || want.plan == nil {
				return
			}
			// Several multi-worker rounds, every handed-out pair answered on
			// both sides before the next round.
			everyone := make([]WorkerID, nWorkers)
			for wi := range everyone {
				everyone[wi] = WorkerID(wi)
			}
			for round := 0; round < 4; round++ {
				gp, wp := got.plan(everyone), want.plan(everyone)
				if len(wp) == 0 {
					t.Fatalf("round %d handed out nothing", round)
				}
				if !reflect.DeepEqual(gp, wp) {
					t.Fatalf("round %d: %v, want %v", round, gp, wp)
				}
				for wi := range everyone {
					for _, key := range wp[wid(wi)] {
						ti, err := strconv.Atoi(strings.TrimPrefix(key, "task-"))
						if err != nil {
							t.Fatal(err)
						}
						a := answer(WorkerID(wi), TaskID(ti), truth, 0.85, rng)
						if err := got.observe(a); err != nil {
							t.Fatal(err)
						}
						if err := want.observe(a); err != nil {
							t.Fatal(err)
						}
					}
				}
				got.fit()
				want.fit()
			}
		})
	}
}

// TestAssignerMeansTheSameOnEveryShape: WithAssigner is one strategy on every
// engine shape. SpatialFirst and Random read only coverage, distances and
// the seed, so a sharded K=4 and a federated 2x2 service hand out the single
// service's rounds, round after answered round — and so does an elastic
// sharded service across a live split, whose engine swap keeps the
// service's assigner, Random's position in its stream included.
func TestAssignerMeansTheSameOnEveryShape(t *testing.T) {
	const nTasks, nWorkers = 48, 8
	ctx := context.Background()
	for name, kind := range map[string]AssignerKind{"spatial-first": AssignerSpatialFirst, "random": AssignerRandom} {
		t.Run(name, func(t *testing.T) {
			shapes := [][]ServiceOption{
				nil,
				{WithEngine(EngineSharded), WithShards(4)},
				{WithEngine(EngineFederated), WithCities(2), WithShards(2)},
				elasticOpts(4),
			}
			svcs := make([]*Service, len(shapes))
			var truth *GroundTruth
			for i, shape := range shapes {
				svc, err := NewService(append([]ServiceOption{WithAssigner(kind), WithSeed(9)}, shape...)...)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { svc.Close(ctx) })
				truth = registerGridWorld(t, svc, nTasks, nWorkers)
				svcs[i] = svc
			}
			elastic := svcs[len(svcs)-1]
			ids := make([]string, nWorkers)
			for wi := range ids {
				ids[wi] = wid(wi)
			}
			rng := rand.New(rand.NewSource(21))
			for round := 0; round < 6; round++ {
				if round == 3 {
					quiesce(t, elastic)
					if err := elastic.forceSplit(ctx, 0); err != nil {
						t.Fatal(err)
					}
				}
				want, err := svcs[0].RequestTasks(ctx, ids)
				if err != nil {
					t.Fatal(err)
				}
				for i, svc := range svcs[1:] {
					got, err := svc.RequestTasks(ctx, ids)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d, shape %d: %v, single %v", round, i+1, got, want)
					}
				}
				for wi := range ids {
					for _, key := range want[wid(wi)] {
						ti, err := strconv.Atoi(strings.TrimPrefix(key, "task-"))
						if err != nil {
							t.Fatal(err)
						}
						a := answer(WorkerID(wi), TaskID(ti), truth, 0.85, rng)
						for _, svc := range svcs {
							if err := svc.SubmitAnswer(wid(wi), key, a.Selected); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
			}
			if got := elastic.ElasticStats().Shards; got != 5 {
				t.Fatalf("elastic service has %d shards after the split, want 5", got)
			}
		})
	}
}
