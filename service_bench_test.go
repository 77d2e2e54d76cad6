package poilabel_test

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"poilabel"
	"poilabel/internal/core"
	"poilabel/internal/experiment"
	"poilabel/internal/federation"
	"poilabel/internal/geo"
	"poilabel/internal/model"
	"poilabel/internal/shard"
)

// serviceBenchWorld builds a mid-scale synthetic world (2000 tasks, 100
// workers — 200k distinct pairs, enough fresh answers for any benchtime)
// and pre-generates one simulated answer per (worker, task) pair in a fixed
// order, so every benchmark iteration submits a distinct fresh pair.
func serviceBenchWorld(b *testing.B) (*experiment.Env, []model.Answer) {
	b.Helper()
	env, err := experiment.SyntheticEnv(2000, 100, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	answers := make([]model.Answer, 0, len(env.Data.Tasks)*len(env.Workers))
	for ti := range env.Data.Tasks {
		for wi := range env.Workers {
			answers = append(answers, env.Sim.Answer(model.WorkerID(wi), model.TaskID(ti)))
		}
	}
	return env, answers
}

func newBenchService(b *testing.B, env *experiment.Env, opts ...poilabel.ServiceOption) *poilabel.Service {
	b.Helper()
	// FullEMInterval 0 keeps every submission on the incremental path, the
	// same work the direct model comparison performs.
	svc, err := poilabel.NewService(append([]poilabel.ServiceOption{poilabel.WithFullEMInterval(0)}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	for i, t := range env.Data.Tasks {
		if err := svc.AddTask(fmt.Sprintf("t%d", i), poilabel.TaskSpec{
			Name:     t.Name,
			Location: t.Location,
			Labels:   t.Labels,
			Reviews:  t.Reviews,
		}); err != nil {
			b.Fatal(err)
		}
	}
	for i, w := range env.Workers {
		if err := svc.AddWorker(fmt.Sprintf("w%d", i), poilabel.WorkerSpec{
			Name:      w.Name,
			Locations: w.Locations,
		}); err != nil {
			b.Fatal(err)
		}
	}
	return svc
}

// BenchmarkServiceSubmit measures one answer submission through the Service
// front door — mutex, string-ID interning, pending bookkeeping, and the
// same incremental EM update the model applies — against submitting to the
// core model directly (BenchmarkDirectModelSubmit). The difference is the
// Service layer's overhead; PERFORMANCE.md records reference numbers.
func BenchmarkServiceSubmit(b *testing.B) {
	env, answers := serviceBenchWorld(b)
	svc := newBenchService(b, env)
	if b.N > len(answers) {
		b.Fatalf("benchtime needs %d fresh pairs, world has %d", b.N, len(answers))
	}
	ids := make([][2]string, len(answers))
	for i, a := range answers {
		ids[i] = [2]string{fmt.Sprintf("w%d", a.Worker), fmt.Sprintf("t%d", a.Task)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := svc.SubmitAnswer(ids[i][0], ids[i][1], answers[i].Selected); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceSubmitParallel is BenchmarkServiceSubmit from many
// goroutines at once: the submissions serialize on the service mutex, so
// per-op time approaches the serial cost plus contention.
func BenchmarkServiceSubmitParallel(b *testing.B) {
	env, answers := serviceBenchWorld(b)
	svc := newBenchService(b, env)
	if b.N > len(answers) {
		b.Fatalf("benchtime needs %d fresh pairs, world has %d", b.N, len(answers))
	}
	ids := make([][2]string, len(answers))
	for i, a := range answers {
		ids[i] = [2]string{fmt.Sprintf("w%d", a.Worker), fmt.Sprintf("t%d", a.Task)}
	}
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1)) - 1
			if i >= len(answers) {
				b.Fatal("fresh-pair pool exhausted")
			}
			if err := svc.SubmitAnswer(ids[i][0], ids[i][1], answers[i].Selected); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDirectModelSubmit is the no-service baseline: the same answers
// applied straight to a core model's incremental update.
func BenchmarkDirectModelSubmit(b *testing.B) {
	env, answers := serviceBenchWorld(b)
	m, err := env.NewModel()
	if err != nil {
		b.Fatal(err)
	}
	if b.N > len(answers) {
		b.Fatalf("benchtime needs %d fresh pairs, world has %d", b.N, len(answers))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Update(answers[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRequestTasksParallel measures the lock-free serving path at the
// repository benchmark's closed-single scale (8000 tasks, 100 workers):
// goroutines run the closed crowd loop — request one worker's assignments
// (h = 2), answer the handed-out tasks — against a background-fit service
// (2s cadence, eager fit at 2000 answers).
// Planning runs against the published snapshot through the per-worker
// candidate index; only the optimistic commit and the answer submissions
// take the write lock. Compare with BenchmarkServiceRequestTasks, which
// plans under the write lock on a service without a pipeline. Per-op cost
// covers one request plus its h answers.
func BenchmarkRequestTasksParallel(b *testing.B) {
	env, err := experiment.SyntheticEnv(8000, 100, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	svc := newBenchService(b, env,
		poilabel.WithBackgroundFit(2*time.Second, 2000),
		poilabel.WithTasksPerRequest(2),
	)
	defer svc.Close(context.Background())
	// Warm with one answer per 10 tasks, then force the first publication:
	// until the engine is built and a generation published, requests fall
	// back to the write-locked planner.
	for t := 0; t < len(env.Data.Tasks); t += 10 {
		w := (t / 10) % len(env.Workers)
		a := env.Sim.Answer(model.WorkerID(w), model.TaskID(t))
		if err := svc.SubmitAnswer(fmt.Sprintf("w%d", w), fmt.Sprintf("t%d", t), a.Selected); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	if _, err := svc.Results(ctx); err != nil {
		b.Fatal(err)
	}
	if err := svc.WaitFresh(ctx); err != nil {
		b.Fatal(err)
	}

	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		worker := make([]string, 1)
		for pb.Next() {
			wi := int(next.Add(1)-1) % len(env.Workers)
			worker[0] = fmt.Sprintf("w%d", wi)
			assigned, err := svc.RequestTasks(ctx, worker)
			if err != nil {
				b.Fatal(err)
			}
			for _, task := range assigned[worker[0]] {
				var ti int
				if _, err := fmt.Sscanf(task, "t%d", &ti); err != nil {
					b.Fatal(err)
				}
				a := env.Sim.Answer(model.WorkerID(wi), model.TaskID(ti))
				if err := svc.SubmitAnswer(worker[0], task, a.Selected); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.StopTimer()
	if st := svc.PlanStats(); !st.Enabled || st.LockFreePlans == 0 {
		b.Fatalf("benchmark never exercised the lock-free path: %+v", st)
	}
}

// BenchmarkServiceRequestTasks measures one Service assignment round (10
// requesting workers, h = 2) on a warm model, including pending bookkeeping
// and string mapping. Each round requests a different worker cohort so the
// pending set keeps growing as it would in production. ns/pair is the round's
// time over |W|·|T|, comparable with BenchmarkAccOptAssign's.
func BenchmarkServiceRequestTasks(b *testing.B) {
	env, answers := serviceBenchWorld(b)
	svc := newBenchService(b, env)
	// Warm with a sparse log, as the AccOpt benches do.
	for i := 0; i < len(answers); i += 97 {
		a := answers[i]
		if err := svc.SubmitAnswer(fmt.Sprintf("w%d", a.Worker), fmt.Sprintf("t%d", a.Task), a.Selected); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := svc.Fit(context.Background()); err != nil {
		b.Fatal(err)
	}
	cohort := make([]string, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range cohort {
			cohort[j] = fmt.Sprintf("w%d", (10*i+j)%len(env.Workers))
		}
		if _, err := svc.RequestTasks(context.Background(), cohort); err != nil {
			b.Fatal(err)
		}
	}
	pairs := b.N * len(cohort) * len(env.Data.Tasks)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pairs), "ns/pair")
}

// BenchmarkFitCycle prices the one fit cycle against the floor it is built on,
// on the repository benchmark's world sizes: the same forced 30-iteration fit
// run by a bare engine in place (no Service, no fork — the floor), by a caller
// (Service.Fit without a scheduler) and by the scheduler (WaitFresh behind
// WithBackgroundFit). Every iteration accepts one fresh answer and fits once.
// What a cycle adds to EM is the fork (a parameter copy) and the adoption, so
// both service rows read within a few percent of the floor (PERFORMANCE.md,
// "Where a fit runs"):
//
//	go test -run '^$' -bench FitCycle -benchtime 9x .
func BenchmarkFitCycle(b *testing.B) {
	worlds := []struct{ tasks, answers int }{{2500, 6000}, {5000, 20000}, {8000, 26000}}
	fixed := core.DefaultConfig()
	fixed.Tol, fixed.MaxIter = math.SmallestNonzeroFloat64, 30
	shCfg := shard.Config{Model: fixed}
	engines := []struct {
		name string
		opts []poilabel.ServiceOption
		// bare builds the engine the service would, and returns how it takes
		// an answer between fits and how it fits in place.
		bare func(env *experiment.Env, norm geo.Normalizer) (learn func(model.Answer) error, fit func(), err error)
	}{
		{"single", []poilabel.ServiceOption{poilabel.WithEngine(poilabel.EngineSingle)},
			func(env *experiment.Env, norm geo.Normalizer) (func(model.Answer) error, func(), error) {
				m, err := core.NewModel(env.Data.Tasks, env.Workers, norm, fixed)
				if err != nil {
					return nil, nil, err
				}
				return m.Update, func() { m.Fit() }, nil
			}},
		{"sharded", []poilabel.ServiceOption{poilabel.WithEngine(poilabel.EngineSharded), poilabel.WithShards(4)},
			func(env *experiment.Env, norm geo.Normalizer) (func(model.Answer) error, func(), error) {
				cfg := shCfg
				cfg.Shards = 4
				sh, err := shard.New(env.Data.Tasks, env.Workers, norm, cfg)
				if err != nil {
					return nil, nil, err
				}
				return sh.Observe, func() { sh.Fit() }, nil
			}},
		{"federated", []poilabel.ServiceOption{poilabel.WithEngine(poilabel.EngineFederated), poilabel.WithCities(2), poilabel.WithShards(2)},
			func(env *experiment.Env, norm geo.Normalizer) (func(model.Answer) error, func(), error) {
				cfg := shCfg
				cfg.Shards = 2
				fed, err := federation.New(env.Data.Tasks, env.Workers, norm, federation.Config{Cities: 2, Shard: cfg})
				if err != nil {
					return nil, nil, err
				}
				return fed.Observe, func() { fed.Fit() }, nil
			}},
	}
	ctx := context.Background()
	for _, w := range worlds {
		env, err := experiment.SyntheticEnv(w.tasks, 100, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		var pts []geo.Point
		for _, t := range env.Data.Tasks {
			pts = append(pts, t.Location)
		}
		for _, wk := range env.Workers {
			pts = append(pts, wk.Locations...)
		}
		norm := geo.NewNormalizer(geo.Bound(pts).Diameter())
		// Pair p: every task in turn, a different worker on each lap.
		pair := func(p int) model.Answer {
			ti, wi := p%w.tasks, (p+13*(p/w.tasks))%len(env.Workers)
			return env.Sim.Answer(model.WorkerID(wi), model.TaskID(ti))
		}
		// run feeds the world's answers through learn, fits once, then times
		// b.N rounds of one fresh answer and one fit. The fastest round is the
		// comparable number: on a shared box the mean of nine mostly measures
		// the neighbours.
		run := func(b *testing.B, learn func(model.Answer) error, fit func() error) {
			for p := 0; p < w.answers; p++ {
				if err := learn(pair(p)); err != nil {
					b.Fatal(err)
				}
			}
			if err := fit(); err != nil {
				b.Fatal(err)
			}
			fastest := time.Duration(math.MaxInt64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				if err := learn(pair(w.answers + i)); err != nil {
					b.Fatal(err)
				}
				if err := fit(); err != nil {
					b.Fatal(err)
				}
				fastest = min(fastest, time.Since(start))
			}
			b.ReportMetric(float64(fastest.Microseconds())/1e3, "fastest-ms")
		}
		service := func(b *testing.B, opts []poilabel.ServiceOption, fit func(*poilabel.Service) error) {
			svc := newBenchService(b, env, append([]poilabel.ServiceOption{poilabel.WithModelConfig(fixed)}, opts...)...)
			defer svc.Close(ctx)
			run(b, func(a model.Answer) error {
				return svc.SubmitAnswer(fmt.Sprintf("w%d", a.Worker), fmt.Sprintf("t%d", a.Task), a.Selected)
			}, func() error { return fit(svc) })
		}
		for _, eng := range engines {
			name := fmt.Sprintf("tasks=%d/%s/", w.tasks, eng.name)
			b.Run(name+"in-place", func(b *testing.B) {
				learn, fit, err := eng.bare(env, norm)
				if err != nil {
					b.Fatal(err)
				}
				run(b, learn, func() error { fit(); return nil })
			})
			b.Run(name+"caller", func(b *testing.B) {
				service(b, eng.opts, func(svc *poilabel.Service) error { _, err := svc.Fit(ctx); return err })
			})
			b.Run(name+"scheduler", func(b *testing.B) {
				// Never fires on its own: every fit is the barrier's.
				service(b, append(eng.opts[:len(eng.opts):len(eng.opts)], poilabel.WithBackgroundFit(time.Hour, 1<<30)),
					func(svc *poilabel.Service) error { return svc.WaitFresh(ctx) })
			})
		}
	}
}
