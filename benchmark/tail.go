package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"poilabel"
	"poilabel/internal/core"
	"poilabel/internal/model"
)

// The replay tail runs after every workload's traffic, in the driver
// process, on the answers that workload acknowledged: the log is replayed
// into fresh services and the paper's Fig. 13/14 quantities are timed on
// them. It is the same code for all four workloads, so fit and restart cost
// are read at whatever answer count and mix each workload collected.

const (
	// tailCycles: the tail measures everything once per cycle, one cycle after
	// the other rather than all fits and then all restores, so that every
	// metric's samples are spread over the whole tail.
	tailCycles = 9
	// tailRoundsPerCycle: assignment rounds per cycle.
	tailRoundsPerCycle = 2
	// tailFitIters: every timed fit runs exactly this many EM iterations
	// (tolerance off), so what is timed is the cost of an iteration on this
	// log, and a second fit of the same service costs what the first did. How
	// many iterations a cold fit needs to converge is another question, with
	// another answer on every log (53 to 56 on ten batch logs, 57 to 96 on
	// open-sharded's, 8 to 19 on a single-engine service warmed by its
	// per-answer updates); the traced run
	// reports it as core/shard/federation .fit_iters beside the fits to
	// convergence .fit_s.
	tailFitIters = 30
)

// tailResult holds the fastest of the tailCycles samples of each timing. The
// box only ever adds time to a measurement (a neighbour on the shared host),
// for seconds at a stretch, so the fastest sample repeats from run to run
// where the median does not: over ten runs the fastest of a run's cycles
// spread by about half of what their median did (README.md, "The replay
// tail").
type tailResult struct {
	fitS     map[string]float64 // engine name -> Fit seconds
	roundMS  float64            // 10-worker RequestTasks round
	restoreS float64            // Restore + first ResultSet
	failures []string
}

type tailEngine struct {
	name string
	opts []poilabel.ServiceOption
}

var tailEngines = []tailEngine{
	{"single", []poilabel.ServiceOption{poilabel.WithEngine(poilabel.EngineSingle)}},
	{"sharded", []poilabel.ServiceOption{poilabel.WithEngine(poilabel.EngineSharded), poilabel.WithShards(4)}},
	{"federated", []poilabel.ServiceOption{poilabel.WithEngine(poilabel.EngineFederated), poilabel.WithCities(2), poilabel.WithShards(2)}},
}

// serviceBase are the options of every service the driver builds itself: the
// default single engine, explicit fits only.
func serviceBase(budget int) []poilabel.ServiceOption {
	return []poilabel.ServiceOption{
		poilabel.WithBudget(budget),
		poilabel.WithTasksPerRequest(tasksPerRequest),
		poilabel.WithFullEMInterval(0),
		poilabel.WithSeed(7),
	}
}

// freshService builds a synchronous service (explicit fits only) with the
// world registered.
func freshService(w *world, budget int, opts ...poilabel.ServiceOption) (*poilabel.Service, error) {
	svc, err := poilabel.NewService(append(serviceBase(budget), opts...)...)
	if err != nil {
		return nil, err
	}
	for i, id := range w.taskIDs {
		if err := svc.AddTask(id, w.taskSpec(i)); err != nil {
			return nil, err
		}
	}
	for i, id := range w.workerIDs {
		if err := svc.AddWorker(id, w.workerSpec(i)); err != nil {
			return nil, err
		}
	}
	return svc, nil
}

func replay(svc *poilabel.Service, w *world, log []model.Answer) error {
	for _, a := range log {
		if err := svc.SubmitAnswer(w.workerIDs[a.Worker], w.taskIDs[a.Task], a.Selected); err != nil {
			return fmt.Errorf("replay answer (%d,%d): %w", a.Worker, a.Task, err)
		}
	}
	return nil
}

// runTail replays log and times fits, assignment rounds and a checkpoint
// restart, tailCycles times over. rounds are the worker identities of the
// assignment rounds, ten per round; each is run by calling it once per cycle
// (the closed-loop serving workloads read their settled results there).
func runTail(ctx context.Context, w *world, log []model.Answer, rounds [][]string, rec *recorder, each func() error) (*tailResult, error) {
	res := &tailResult{fitS: make(map[string]float64)}
	root := -1
	if rec != nil {
		root = rec.open("tail", time.Now(), 0)
		defer func() { rec.close(root, time.Now()) }()
	}
	fixed := core.DefaultConfig()
	fixed.Tol, fixed.MaxIter = math.SmallestNonzeroFloat64, tailFitIters

	svcs := make([]*poilabel.Service, len(tailEngines))
	for i, eng := range tailEngines {
		svc, err := freshService(w, -1, append(eng.opts, poilabel.WithModelConfig(fixed))...)
		if err != nil {
			return nil, err
		}
		if err := replay(svc, w, log); err != nil {
			return nil, err
		}
		svcs[i] = svc
	}
	single := svcs[0]

	fits := make(map[string][]float64)
	var restores, roundMS []float64
	for cycle := 0; cycle < tailCycles; cycle++ {
		for i, eng := range tailEngines {
			var err error
			runtime.GC() // the last step's garbage is not the fit's to collect
			d := rec.probe("tail.fit_"+eng.name, root, func() { _, err = svcs[i].Fit(ctx) })
			if err != nil {
				return nil, fmt.Errorf("fit %s: %w", eng.name, err)
			}
			fits[eng.name] = append(fits[eng.name], d.Seconds())
		}

		// Restart: checkpoint the fitted service to memory, restore into a
		// fresh one, and demand its first results bit-identical.
		want, err := single.ResultSet(ctx)
		if err != nil {
			return nil, err
		}
		var snap bytes.Buffer
		rec.probe("tail.checkpoint", root, func() { err = single.Checkpoint(&snap) })
		if err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		restored, err := poilabel.NewService(serviceBase(-1)...)
		if err != nil {
			return nil, err
		}
		var got *poilabel.Result
		runtime.GC()
		d := rec.probe("tail.restore", root, func() {
			if err = restored.Restore(&snap); err == nil {
				got, err = restored.ResultSet(ctx)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("restore: %w", err)
		}
		restores = append(restores, d.Seconds())
		if !reflect.DeepEqual(got, want) {
			res.failures = append(res.failures, "restored results differ from the checkpointed service's")
		}

		// Assignment rounds after the checkpoint: the pairs they hand out stay
		// pending on the service, and a later cycle's checkpoint carries them.
		runtime.GC()
		for k := 0; k < tailRoundsPerCycle; k++ {
			ids := rounds[(cycle*tailRoundsPerCycle+k)%len(rounds)]
			d := rec.probe("tail.round10", root, func() { _, err = single.RequestTasks(ctx, ids) })
			if err != nil {
				return nil, fmt.Errorf("assignment round: %w", err)
			}
			roundMS = append(roundMS, ms(d))
		}
		if each != nil {
			if err := each(); err != nil {
				return nil, err
			}
		}
	}
	for name, xs := range fits {
		res.fitS[name] = minOf(xs)
	}
	res.restoreS, res.roundMS = minOf(restores), minOf(roundMS)
	return res, nil
}

// tailRoundWorkers picks the identities of the tail's assignment rounds
// from the head of a seeded rotation.
func tailRoundWorkers(w *world, seed int64) [][]string {
	n := tailCycles * tailRoundsPerCycle
	order := schedule(seed+11, n*roundWorkers, allIdentities(len(w.workerIDs)), nil, 0, 0, 0, 0)
	rounds := make([][]string, n)
	for i, s := range order {
		rounds[i/roundWorkers] = append(rounds[i/roundWorkers], w.workerIDs[s.Worker])
	}
	return rounds
}
