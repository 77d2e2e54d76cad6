package main

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"time"

	"poilabel"
)

// referenceSeconds is BENCHMARK.json's run_seconds: the op counts below are
// sized so that the measured phase of every workload takes about this long
// on the reference box (2 vCPU). -seconds scales them linearly, so one
// (workload, seconds) pair is always the same amount of work.
const referenceSeconds = 10

// Fixed-work constants, per second of -seconds. They were sized once on the
// reference box and are never adapted at run time: a faster program finishes
// the same work sooner, it is not given more.
const (
	// closedSingleBudgetPerSec: assignment budget of closed-single. The run
	// ends on the terminal 402, so this is also its answer count.
	closedSingleBudgetPerSec = 2600
	// openRatePerSec: offered session rate of open-sharded, about a third of
	// what the sharded engine sustains closed-loop on the reference box.
	openRatePerSec = 300
	// driftAnswersPerSec: answers per second of -seconds in drift-elastic,
	// half of them before the drift and half after.
	driftAnswersPerSec = 1500
	// batchBudgetPerSec: assignment budget of the batch collect phase.
	batchBudgetPerSec = 2000
)

const (
	tasksPerRequest = 2 // the paper's h
	serveTasks      = 8000
	openTasks       = 2500
	batchTasks      = 5000
	numWorkers      = 100
	// warmupShare of the sessions come first and are left out of every
	// latency and throughput number.
	warmupShare = 0.10
	// openResultsEvery / openInfoEvery: reads beside the writes on
	// open-sharded.
	openResultsEvery = 60
	openInfoEvery    = 10
	// roundWorkers is the paper's assignment round: ten workers ask at once.
	roundWorkers = 10
	// minAccuracy is the correctness gate on label_accuracy.
	minAccuracy = 0.80
)

type loopKind int

const (
	loopClosed loopKind = iota
	loopOpen
	loopBatch
)

// spec is one workload: the operator-facing poiserve flags it runs under and
// the traffic the driver offers. The same fields produce the flags of the
// spawned server (untraced) and the ServiceOptions of the in-process one
// (traced), so both modes run one configuration.
type spec struct {
	name    string
	seconds float64
	loop    loopKind

	tasks   int
	engine  poilabel.EngineKind
	shards  int
	bgFit   time.Duration
	bgMin   int
	budget  int // -1 = unlimited
	elastic time.Duration

	sessions int     // sessions in the schedule
	driftAt  int     // first session of the drift phase; 0 = no drift
	rate     float64 // open loop only
}

var workloadWhy = map[string]string{
	"closed-single": "closed loop at saturation on the default engine: per-answer incremental EM, lock-free planning and candidate lists do the work; shard and snapshot do none",
	"open-sharded":  "open loop at a fixed 300 sessions/s with reads beside writes on the sharded engine, which plans under the write lock; core.Update and Candidates do nothing here",
	"drift-elastic": "closed loop whose second half comes from one quadrant only: the one workload where elastic split/merge, shard.Rebuild and live migration run",
	"batch":         "the paper's alternating protocol in process, no HTTP and no fit pipeline, then cold fits on three engines and a checkpoint restart: where federation and snapshot do the work",
}

var workloadNames = []string{"closed-single", "open-sharded", "drift-elastic", "batch"}

// newSpec sizes workload name for a run of the given length.
func newSpec(name string, seconds float64) (spec, error) {
	if seconds <= 0 {
		return spec{}, fmt.Errorf("seconds must be positive, got %v", seconds)
	}
	scale := func(perSec float64) int { return int(math.Round(perSec * seconds)) }
	s := spec{name: name, seconds: seconds, tasks: serveTasks, budget: -1, bgFit: 2 * time.Second, bgMin: 2000}
	switch name {
	case "closed-single":
		s.loop, s.engine = loopClosed, poilabel.EngineSingle
		// More than the whole budget: the cadence alone triggers fits. At
		// 2 000 the eager trigger fires as well (3 000 to 5 000 answers arrive
		// between two ticks), the two interleave differently every run, and a
		// run publishes anything from 8 to 12 generations - a quarter up or
		// down in answers_per_s.
		s.bgMin = 100000
		s.budget = scale(closedSingleBudgetPerSec)
		s.sessions = s.budget / tasksPerRequest
	case "open-sharded":
		s.loop, s.engine, s.shards, s.tasks = loopOpen, poilabel.EngineSharded, 4, openTasks
		s.rate = openRatePerSec
		s.sessions = scale(openRatePerSec)
	case "drift-elastic":
		s.loop, s.engine, s.shards = loopClosed, poilabel.EngineSharded, 4
		s.bgFit, s.bgMin, s.elastic = 250*time.Millisecond, 256, time.Second
		s.sessions = scale(driftAnswersPerSec) / tasksPerRequest
		s.driftAt = s.sessions / 2
	case "batch":
		s.loop, s.engine, s.tasks = loopBatch, poilabel.EngineSingle, batchTasks
		s.bgFit, s.bgMin = 0, 0
		s.budget = scale(batchBudgetPerSec)
	default:
		return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return s, nil
}

func (s spec) engineName() string { return s.engine.String() }

// flags are the poiserve arguments of the workload, drawn only from the
// operator-facing set -addr -engine -shards -bg-fit -bg-min-answers -budget
// -elastic -elastic-check. Everything else stays at poiserve's defaults.
func (s spec) flags(addr string) []string {
	f := []string{"-addr", addr, "-engine", s.engineName(),
		"-bg-fit", s.bgFit.String(), "-bg-min-answers", strconv.Itoa(s.bgMin)}
	if s.shards > 0 {
		f = append(f, "-shards", strconv.Itoa(s.shards))
	}
	if s.budget >= 0 {
		f = append(f, "-budget", strconv.Itoa(s.budget))
	}
	if s.elastic > 0 {
		f = append(f, "-elastic", "-elastic-check", s.elastic.String())
	}
	return f
}

// options are the ServiceOptions cmd/poiserve builds from flags(): its
// defaults (-h 2, -fullem 100, -seed 7, accopt) spelled out, so the
// in-process server of a traced run is configured like the spawned one.
func (s spec) options() []poilabel.ServiceOption {
	o := []poilabel.ServiceOption{
		poilabel.WithBudget(s.budget),
		poilabel.WithTasksPerRequest(tasksPerRequest),
		poilabel.WithFullEMInterval(100),
		poilabel.WithSeed(7),
		poilabel.WithShards(s.shards),
		poilabel.WithEngine(s.engine),
		poilabel.WithAssigner(poilabel.AssignerAccOpt),
	}
	if s.bgFit > 0 {
		o = append(o, poilabel.WithBackgroundFit(s.bgFit, s.bgMin))
	}
	if s.elastic > 0 {
		o = append(o, poilabel.WithElasticShards(poilabel.ElasticConfig{CheckInterval: s.elastic}))
	}
	return o
}

// connections is how many HTTP connections (and sender goroutines) the
// driver uses: never more than the box has processors, because client and
// server share them.
func connections() int {
	return min(2, runtime.NumCPU())
}
