package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"poilabel"
	"poilabel/internal/crowd"
	"poilabel/internal/dataset"
	"poilabel/internal/model"
)

// world is the driver's copy of one seeded labelling campaign: tasks,
// worker identities, the latent truth, and one answer stream per identity.
// The program under test never sees the truth or the profiles; it receives
// the tasks and workers over its registration API and the answers one by
// one.
type world struct {
	data      *dataset.Dataset
	workers   []model.Worker
	taskIDs   []string
	workerIDs []string
	taskIdx   map[string]int

	sims []simSlot
	// probe is the answer stream of the layer probes, apart from the
	// identities' own so that probing leaves the traffic's answers as they
	// would have been.
	probe simSlot
}

// simSlot guards one identity's answer stream: two connections may serve the
// same identity back to back, and a simulator's RNG is not goroutine-safe.
type simSlot struct {
	mu  sync.Mutex
	sim *crowd.Simulator
}

// worldSeed fixes the campaign - tasks, worker population, latent truth - for
// every run. -seed varies what the crowd does in it: who arrives when, and
// each identity's answer noise. Label accuracy moves by ±2 % between worlds
// (how many of 100 workers are drawn unqualified) and by a tenth of that
// between crowds in one world, so one world is what lets a 1 % accuracy
// regression show.
const worldSeed = 20160516

func newWorld(numTasks, numWorkers int, seed int64) (*world, error) {
	data, workers, profiles, err := crowd.DemoWorld(numTasks, numWorkers, worldSeed)
	if err != nil {
		return nil, err
	}
	base, err := crowd.NewSimulator(data, workers, profiles, seed+2)
	if err != nil {
		return nil, err
	}
	w := &world{
		data:      data,
		workers:   workers,
		taskIDs:   make([]string, len(data.Tasks)),
		workerIDs: make([]string, len(workers)),
		taskIdx:   make(map[string]int, len(data.Tasks)),
		sims:      make([]simSlot, len(workers)),
	}
	for i := range data.Tasks {
		w.taskIDs[i] = fmt.Sprintf("t%d", i)
		w.taskIdx[w.taskIDs[i]] = i
	}
	for i := range workers {
		w.workerIDs[i] = fmt.Sprintf("w%d", i)
		w.sims[i].sim = base.Clone(seed + 100 + int64(i))
	}
	w.probe.sim = base.Clone(seed + 99)
	return w, nil
}

func (w *world) taskSpec(i int) poilabel.TaskSpec {
	t := w.data.Tasks[i]
	return poilabel.TaskSpec{Name: t.Name, Location: t.Location, Labels: t.Labels, Reviews: t.Reviews}
}

func (w *world) workerSpec(i int) poilabel.WorkerSpec {
	return poilabel.WorkerSpec{Name: w.workers[i].Name, Locations: w.workers[i].Locations}
}

// answer draws identity wi's votes on task ti from its stream.
func (w *world) answer(wi, ti int) model.Answer {
	s := &w.sims[wi]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sim.Answer(model.WorkerID(wi), model.TaskID(ti))
}

// probeAnswer draws votes from the probes' own stream.
func (w *world) probeAnswer(wi, ti int) model.Answer {
	w.probe.mu.Lock()
	defer w.probe.mu.Unlock()
	return w.probe.sim.Answer(model.WorkerID(wi), model.TaskID(ti))
}

// hotQuadrant returns the identities whose first location lies in the most
// populated quadrant of the tasks' bounding box: the pool the drift phase
// moves all traffic onto.
func (w *world) hotQuadrant() []int {
	b := w.data.Bounds
	cx, cy := (b.Min.X+b.Max.X)/2, (b.Min.Y+b.Max.Y)/2
	var quads [4][]int
	for i, wk := range w.workers {
		p := wk.Locations[0]
		q := 0
		if p.X > cx {
			q |= 1
		}
		if p.Y > cy {
			q |= 2
		}
		quads[q] = append(quads[q], i)
	}
	best := 0
	for q := 1; q < 4; q++ {
		if len(quads[q]) > len(quads[best]) {
			best = q
		}
	}
	return quads[best]
}

// session is one visit of a worker identity: ask for tasks, answer each
// one. The schedule is a function of the seed alone, so the traced and the
// untraced run of a workload issue the same sessions in the same order.
type session struct {
	Worker int `json:"worker"`
	// Due is the open-loop send time, relative to the start of traffic; the
	// closed loop ignores it.
	Due time.Duration `json:"due_ns"`
	// Results and Info add a GET /results and a GET /workers/{id} to the
	// session.
	Results bool `json:"results,omitempty"`
	Info    bool `json:"info,omitempty"`
}

// schedule builds n sessions rotating over pool in seeded permutations (every
// identity is visited once before any is visited again), switching to
// driftPool from session driftAt on. rate > 0 adds Poisson due times at that
// many sessions per second.
func schedule(seed int64, n int, pool, driftPool []int, driftAt int, rate float64, resultsEvery, infoEvery int) []session {
	rng := rand.New(rand.NewSource(seed + 3))
	out := make([]session, n)
	var perm []int
	next := func(p []int) int {
		if len(perm) == 0 {
			perm = append(perm, p...)
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		}
		v := perm[len(perm)-1]
		perm = perm[:len(perm)-1]
		return v
	}
	var due float64
	for i := range out {
		p := pool
		if driftPool != nil && i >= driftAt {
			if i == driftAt {
				perm = perm[:0]
			}
			p = driftPool
		}
		out[i].Worker = next(p)
		if rate > 0 {
			due += rng.ExpFloat64() / rate
			out[i].Due = time.Duration(due * float64(time.Second))
		}
		out[i].Results = resultsEvery > 0 && i%resultsEvery == resultsEvery-1
		out[i].Info = infoEvery > 0 && i%infoEvery == infoEvery-1
	}
	return out
}

func allIdentities(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// accuracy is the paper's Eq. 1 over results keyed by task ID.
func (w *world) accuracy(results []poilabel.TaskResult) (float64, error) {
	if len(results) != len(w.taskIDs) {
		return 0, fmt.Errorf("results cover %d tasks, world has %d", len(results), len(w.taskIDs))
	}
	res := &model.Result{
		Prob:     make([][]float64, len(w.taskIDs)),
		Inferred: make([][]bool, len(w.taskIDs)),
	}
	for _, r := range results {
		ti, ok := w.taskIdx[r.Task]
		if !ok || res.Inferred[ti] != nil {
			return 0, fmt.Errorf("results name task %q, unknown or twice", r.Task)
		}
		res.Prob[ti], res.Inferred[ti] = r.Prob, r.Inferred
	}
	acc := poilabel.Accuracy(res, w.data.Truth)
	if math.IsNaN(acc) {
		return 0, fmt.Errorf("accuracy is NaN")
	}
	return acc, nil
}
