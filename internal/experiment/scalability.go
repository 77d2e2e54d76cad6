package experiment

import (
	"fmt"
	"math/rand"
	"time"

	"poilabel/internal/assign"
	"poilabel/internal/crowd"
	"poilabel/internal/dataset"
	"poilabel/internal/model"
	"poilabel/internal/stats"
)

// SyntheticEnv builds a large synthetic environment for the scalability
// experiments (the paper's Section V-E uses a synthetic dataset of POIs and
// workers) and for the benchmark harness.
func SyntheticEnv(numTasks, numWorkers int, seed int64) (*Env, error) {
	data := dataset.Generate(dataset.Config{
		Name:     "synthetic",
		NumTasks: numTasks,
		Clusters: 20,
	}, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	pop := crowd.DefaultPopulation(data.Bounds)
	pop.NumWorkers = numWorkers
	pop.Anchors = taskPoints(data)
	workers, profiles, err := crowd.GeneratePopulation(pop, rng)
	if err != nil {
		return nil, err
	}
	sim, err := crowd.NewSimulator(data, workers, profiles, seed+2)
	if err != nil {
		return nil, err
	}
	s := DefaultScenario("Beijing", seed) // model config template
	return &Env{Scenario: s, Data: data, Workers: workers, Profiles: profiles, Sim: sim}, nil
}

// Fig13Result is the paper's Figure 13: inference scalability — elapsed
// time and EM iteration count as the number of assignments grows.
type Fig13Result struct {
	Assignments []int
	// Seconds[i] is the wall-clock full-EM time at Assignments[i].
	Seconds []float64
	// Iterations[i] is the EM iteration count.
	Iterations []int
}

// Fig13Sizes is the paper's sweep: 10k to 50k assignments.
var Fig13Sizes = []int{10000, 20000, 30000, 40000, 50000}

// RunFig13 generates a synthetic workload and fits the full EM at each
// answer-count level.
func RunFig13(seed int64, sizes []int) (*Fig13Result, error) {
	if len(sizes) == 0 {
		sizes = Fig13Sizes
	}
	// Enough tasks that each holds ~5 answers at the largest sweep point,
	// with 100 workers as in the paper's assignment scalability setup.
	env, err := SyntheticEnv(sizes[len(sizes)-1]/5, 100, seed)
	if err != nil {
		return nil, err
	}
	full, err := env.Sim.CollectBiased(5, 0.10, 0.45)
	if err != nil {
		return nil, err
	}

	res := &Fig13Result{}
	for _, n := range sizes {
		answers := full.Truncate(n)
		m, err := env.NewModel()
		if err != nil {
			return nil, err
		}
		for _, a := range answers.All() {
			if err := m.Observe(a); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		fit := m.Fit()
		res.Assignments = append(res.Assignments, n)
		res.Seconds = append(res.Seconds, time.Since(start).Seconds())
		res.Iterations = append(res.Iterations, fit.Iterations)
	}
	return res, nil
}

// Table renders the figure's two series.
func (r *Fig13Result) Table() *stats.Table {
	t := stats.NewTable("Figure 13: scalability of the inference model",
		"#assignments", "elapsed (s)", "#iterations")
	for i, n := range r.Assignments {
		t.AddRowf(n, fmt.Sprintf("%.3f", r.Seconds[i]), r.Iterations[i])
	}
	return t
}

func (r *Fig13Result) String() string { return r.Table().String() }

// Fig14Result is the paper's Figure 14: assignment scalability — average
// AccOpt running time as (a) the number of tasks grows under 100 workers
// and (b) the number of workers grows under 10k tasks.
type Fig14Result struct {
	// VaryTasks sweeps task counts with 100 workers.
	TaskCounts []int
	TaskMs     []float64
	// VaryWorkers sweeps worker counts with 10000 tasks.
	WorkerCounts []int
	WorkerMs     []float64
}

// Fig14 sweep points, following the paper's text (Section V-E).
var (
	Fig14TaskCounts   = []int{2000, 4000, 6000, 8000, 10000}
	Fig14WorkerCounts = []int{20, 40, 60, 80, 100}
)

// RunFig14 measures AccOpt assignment time on synthetic workloads. Each
// measurement warms the model with one answer per ~10 tasks so the
// estimator exercises its non-trivial paths.
func RunFig14(seed int64, taskCounts, workerCounts []int) (*Fig14Result, error) {
	if len(taskCounts) == 0 {
		taskCounts = Fig14TaskCounts
	}
	if len(workerCounts) == 0 {
		workerCounts = Fig14WorkerCounts
	}
	res := &Fig14Result{}
	for _, nt := range taskCounts {
		ms, err := timeAssignment(nt, 100, seed)
		if err != nil {
			return nil, err
		}
		res.TaskCounts = append(res.TaskCounts, nt)
		res.TaskMs = append(res.TaskMs, ms)
	}
	for _, nw := range workerCounts {
		ms, err := timeAssignment(10000, nw, seed)
		if err != nil {
			return nil, err
		}
		res.WorkerCounts = append(res.WorkerCounts, nw)
		res.WorkerMs = append(res.WorkerMs, ms)
	}
	return res, nil
}

func timeAssignment(numTasks, numWorkers int, seed int64) (float64, error) {
	env, err := SyntheticEnv(numTasks, numWorkers, seed)
	if err != nil {
		return 0, err
	}
	m, err := env.NewModel()
	if err != nil {
		return 0, err
	}
	// Warm the model with a sparse answer prefix so worker qualities and
	// task states are non-uniform.
	rng := rand.New(rand.NewSource(seed + 3))
	for t := 0; t < numTasks; t += 10 {
		w := model.WorkerID(rng.Intn(numWorkers))
		if err := m.Observe(env.Sim.Answer(w, model.TaskID(t))); err != nil {
			return 0, err
		}
	}
	m.Fit()

	available := env.Sim.SampleAvailable(numWorkers)
	start := time.Now()
	a := assign.AccOpt{}.Assign(m, available, 2)
	elapsed := time.Since(start)
	if a.TotalTasks() == 0 {
		return 0, fmt.Errorf("experiment: empty assignment for %d tasks, %d workers", numTasks, numWorkers)
	}
	return float64(elapsed.Microseconds()) / 1000, nil
}

// Table renders both sweeps.
func (r *Fig14Result) Table() *stats.Table {
	t := stats.NewTable("Figure 14(a): assignment scalability, varying #tasks (100 workers, h=2)",
		"#tasks", "avg time (ms)")
	for i, n := range r.TaskCounts {
		t.AddRowf(n, fmt.Sprintf("%.1f", r.TaskMs[i]))
	}
	return t
}

// WorkerTable renders the worker sweep.
func (r *Fig14Result) WorkerTable() *stats.Table {
	t := stats.NewTable("Figure 14(b): assignment scalability, varying #workers (10000 tasks, h=2)",
		"#workers", "avg time (ms)")
	for i, n := range r.WorkerCounts {
		t.AddRowf(n, fmt.Sprintf("%.1f", r.WorkerMs[i]))
	}
	return t
}

func (r *Fig14Result) String() string {
	return r.Table().String() + "\n" + r.WorkerTable().String()
}
