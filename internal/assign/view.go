package assign

import (
	"slices"

	"poilabel/internal/core"
	"poilabel/internal/geo"
	"poilabel/internal/model"
)

// View is the read-only slice of model state an assigner needs: the task and
// worker sets, the current parameter estimates, worker–task distances, and
// the answered-pair coverage. Three implementations exist:
//
//   - *core.Model — the live model. Planning against it requires the caller
//     to hold whatever lock protects the model, and its lazy distance cache
//     allows at most one goroutine per worker row.
//   - *shard.Sharded — a live partition node over its global task indices:
//     task rows, distances and coverage read from the child owning each
//     task, worker rows from the node's merged estimates. The same locking
//     obligation as the model's, which its children are.
//   - *Snapshot — an immutable copy captured by SnapshotModel. Planning
//     against a Snapshot needs no lock at all and is safe from any number of
//     goroutines; the serving layer uses it to run AccOpt off the write lock
//     and validate the picks in a short optimistic commit afterwards.
//
// An assigner must treat a View as frozen for the duration of a round: every
// method returns the same value no matter how often or from which goroutine
// it is called (for the live views this is the caller's locking obligation,
// for *Snapshot it is structural).
type View interface {
	// Config returns the model configuration (function set, alpha, labels).
	Config() core.Config
	// Tasks returns the task set. Callers must not mutate it.
	Tasks() []model.Task
	// Workers returns the worker set. Callers must not mutate it.
	Workers() []model.Worker
	// Params returns the current parameter estimates. Callers must not
	// mutate them.
	Params() *core.Params
	// Distance returns the normalized worker–task distance (minimum over
	// the worker's locations).
	Distance(w model.WorkerID, t model.TaskID) float64
	// HasAnswer reports whether worker w has already answered task t.
	HasAnswer(w model.WorkerID, t model.TaskID) bool
	// AnsweredTasks appends T(w), the tasks worker w has answered, to buf in
	// no particular order and returns the extended slice: HasAnswer(w, t)
	// is true for exactly these tasks. The AccOpt row kernel marks a
	// worker's answered pairs from this list instead of probing HasAnswer
	// once per task.
	AnsweredTasks(w model.WorkerID, buf []model.TaskID) []model.TaskID
	// WorkerAnswerCount returns |T(w)|, the number of answers worker w has
	// given.
	WorkerAnswerCount(w model.WorkerID) int
	// TaskAnswerCount returns |W(t)|, the number of answers task t has
	// received.
	TaskAnswerCount(t model.TaskID) int
}

// Snapshot is an immutable, self-contained copy of the planning-relevant
// model state: cloned parameters, the task/worker slices as of capture,
// every worker's answered-task list, and the dense
// per-task numbers the row kernel reads (answer counts and U_t). It
// implements View; distances are recomputed on the fly through the captured
// normalizer (the same geo.Normalizer.MinDistance the live model caches), so
// a Snapshot's numbers are bit-identical to the model it was taken from.
//
// A Snapshot never changes after SnapshotModel returns, so any number of
// goroutines may plan against it concurrently without synchronization. The
// serving layer captures one per published parameter generation; planners
// using a stale Snapshot see stale coverage, which the optimistic commit
// re-validates against the live state.
type Snapshot struct {
	cfg     core.Config
	tasks   []model.Task
	workers []model.Worker
	params  *core.Params
	norm    geo.Normalizer
	// taskN and taskU are what taskState would write, computed once at
	// capture for every Candidates.build against the snapshot.
	taskN []int
	taskU []float64
	// answered[workerOff[w]:workerOff[w+1]] is T(w), the tasks worker w has
	// answered.
	answered  []model.TaskID
	workerOff []int
}

// SnapshotModel captures an immutable planning view of m, a live view — a
// *core.Model or a partition node — whose distances are m.Normalizer()'s.
// The caller must hold the lock protecting m for the duration of the call
// (capture reads the live answer log); afterwards the Snapshot is independent
// of m. Capture is O(|T| + |W| + |R|) time and memory: parameters are
// deep-copied, the append-only task/worker slices are captured by
// length-bounded reference, and the answer log is walked once, worker by
// worker, into one flat array of per-worker answered-task lists and dense
// per-task counts.
func SnapshotModel(m interface {
	View
	Normalizer() geo.Normalizer
}) *Snapshot {
	tasks := m.Tasks()
	workers := m.Workers()
	answers := 0
	for w := range workers {
		answers += m.WorkerAnswerCount(model.WorkerID(w))
	}
	s := &Snapshot{
		cfg:       m.Config(),
		tasks:     tasks[:len(tasks):len(tasks)],
		workers:   workers[:len(workers):len(workers)],
		params:    m.Params().Clone(),
		norm:      m.Normalizer(),
		taskN:     make([]int, len(tasks)),
		taskU:     make([]float64, len(tasks)),
		answered:  make([]model.TaskID, 0, answers),
		workerOff: make([]int, len(workers)+1),
	}
	for w := range workers {
		s.answered = m.AnsweredTasks(model.WorkerID(w), s.answered)
		s.workerOff[w+1] = len(s.answered)
		for _, t := range s.answered[s.workerOff[w]:] {
			s.taskN[t]++
		}
	}
	for t := range s.taskU {
		s.taskU[t] = spread(s.params.PZ[t])
	}
	return s
}

// Config implements View.
func (s *Snapshot) Config() core.Config { return s.cfg }

// Tasks implements View.
func (s *Snapshot) Tasks() []model.Task { return s.tasks }

// Workers implements View.
func (s *Snapshot) Workers() []model.Worker { return s.workers }

// Params implements View.
func (s *Snapshot) Params() *core.Params { return s.params }

// Distance implements View, recomputing the normalized minimum-over-locations
// distance on every call. Unlike the live model there is no cache, so it is
// safe from any goroutine.
func (s *Snapshot) Distance(w model.WorkerID, t model.TaskID) float64 {
	return s.norm.MinDistance(s.workers[w].Locations, s.tasks[t].Location)
}

// HasAnswer implements View against the coverage as of capture, scanning
// T(w): AccOpt reads the answered lists whole, so no pair set is kept.
func (s *Snapshot) HasAnswer(w model.WorkerID, t model.TaskID) bool {
	return slices.Contains(s.answered[s.workerOff[w]:s.workerOff[w+1]], t)
}

// AnsweredTasks implements View against the coverage as of capture.
func (s *Snapshot) AnsweredTasks(w model.WorkerID, buf []model.TaskID) []model.TaskID {
	return append(buf, s.answered[s.workerOff[w]:s.workerOff[w+1]]...)
}

// WorkerAnswerCount implements View against the coverage as of capture.
func (s *Snapshot) WorkerAnswerCount(w model.WorkerID) int {
	return s.workerOff[w+1] - s.workerOff[w]
}

// TaskAnswerCount implements View against the coverage as of capture.
func (s *Snapshot) TaskAnswerCount(t model.TaskID) int { return s.taskN[t] }

// NumAnswers returns the number of answered pairs captured in the snapshot.
func (s *Snapshot) NumAnswers() int { return len(s.answered) }
