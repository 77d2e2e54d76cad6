package model

import (
	"errors"
	"fmt"
)

// ErrDuplicateAnswer reports a second submission for a (worker, task) pair:
// the platform assigns each task to a worker at most once. Callers that
// retry submissions over a lossy transport rely on errors.Is against this
// sentinel to recognize "already recorded" — it is a durability signal, not
// just a validation failure.
var ErrDuplicateAnswer = errors.New("model: duplicate answer")

// AnswerSet is the growing answer log R with the per-task and per-worker
// indexes the inference and assignment algorithms need:
//
//	W(t) — the workers who have answered task t
//	T(w) — the tasks worker w has answered
//
// Answers are append-only; the framework never retracts a submission.
//
// The log itself is the embedded AnswerView — the whole of it, growing; Len,
// Answer, Pair and Votes are the view's.
type AnswerSet struct {
	AnswerView
	byTask map[TaskID][]int   // task -> indexes into answers
	byWork map[WorkerID][]int // worker -> indexes into answers
	done   map[pairKey]bool   // (worker, task) already answered
}

// AnswerView is a read-only run of answers in submission order: an AnswerSet's
// whole log, or — from Prefix — its first Len answers as the log stood when
// the view was taken, through the same backing arrays. The set only ever
// appends, so answers added after a prefix was taken land beyond its bounds
// and the two can be used from different goroutines: the prefix by a fit, the
// set by whoever keeps accepting answers. A view carries no indexes — those
// are maps the set updates in place.
//
// Besides the []Answer log it holds a structure-of-arrays mirror of the hot
// fields — parallel worker/task ID slices and the flattened vote bits — so
// the EM E-step can sweep the whole log through contiguous memory instead of
// chasing one Selected slice pointer per answer.
type AnswerView struct {
	answers []Answer
	// SoA mirror: workerIDs[i]/taskIDs[i] are answer i's pair, and
	// votes[voteOff[i]:voteOff[i+1]] its Selected bits.
	workerIDs []WorkerID
	taskIDs   []TaskID
	voteOff   []int32
	votes     []bool
}

type pairKey struct {
	w WorkerID
	t TaskID
}

// NewAnswerSet returns an empty answer set.
func NewAnswerSet() *AnswerSet {
	return &AnswerSet{
		AnswerView: AnswerView{voteOff: []int32{0}},
		byTask:     make(map[TaskID][]int),
		byWork:     make(map[WorkerID][]int),
		done:       make(map[pairKey]bool),
	}
}

// Add appends an answer. It rejects a duplicate (worker, task) submission:
// the platform assigns each task to a worker at most once.
func (s *AnswerSet) Add(a Answer) error {
	key := pairKey{a.Worker, a.Task}
	if s.done[key] {
		return fmt.Errorf("%w: worker %d on task %d", ErrDuplicateAnswer, a.Worker, a.Task)
	}
	idx := len(s.answers)
	s.answers = append(s.answers, a)
	s.byTask[a.Task] = append(s.byTask[a.Task], idx)
	s.byWork[a.Worker] = append(s.byWork[a.Worker], idx)
	s.done[key] = true
	s.workerIDs = append(s.workerIDs, a.Worker)
	s.taskIDs = append(s.taskIDs, a.Task)
	s.votes = append(s.votes, a.Selected...)
	s.voteOff = append(s.voteOff, int32(len(s.votes)))
	return nil
}

// MustAdd is Add but panics on duplicates, for test and generator code paths
// that construct answer sets programmatically.
func (s *AnswerSet) MustAdd(a Answer) {
	if err := s.Add(a); err != nil {
		panic(err)
	}
}

// Prefix returns a view of the first n answers, n at most Len.
func (s *AnswerSet) Prefix(n int) AnswerView {
	nv := int(s.voteOff[n])
	return AnswerView{
		answers:   s.answers[:n:n],
		workerIDs: s.workerIDs[:n:n],
		taskIDs:   s.taskIDs[:n:n],
		voteOff:   s.voteOff[: n+1 : n+1],
		votes:     s.votes[:nv:nv],
	}
}

// Len returns the number of answers in the view. Each answer covers one
// (worker, task) pair, so on a set Len is also the number of consumed
// assignments — the paper's budget unit.
func (v AnswerView) Len() int { return len(v.answers) }

// Answer returns the i-th answer in submission order. Callers must not
// mutate it.
func (v AnswerView) Answer(i int) *Answer { return &v.answers[i] }

// Pair returns the (worker, task) pair of the i-th answer without touching
// the Answer struct, reading the structure-of-arrays mirror.
func (v AnswerView) Pair(i int) (WorkerID, TaskID) { return v.workerIDs[i], v.taskIDs[i] }

// Votes returns the i-th answer's Selected bits as a slice into the
// flattened vote store. Callers must not mutate it.
func (v AnswerView) Votes(i int) []bool {
	lo, hi := int(v.voteOff[i]), int(v.voteOff[i+1])
	return v.votes[lo:hi:hi]
}

// All returns the backing answer slice. Callers must not mutate it.
func (s *AnswerSet) All() []Answer { return s.answers }

// Has reports whether worker w has already answered task t.
func (s *AnswerSet) Has(w WorkerID, t TaskID) bool {
	return s.done[pairKey{w, t}]
}

// ByTask returns the indexes of the answers on task t in submission order.
// The returned slice is owned by the answer set; callers must not mutate it.
func (s *AnswerSet) ByTask(t TaskID) []int { return s.byTask[t] }

// ByWorker returns the indexes of the answers by worker w.
func (s *AnswerSet) ByWorker(w WorkerID) []int { return s.byWork[w] }

// WorkersOf returns W(t), the distinct workers who answered task t.
func (s *AnswerSet) WorkersOf(t TaskID) []WorkerID {
	idxs := s.byTask[t]
	out := make([]WorkerID, len(idxs))
	for i, idx := range idxs {
		out[i] = s.answers[idx].Worker
	}
	return out
}

// TasksOf returns T(w), the distinct tasks answered by worker w.
func (s *AnswerSet) TasksOf(w WorkerID) []TaskID {
	idxs := s.byWork[w]
	out := make([]TaskID, len(idxs))
	for i, idx := range idxs {
		out[i] = s.answers[idx].Task
	}
	return out
}

// TaskAnswerCount returns |W(t)|, the number of answers task t has received.
func (s *AnswerSet) TaskAnswerCount(t TaskID) int { return len(s.byTask[t]) }

// WorkerAnswerCount returns |T(w)|.
func (s *AnswerSet) WorkerAnswerCount(w WorkerID) int { return len(s.byWork[w]) }

// Workers returns the IDs of all workers who have submitted at least one
// answer, in no particular order.
func (s *AnswerSet) Workers() []WorkerID {
	out := make([]WorkerID, 0, len(s.byWork))
	for w := range s.byWork {
		out = append(out, w)
	}
	return out
}

// Tasks returns the IDs of all tasks with at least one answer.
func (s *AnswerSet) Tasks() []TaskID {
	out := make([]TaskID, 0, len(s.byTask))
	for t := range s.byTask {
		out = append(out, t)
	}
	return out
}

// Clone returns a deep copy of the answer set. The experiment harness uses
// it to replay the same answer prefix through different inference models.
func (s *AnswerSet) Clone() *AnswerSet {
	c := NewAnswerSet()
	for _, a := range s.answers {
		dup := a
		dup.Selected = append([]bool(nil), a.Selected...)
		c.MustAdd(dup)
	}
	return c
}

// Truncate returns a new answer set holding only the first n answers in
// submission order. It is how budget sweeps (600..1000 assignments) replay
// prefixes of a single collected answer log, mirroring the paper's
// methodology of evaluating at increasing budget levels.
func (s *AnswerSet) Truncate(n int) *AnswerSet {
	if n > len(s.answers) {
		n = len(s.answers)
	}
	c := NewAnswerSet()
	for _, a := range s.answers[:n] {
		dup := a
		dup.Selected = append([]bool(nil), a.Selected...)
		c.MustAdd(dup)
	}
	return c
}
