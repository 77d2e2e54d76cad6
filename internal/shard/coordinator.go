package shard

import (
	"slices"

	"poilabel/internal/assign"
	"poilabel/internal/core"
	"poilabel/internal/model"
)

// Coordinator plans task assignment over a partition node. A node is an
// assign.View over its global task indices, so a round is the single
// engine's: one AccOpt round (assign.Planner) over every task the node owns,
// trimmed to the round's budget by assign.Trim. Shards are for fitting; where
// a task lives decides nothing about who is offered it.
//
// Coordinator is not safe for concurrent use; its planner's scratch persists
// across rounds.
type Coordinator struct {
	s  *Sharded
	pl *assign.Planner
}

// NewCoordinator builds a coordinator over a partition node. The node is read
// live at every round, so plans follow the tasks, workers and answers added
// after construction.
func NewCoordinator(s *Sharded) *Coordinator { return &Coordinator{s: s, pl: assign.NewPlanner()} }

// AssignExcluding chooses up to h tasks per requesting worker, at most budget
// (worker, task) pairs in total (negative budget means unlimited), leaving
// out the tasks ex lists for each worker (global task IDs; a nil ex excludes
// nothing). Returned task IDs are global; duplicate workers are dropped.
func (c *Coordinator) AssignExcluding(workers []model.WorkerID, h, budget int, ex assign.Exclusions) assign.Assignment {
	if h <= 0 || budget == 0 {
		return assign.Assignment{}
	}
	return assign.Trim(c.pl.AssignExcluding(c.s, workers, h, ex), budget)
}

// The node as an assign.View over its global task indices. Task parameters,
// distances, coverage and per-task answer counts are the owning child's, one
// shardOf/localOf remap down (a nested child remaps again); worker parameters
// are the node's merged estimates, which a fit refreshes. Like core.Model,
// the view is live: hold whatever lock guards the node for a whole round.

// Config implements assign.View: the configuration every child model shares.
func (s *Sharded) Config() core.Config { return s.cfg.Model }

// Params implements assign.View. Its task rows borrow the owning children's
// current P(z) and P(d_t) rows; its worker rows are the merged estimates. The
// headers are rebuilt in the node's own scratch at every call, so the result
// is valid until the next call, fit or registration.
func (s *Sharded) Params() *core.Params {
	v, n := &s.view, len(s.tasks)
	v.PZ, v.PDT = slices.Grow(v.PZ[:0], n)[:n], slices.Grow(v.PDT[:0], n)[:n]
	for si, k := range s.kids {
		p := k.Params()
		for j, g := range s.parts[si] {
			v.PZ[g], v.PDT[g] = p.PZ[j], p.PDT[j]
		}
	}
	v.PI, v.PDW = s.pi, s.pdw
	return v
}

// Distance implements assign.View through the owning child, whose model
// caches it; like core.Model's, concurrent callers must query distinct
// workers.
func (s *Sharded) Distance(w model.WorkerID, t model.TaskID) float64 {
	return s.kids[s.shardOf[t]].Distance(w, model.TaskID(s.localOf[t]))
}

// HasAnswer implements assign.View.
func (s *Sharded) HasAnswer(w model.WorkerID, t model.TaskID) bool {
	return s.kids[s.shardOf[t]].HasAnswer(w, model.TaskID(s.localOf[t]))
}

// AnsweredTasks implements assign.View, asking only the children holding
// worker w's answers and remapping their local task IDs to global ones.
func (s *Sharded) AnsweredTasks(w model.WorkerID, buf []model.TaskID) []model.TaskID {
	for si, k := range s.kids {
		if s.counts[si][w] == 0 {
			continue
		}
		n := len(buf)
		buf = k.AnsweredTasks(w, buf)
		for i := n; i < len(buf); i++ {
			buf[i] = model.TaskID(s.parts[si][buf[i]])
		}
	}
	return buf
}

// WorkerAnswerCount implements assign.View: worker w's answers anywhere
// beneath the node.
func (s *Sharded) WorkerAnswerCount(w model.WorkerID) int {
	n := 0
	for si := range s.counts {
		n += s.counts[si][w]
	}
	return n
}

// TaskAnswerCount implements assign.View.
func (s *Sharded) TaskAnswerCount(t model.TaskID) int {
	return s.kids[s.shardOf[t]].TaskAnswerCount(model.TaskID(s.localOf[t]))
}
