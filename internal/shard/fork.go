package shard

import (
	"context"
	"fmt"
	"slices"

	"poilabel/internal/core"
	"poilabel/internal/geo"
	"poilabel/internal/model"
)

// Fork is a node as one fit sees it. What the node only ever appends to —
// tasks, workers, the arrival order, each shard's task list, and through the
// children's own forks their answer logs — is shared, as length-bounded views
// of the same backing arrays, so the node keeps routing answers and
// registrations while another goroutine fits the fork. What a fit writes (the
// merged estimates, fit durations and stats) and what the node rewrites in
// place (the per-child answer counts) are the fork's own copies: taking one
// costs a copy of the parameters, whatever the answer logs hold.
//
// A fork can be fitted and adopted by its node (a fit), or rebuilt at another
// layout into a fresh fitter that then replays what the node took in since (a
// migration). It accepts no answers and plans nothing.
type Fork struct {
	nodeFit
	lastFit FitStats

	// What Rebuild reads: the node's stores, and logs[si], the prefix of
	// shard si's answer log the fork sees (nil over nested children).
	cfg     Config
	norm    geo.Normalizer
	tasks   []model.Task
	workers []model.Worker
	parts   [][]int
	order   []int32
	logs    []model.AnswerView
}

// forkLeaf is a leaf's fork seen as a child of the node's fork.
type forkLeaf struct{ *core.Fork }

func (l forkLeaf) fit(ctx context.Context) (core.FitStats, error) { return l.FitContext(ctx) }

func (l forkLeaf) estimate(w model.WorkerID) (float64, []float64) {
	p := l.Params()
	return p.PI[w], p.PDW[w]
}

// Fork captures the node as a fit will see it, forking every child.
func (s *Sharded) Fork() *Fork {
	nt, nw, no := len(s.tasks), len(s.workers), len(s.order)
	f := &Fork{
		nodeFit: s.nodeFit,
		cfg:     s.cfg,
		norm:    s.norm,
		tasks:   s.tasks[:nt:nt],
		workers: s.workers[:nw:nw],
		parts:   make([][]int, len(s.parts)),
		order:   s.order[:no:no],
	}
	f.fits = make([]fitKid, len(s.kids))
	f.counts = cloneLayout(s.counts)
	f.lastFitDur = slices.Clone(s.lastFitDur)
	f.pi, f.pdw = slices.Clone(s.pi), make([][]float64, len(s.pdw))
	for w := range s.pdw {
		f.pdw[w] = slices.Clone(s.pdw[w])
	}
	for si, k := range s.kids {
		f.fits[si] = k.fork()
		f.parts[si] = s.parts[si][:len(s.parts[si]):len(s.parts[si])]
		if l, ok := f.fits[si].(forkLeaf); ok {
			f.logs = append(f.logs, l.Answers())
		}
	}
	return f
}

func (s *Sharded) fork() fitKid { return s.Fork() }

// FitContext is Sharded.FitContext over the fork: the children's forks are
// fitted and the merge rewrites the fork's own estimates. The node is not
// touched until it adopts the fork.
func (f *Fork) FitContext(ctx context.Context) (FitStats, error) {
	st, err := f.fitContext(ctx)
	f.lastFit = st
	return st, err
}

func (f *Fork) fit(ctx context.Context) (core.FitStats, error) {
	st, err := f.FitContext(ctx)
	return st.summary(), err
}

func (f *Fork) estimate(w model.WorkerID) (float64, []float64) { return f.pi[w], f.pdw[w] }

// Adopt makes the outcome of fitting f, a fork of s, the node's own: every
// child adopts its fork's parameters, and the merged estimates, fit durations
// and stats replace the node's. Tasks and workers registered since the fork
// stay at the priors and answers observed since stay logged, exactly as after
// fitting at the fork point and taking them afterwards. The fork must not be
// used again.
func (s *Sharded) Adopt(f *Fork) {
	for si, k := range s.kids {
		k.adopt(f.fits[si])
	}
	copy(s.pi, f.pi)
	for w := range f.pdw {
		copy(s.pdw[w], f.pdw[w])
	}
	copy(s.lastFitDur, f.lastFitDur)
	s.lastFit = f.lastFit
}

func (s *Sharded) adopt(k fitKid) { s.Adopt(k.(*Fork)) }

// Rebuild is Sharded.Rebuild over what the fork sees.
func (f *Fork) Rebuild(layout [][]int) (*Sharded, error) {
	if f.logs == nil {
		return nil, fmt.Errorf("shard: rebuild of a nested fitter")
	}
	return rebuild(f.cfg, f.tasks, f.workers, f.norm, layout, f.order, f.logs, f.parts)
}

// Partition and Tasks are Sharded's, as the fork sees them.
func (f *Fork) Partition() [][]int  { return f.parts }
func (f *Fork) Tasks() []model.Task { return f.tasks }

// ReplaySince brings dst — a fitter rebuilt from f, a fork of s — up to where
// s is now: the tasks and workers s registered since the fork, then every
// answer it observed since, in arrival order.
func (s *Sharded) ReplaySince(f *Fork, dst *Sharded) error {
	for _, t := range s.tasks[len(f.tasks):] {
		if err := dst.AddTask(t); err != nil {
			return err
		}
	}
	for _, w := range s.workers[len(f.workers):] {
		if err := dst.AddWorker(w); err != nil {
			return err
		}
	}
	cursor := make([]int, len(f.logs))
	for si := range f.logs {
		cursor[si] = f.logs[si].Len()
	}
	return replay(dst, s.order[len(f.order):], s.logs(), s.parts, cursor)
}
