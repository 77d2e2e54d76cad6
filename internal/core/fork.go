package core

import "poilabel/internal/model"

// Fork is a full fit's working set: everything EM reads, and the one thing it
// writes. The evidence — tasks, workers, the answer log and its f-values —
// is shared with the model the fork was taken from as length-bounded views
// of the same backing arrays; the model only ever appends to those, so it can
// keep accepting answers and registrations while another goroutine fits the
// fork. The parameters are the fork's own copy. The distance cache, the one
// store a model writes in place, is not part of a fork.
//
// A fork can be fitted and then adopted by its model, nothing else: it
// accepts no answers and plans nothing. Model.Reset rewrites the stores a
// fork shares and invalidates every fork taken before it.
type Fork struct {
	cfg     Config
	tasks   []model.Task
	workers []model.Worker
	answers model.AnswerView
	afv     []float64
	params  *Params
}

// inPlace returns the working set of a fit that rewrites the model's own
// parameters: a fork that shares them too.
func (m *Model) inPlace() *Fork {
	nt, nw, n := len(m.tasks), len(m.workers), m.answers.Len()
	nv := n * m.cfg.FuncSet.Len()
	return &Fork{
		cfg:     m.cfg,
		tasks:   m.tasks[:nt:nt],
		workers: m.workers[:nw:nw],
		answers: m.answers.Prefix(n),
		afv:     m.afv[:nv:nv],
		params:  m.params,
	}
}

// Fork captures the model as a fit will see it: the evidence as it stands,
// shared, and a copy of the current parameters to warm-start from. The cost
// is the parameter copy, whatever the length of the answer log.
func (m *Model) Fork() *Fork {
	f := m.inPlace()
	f.params = m.params.Clone()
	return f
}

// Answers returns the prefix of the answer log the fork sees.
func (f *Fork) Answers() model.AnswerView { return f.answers }

// Params returns the fork's parameters, under Model.Params' aliasing rules.
func (f *Fork) Params() *Params { return f.params }

// Adopt makes the parameters of f, a fitted fork of m, the model's own: the
// fitted rows for everything the fork saw, rows at the priors for tasks and
// workers registered since. With relearn it then re-applies the incremental
// update of Update to every answer the fork did not see, in arrival order and
// each over the log as it stood when that answer arrived — exactly the state a
// model reaches by fitting at the fork point and taking the registrations and
// answers afterwards. Without it the later answers stay logged, as Observe
// leaves them. The fork gives up its parameters and must not be used again.
func (m *Model) Adopt(f *Fork, relearn bool) {
	m.appendPriors(f.params)
	m.params = f.params
	if !relearn {
		return
	}
	for i := f.answers.Len(); i < m.answers.Len(); i++ {
		w, t := m.answers.Pair(i)
		m.refreshLocal(w, t, i+1)
	}
}
