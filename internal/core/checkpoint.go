package core

import (
	"fmt"

	"poilabel/internal/model"
	"poilabel/internal/snapshot"
)

// CheckpointState captures the model's learned state in the durable
// snapshot wire format: the answer log in submission order and the current
// parameter estimates, both deep copies. Derived stores (the answer-indexed
// f-values, the distance cache) are not serialized; RestoreState rebuilds
// them. The state does not carry the task/worker definitions or the model
// configuration; RestoreState validates shape compatibility against the
// model it is applied to.
func (m *Model) CheckpointState() *snapshot.ModelState {
	answers := m.answers.All()
	p := m.params.Clone()
	st := &snapshot.ModelState{
		Answers: make([]snapshot.Answer, len(answers)),
		Params:  snapshot.Params{PZ: p.PZ, PI: p.PI, PDW: p.PDW, PDT: p.PDT},
	}
	for i, a := range answers {
		st.Answers[i] = snapshot.Answer{Worker: int(a.Worker), Task: int(a.Task), Selected: append([]bool(nil), a.Selected...)}
	}
	return st
}

// RestoreState replaces the model's answers and parameters with a state
// captured by CheckpointState. The state must have been taken from a model
// with the same tasks, workers and function set; shape mismatches, parameters
// that are not probabilities and answers the model could not have accepted
// are rejected with the model left unchanged. The model takes ownership of
// the state's slices; do not reuse st after a successful restore.
func (m *Model) RestoreState(st *snapshot.ModelState) error {
	if st == nil {
		return fmt.Errorf("core: nil model state")
	}
	p := &Params{PZ: st.Params.PZ, PI: st.Params.PI, PDW: st.Params.PDW, PDT: st.Params.PDT}
	if err := m.checkShape(p); err != nil {
		return err
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	answers := model.NewAnswerSet()
	for _, sa := range st.Answers {
		a := model.Answer{Worker: model.WorkerID(sa.Worker), Task: model.TaskID(sa.Task), Selected: sa.Selected}
		if int(a.Task) < 0 || int(a.Task) >= len(m.tasks) {
			return fmt.Errorf("core: restore: answer references unknown task %d", a.Task)
		}
		if int(a.Worker) < 0 || int(a.Worker) >= len(m.workers) {
			return fmt.Errorf("core: restore: answer references unknown worker %d", a.Worker)
		}
		if err := a.Validate(&m.tasks[a.Task]); err != nil {
			return fmt.Errorf("core: restore: %w", err)
		}
		if err := answers.Add(a); err != nil {
			return fmt.Errorf("core: restore: %w", err)
		}
	}
	m.answers = answers
	m.params = p.Clone()
	// Rebuild the answer-indexed f-value store for the restored log.
	m.afv = make([]float64, 0, answers.Len()*m.cfg.FuncSet.Len())
	for i := 0; i < answers.Len(); i++ {
		w, t := answers.Pair(i)
		m.appendFVals(w, t)
	}
	return nil
}

// checkShape verifies that p matches this model's dimensions.
func (m *Model) checkShape(p *Params) error {
	nf := m.cfg.FuncSet.Len()
	if len(p.PZ) != len(m.tasks) || len(p.PDT) != len(m.tasks) {
		return fmt.Errorf("core: checkpoint has %d/%d task rows, model has %d",
			len(p.PZ), len(p.PDT), len(m.tasks))
	}
	if len(p.PI) != len(m.workers) || len(p.PDW) != len(m.workers) {
		return fmt.Errorf("core: checkpoint has %d/%d worker rows, model has %d",
			len(p.PI), len(p.PDW), len(m.workers))
	}
	for t := range m.tasks {
		if len(p.PZ[t]) != len(m.tasks[t].Labels) {
			return fmt.Errorf("core: checkpoint task %d has %d labels, model has %d",
				t, len(p.PZ[t]), len(m.tasks[t].Labels))
		}
		if len(p.PDT[t]) != nf {
			return fmt.Errorf("core: checkpoint task %d has %d function weights, model has %d",
				t, len(p.PDT[t]), nf)
		}
	}
	for w := range m.workers {
		if len(p.PDW[w]) != nf {
			return fmt.Errorf("core: checkpoint worker %d has %d function weights, model has %d",
				w, len(p.PDW[w]), nf)
		}
	}
	return nil
}
