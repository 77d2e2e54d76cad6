package shard

import (
	"fmt"

	"poilabel/internal/core"
	"poilabel/internal/model"
	"poilabel/internal/snapshot"
)

// CheckpointState captures the fitter's learned state in the durable
// snapshot wire format: every shard's model state (answer logs carry
// shard-local task IDs), the merged per-worker estimates, the
// construction-time layout, and the global answer arrival order. The layout
// travels explicitly because elastic migration makes it state, not a
// deterministic function of the construction-time task set: the restoring
// side rebuilds the fitter from Layout before calling RestoreState, then
// replays the AddTask sequence.
func (s *Sharded) CheckpointState() *snapshot.ShardedState {
	st := &snapshot.ShardedState{
		Shards: make([]snapshot.ModelState, len(s.models)),
		PI:     append([]float64(nil), s.pi...),
		PDW:    make([][]float64, len(s.pdw)),
		Layout: cloneLayout(s.baseParts),
		Order:  make([]int, len(s.order)),
	}
	for si, m := range s.models {
		st.Shards[si] = *m.CheckpointState()
	}
	for w := range s.pdw {
		st.PDW[w] = append([]float64(nil), s.pdw[w]...)
	}
	for i, si := range s.order {
		st.Order[i] = int(si)
	}
	return st
}

// RestoreState replaces the fitter's learned state with one captured by
// CheckpointState. The fitter must have been constructed over the same task
// and worker sets (shape mismatches are rejected); per-shard answer counts
// are recomputed from the restored logs. On error the fitter may hold a
// partially restored state and should be discarded.
func (s *Sharded) RestoreState(st *snapshot.ShardedState) error {
	if st == nil {
		return fmt.Errorf("shard: nil state")
	}
	if len(st.Shards) != len(s.models) {
		return fmt.Errorf("shard: snapshot has %d shards, fitter has %d", len(st.Shards), len(s.models))
	}
	for si, m := range s.models {
		if err := m.RestoreState(&st.Shards[si]); err != nil {
			return fmt.Errorf("shard %d: %w", si, err)
		}
	}
	if err := s.RestoreMerged(st.PI, st.PDW); err != nil {
		return err
	}
	return s.restoreOrder(st.Order)
}

// RestoreMerged finishes a restore once every child holds its restored
// state: it recounts each child's per-worker answers and installs the
// captured merged estimates. It is the node-level half of RestoreState,
// exported for the adapter that restores nested children from its own wire
// type (internal/federation).
func (s *Sharded) RestoreMerged(pi []float64, pdw [][]float64) error {
	if len(pi) != len(s.workers) || len(pdw) != len(s.workers) {
		return fmt.Errorf("shard: snapshot has %d/%d merged worker rows, fitter has %d",
			len(pi), len(pdw), len(s.workers))
	}
	nf := s.cfg.Model.FuncSet.Len()
	for w := range pdw {
		if len(pdw[w]) != nf {
			return fmt.Errorf("shard: snapshot worker %d has %d sensitivity weights, fitter has %d",
				w, len(pdw[w]), nf)
		}
	}
	// The merged rows are worker estimates like any leaf's — served to
	// readers and weighted into the next merge — so they pass the leaf's rule.
	if err := (&core.Params{PI: pi, PDW: pdw}).Validate(); err != nil {
		return fmt.Errorf("shard: merged worker estimates: %w", err)
	}
	for si, k := range s.kids {
		for w := range s.counts[si] {
			s.counts[si][w] = k.WorkerAnswerCount(model.WorkerID(w))
		}
	}
	for w := range s.pi {
		s.pi[w] = pi[w]
		copy(s.pdw[w], pdw[w])
	}
	return nil
}

// restoreOrder rebuilds the global arrival log from the snapshot. A recorded
// order must be consistent with the restored per-shard logs; snapshots
// written before elastic sharding carry none, so a shard-major order is
// synthesized — per-shard state is unaffected, only the replay order of a
// later migration differs from the original arrival order.
func (s *Sharded) restoreOrder(order []int) error {
	total := 0
	for _, m := range s.models {
		total += m.Answers().Len()
	}
	s.order = s.order[:0]
	if order == nil {
		for si, m := range s.models {
			for i := 0; i < m.Answers().Len(); i++ {
				s.order = append(s.order, int32(si))
			}
		}
		return nil
	}
	if len(order) != total {
		return fmt.Errorf("shard: snapshot order has %d entries, logs hold %d answers", len(order), total)
	}
	perShard := make([]int, len(s.models))
	for _, si := range order {
		if si < 0 || si >= len(s.models) {
			return fmt.Errorf("shard: snapshot order references shard %d, fitter has %d", si, len(s.models))
		}
		perShard[si]++
		s.order = append(s.order, int32(si))
	}
	for si, m := range s.models {
		if perShard[si] != m.Answers().Len() {
			return fmt.Errorf("shard: snapshot order routes %d answers to shard %d, its log holds %d",
				perShard[si], si, m.Answers().Len())
		}
	}
	return nil
}
