package poilabel

import (
	"fmt"
	"io"
	"os"

	"poilabel/internal/snapshot"
)

// Checkpoint serializes the service's full durable state — registered tasks
// and workers with their stable IDs, every observed answer, every estimated
// parameter, pending (handed-out, unanswered) pairs, and the remaining
// budget — to w in the versioned snapshot format (internal/snapshot). A
// service restored from the stream produces bit-identical Results and
// assignment plans and cannot double-spend budget already committed.
//
// Checkpoint holds the read lock for the duration of the capture, so it is
// safe to call concurrently with serving traffic; writes block until the
// capture finishes. The one piece of state not captured is the random
// assigner's RNG position (AssignerRandom): a restored service reseeds it
// from WithSeed, so only that assigner's future plans may differ.
func (s *Service) Checkpoint(w io.Writer) error {
	s.mu.RLock()
	sv := s.captureLocked()
	s.mu.RUnlock()
	return snapshot.Encode(w, snapshot.New(sv))
}

// Restore loads a state written by Checkpoint into this service. The
// service must be freshly constructed — no tasks, workers, or answers yet —
// with the same engine-shaping options (engine kind, shard and city counts)
// as the service that produced the snapshot; mismatches are rejected. The
// assignment budget is taken from the snapshot, overriding WithBudget, so a
// restart cannot re-grant budget the original already spent. On success the
// restored service's Results and assignment plans are bit-identical to the
// original's at checkpoint time; on error the service is left unchanged.
func (s *Service) Restore(r io.Reader) error {
	snap, err := snapshot.Decode(r)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.tasks) != 0 || len(s.workers) != 0 || s.eng != nil {
		return fmt.Errorf("poilabel: restore into a service that already has state (%d tasks, %d workers)",
			len(s.tasks), len(s.workers))
	}
	// Admitted only on an empty service, a restore has nothing in flight over
	// the state it replaces: a plan starts from a worker, a fit or a migration
	// from an engine (docs/ARCHITECTURE.md, "Locks and invariants").
	//
	// Rebuild into a scratch service first so a mid-restore failure (corrupt
	// snapshot, shape mismatch) leaves the receiver untouched; the ledger
	// validates before it changes, and is the last step that can fail.
	fresh := newBareService(s.cfg)
	if err := fresh.applySnapshot(&snap.Service); err != nil {
		return err
	}
	if err := s.led.apply(&snap.Service, fresh.logged()); err != nil {
		return err
	}
	s.eng, s.asg = fresh.eng, fresh.asg
	s.taskIdx, s.taskKeys, s.tasks = fresh.taskIdx, fresh.taskKeys, fresh.tasks
	s.workerIdx, s.workerKey, s.workers = fresh.workerIdx, fresh.workerKey, fresh.workers
	s.sinceFull, s.dirty = fresh.sinceFull, fresh.dirty
	s.builtTasks, s.builtWorkers = fresh.builtTasks, fresh.builtWorkers
	// Generation bookkeeping: seed the generation counter from the snapshot
	// and publish the restored parameters so readers switch over with the
	// rest of the state. sinceFull answers arrived after the snapshot's last
	// full fit, so the restored publication's full-fit coverage stops short
	// of them — a barrier after a dirty restore runs a real fit.
	s.baseGen = fresh.baseGen
	if s.eng != nil {
		seq := s.led.answered()
		s.publishLocked(seq, seq-uint64(s.sinceFull), !s.dirty)
		s.restoredGen = s.published.Load().gen
	}
	return nil
}

// SaveCheckpoint writes the service's checkpoint to path with atomic
// write-then-rename semantics: a crash mid-write never corrupts an existing
// snapshot. It returns the number of bytes written.
func (s *Service) SaveCheckpoint(path string) (int64, error) {
	return snapshot.WriteFileAtomic(path, s.Checkpoint)
}

// LoadCheckpoint restores the service from a file written by SaveCheckpoint,
// under Restore's contract (fresh service, matching engine options).
func (s *Service) LoadCheckpoint(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("poilabel: load checkpoint: %w", err)
	}
	defer f.Close()
	return s.Restore(f)
}

// captureLocked builds the service's wire state, a deep copy. Callers must
// hold at least the read lock.
func (s *Service) captureLocked() snapshot.ServiceState {
	sv := snapshot.ServiceState{
		Engine:       s.cfg.engine.String(),
		Shards:       s.cfg.shards,
		Cities:       s.cfg.cities,
		EngineBuilt:  s.eng != nil,
		BuiltTasks:   s.builtTasks,
		BuiltWorkers: s.builtWorkers,
		SinceFull:    s.sinceFull,
		Dirty:        s.dirty,
		Tasks:        make([]snapshot.Task, len(s.tasks)),
		Workers:      make([]snapshot.Worker, len(s.workers)),
	}
	for i := range s.tasks {
		sv.Tasks[i] = snapshot.TaskState(s.taskKeys[i], s.tasks[i])
	}
	for i := range s.workers {
		sv.Workers[i] = snapshot.WorkerState(s.workerKey[i], s.workers[i])
	}
	// The generation a restore published is the snapshot's own state under
	// the next number; until a fit or a registration republish replaces it,
	// a checkpoint records the number it was restored from.
	sv.Generation = s.baseGen
	if pub := s.published.Load(); pub != nil && pub.gen != s.restoredGen {
		sv.Generation = pub.gen
	}
	switch e := s.eng.(type) {
	case *singleEngine:
		sv.Single = e.m.CheckpointState()
	case *partitionEngine:
		if e.fed != nil {
			sv.Federated = e.fed.CheckpointState()
		} else {
			sv.Sharded = e.sh.CheckpointState()
			// The layout travels with the snapshot (an elastic migration
			// makes it state, not a function of the built prefix), and the
			// normalizer diameter with it: post-migration the built prefix
			// spans every task at migration time, so recomputing the diameter
			// from it would change the distance scale the parameters were
			// learned under.
			sv.NormDiameter = e.sh.Normalizer().Max()
		}
	}
	s.led.capture(&sv)
	return sv
}

// logged is the number of answers the engine holds, none before it is built.
func (s *Service) logged() int {
	if s.eng == nil {
		return 0
	}
	return s.eng.TotalAnswers()
}

// applySnapshot replays a wire state into an unshared scratch service: it
// validates the engine-shaping configuration, re-registers tasks and
// workers, rebuilds the engine at the recorded construction boundary (so
// the distance normalizer and geographic partitions are recomputed from
// exactly the sets the original used), replays the remaining registrations
// dynamically, and installs the learned engine state and the fit bookkeeping.
// The ledger is not its business (Restore applies that to the receiver), and
// it publishes nothing: the scratch service is never read, and Restore, which
// adopts its engine, publishes then.
func (s *Service) applySnapshot(sv *snapshot.ServiceState) error {
	if sv.Engine != s.cfg.engine.String() {
		return fmt.Errorf("poilabel: snapshot was taken from a %q engine, service is configured for %q",
			sv.Engine, s.cfg.engine)
	}
	if sv.EngineBuilt {
		switch s.cfg.engine {
		case EngineSharded:
			// An elastic service treats the snapshot's explicit layout as
			// authoritative — migrations detach the live shard count from
			// the configured one, so a K=4 checkpoint must restore into a
			// service that has since split to K=6 and vice versa. Without
			// elastic re-sharding the configured counts still have to
			// match, exactly as before layouts existed.
			if !s.cfg.elasticOn && sv.Shards != s.cfg.shards {
				return fmt.Errorf("poilabel: snapshot used shard count %d, service is configured with %d", sv.Shards, s.cfg.shards)
			}
		case EngineFederated:
			if sv.Shards != s.cfg.shards || sv.Cities != s.cfg.cities {
				return fmt.Errorf("poilabel: snapshot used %d cities x %d shards, service is configured with %d x %d",
					sv.Cities, sv.Shards, s.cfg.cities, s.cfg.shards)
			}
		}
	}
	nt, nw := len(sv.Tasks), len(sv.Workers)
	// register replays registrations, in order, up to the given counts.
	register := func(tasks, workers int) error {
		for i := len(s.tasks); i < tasks; i++ {
			t := &sv.Tasks[i]
			if err := s.addTaskLocked(t.Key, TaskSpec{
				Name: t.Name, Location: t.Location, Labels: t.Labels, Reviews: t.Reviews,
			}); err != nil {
				return err
			}
		}
		for i := len(s.workers); i < workers; i++ {
			w := &sv.Workers[i]
			if err := s.addWorkerLocked(w.Key, WorkerSpec{Name: w.Name, Locations: w.Locations}); err != nil {
				return err
			}
		}
		return nil
	}
	if sv.EngineBuilt {
		if sv.BuiltTasks < 1 || sv.BuiltTasks > nt || sv.BuiltWorkers < 1 || sv.BuiltWorkers > nw {
			return fmt.Errorf("poilabel: corrupt snapshot: engine built over %d/%d tasks/workers of %d/%d registered",
				sv.BuiltTasks, sv.BuiltWorkers, nt, nw)
		}
		if err := register(sv.BuiltTasks, sv.BuiltWorkers); err != nil {
			return err
		}
		var layout [][]int
		var diam float64
		if s.cfg.engine == EngineSharded && sv.Sharded != nil {
			layout, diam = sv.Sharded.Layout, sv.NormDiameter
		}
		if err := s.buildEngine(layout, diam); err != nil {
			return err
		}
	} else if sv.Single != nil || sv.Sharded != nil || sv.Federated != nil {
		return fmt.Errorf("poilabel: corrupt snapshot: engine state present but engine marked unbuilt")
	}
	if err := register(nt, nw); err != nil {
		return err
	}
	var err error
	switch e := s.eng.(type) {
	case *singleEngine:
		if sv.Single == nil {
			return fmt.Errorf("poilabel: corrupt snapshot: missing single-engine state")
		}
		err = e.m.RestoreState(sv.Single)
	case *partitionEngine:
		switch {
		case e.fed != nil && sv.Federated != nil:
			err = e.fed.RestoreState(sv.Federated)
		case e.fed == nil && sv.Sharded != nil:
			err = e.sh.RestoreState(sv.Sharded)
		default:
			return fmt.Errorf("poilabel: corrupt snapshot: missing %s-engine state", e.Name())
		}
	}
	if err != nil {
		return err
	}
	if answers := s.logged(); sv.SinceFull < 0 || sv.SinceFull > answers {
		return fmt.Errorf("poilabel: corrupt snapshot: %d answers since the last full fit, of %d held", sv.SinceFull, answers)
	}
	s.sinceFull = sv.SinceFull
	s.dirty = sv.Dirty
	s.baseGen = sv.Generation
	return nil
}
