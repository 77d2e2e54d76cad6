package poilabel

import (
	"fmt"
	"io"
	"os"
	"sort"

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
	snap := s.captureLocked()
	s.mu.RUnlock()
	return snapshot.Encode(w, snap)
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
	// Rebuild into a scratch service first so a mid-restore failure (corrupt
	// snapshot, shape mismatch) leaves the receiver untouched.
	fresh := newBareService(s.cfg)
	if err := fresh.applySnapshot(&snap.Service); err != nil {
		return err
	}
	s.cfg = fresh.cfg
	s.eng = fresh.eng
	s.taskIdx, s.taskKeys, s.tasks = fresh.taskIdx, fresh.taskKeys, fresh.tasks
	s.workerIdx, s.workerKey, s.workers = fresh.workerIdx, fresh.workerKey, fresh.workers
	s.pending, s.sinceFull, s.dirty = fresh.pending, fresh.sinceFull, fresh.dirty
	s.builtTasks, s.builtWorkers = fresh.builtTasks, fresh.builtWorkers
	// Generation bookkeeping: invalidate any fit captured before the
	// restore, seed the sequence/generation counters from the snapshot, and
	// publish the restored parameters so readers switch over with the rest
	// of the state. sinceFull answers arrived after the snapshot's last full
	// fit, so the restored publication's full-fit coverage stops short of
	// them — a barrier after a dirty restore runs a real fit.
	s.restoreEpoch++
	s.delta, s.deltaActive = nil, false
	s.baseGen = fresh.baseGen
	s.answerSeq.Store(fresh.answerSeq.Load())
	if s.eng != nil {
		seq := s.answerSeq.Load()
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

// captureLocked builds the wire state. Callers must hold at least the read
// lock.
func (s *Service) captureLocked() *snapshot.Snapshot {
	sv := snapshot.ServiceState{
		Engine:       s.cfg.engine.String(),
		Shards:       s.cfg.shards,
		Cities:       s.cfg.cities,
		EngineBuilt:  s.eng != nil,
		BuiltTasks:   s.builtTasks,
		BuiltWorkers: s.builtWorkers,
		Budget:       s.cfg.budget,
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
	for pk := range s.pending {
		sv.Pending = append(sv.Pending, snapshot.Pair{Worker: int(pk.w), Task: int(pk.t)})
	}
	sort.Slice(sv.Pending, func(a, b int) bool {
		if sv.Pending[a].Worker != sv.Pending[b].Worker {
			return sv.Pending[a].Worker < sv.Pending[b].Worker
		}
		return sv.Pending[a].Task < sv.Pending[b].Task
	})
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
	return snapshot.New(sv)
}

// applySnapshot replays a wire state into an unshared scratch service: it
// validates the engine-shaping configuration, re-registers tasks and
// workers, rebuilds the engine at the recorded construction boundary (so
// the distance normalizer and geographic partitions are recomputed from
// exactly the sets the original used), replays the remaining registrations
// dynamically, and installs the learned engine state and service
// bookkeeping. It publishes nothing: the scratch service is never read, and
// whoever adopts its engine (Restore, the pipeline's swap) publishes then.
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
	addTasks := func(from, to int) error {
		for i := from; i < to; i++ {
			t := &sv.Tasks[i]
			if err := s.addTaskLocked(t.Key, TaskSpec{
				Name: t.Name, Location: t.Location, Labels: t.Labels, Reviews: t.Reviews,
			}); err != nil {
				return err
			}
		}
		return nil
	}
	addWorkers := func(from, to int) error {
		for i := from; i < to; i++ {
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
		if err := addTasks(0, sv.BuiltTasks); err != nil {
			return err
		}
		if err := addWorkers(0, sv.BuiltWorkers); err != nil {
			return err
		}
		var layout [][]int
		var diam float64
		if s.cfg.engine == EngineSharded && sv.Sharded != nil {
			layout = sv.Sharded.Layout
			diam = sv.NormDiameter
		}
		if err := s.buildEngine(layout, diam); err != nil {
			return err
		}
		if err := addTasks(sv.BuiltTasks, nt); err != nil {
			return err
		}
		if err := addWorkers(sv.BuiltWorkers, nw); err != nil {
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
	} else {
		if sv.Single != nil || sv.Sharded != nil || sv.Federated != nil {
			return fmt.Errorf("poilabel: corrupt snapshot: engine state present but engine marked unbuilt")
		}
		if err := addTasks(0, nt); err != nil {
			return err
		}
		if err := addWorkers(0, nw); err != nil {
			return err
		}
	}
	for _, p := range sv.Pending {
		if p.Worker < 0 || p.Worker >= nw || p.Task < 0 || p.Task >= nt {
			return fmt.Errorf("poilabel: corrupt snapshot: pending pair (%d, %d) out of range", p.Worker, p.Task)
		}
		s.pending[pairKey{WorkerID(p.Worker), TaskID(p.Task)}] = true
	}
	if sv.Budget < 0 {
		s.cfg.budget = -1
	} else {
		s.cfg.budget = sv.Budget
	}
	answers := 0
	if s.eng != nil {
		answers = s.eng.TotalAnswers()
	}
	if sv.SinceFull < 0 || sv.SinceFull > answers {
		return fmt.Errorf("poilabel: corrupt snapshot: %d answers since the last full fit, of %d held", sv.SinceFull, answers)
	}
	s.sinceFull = sv.SinceFull
	s.dirty = sv.Dirty
	s.baseGen = sv.Generation
	s.answerSeq.Store(uint64(answers))
	return nil
}
