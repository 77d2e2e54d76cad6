package core_test

import (
	"bytes"
	"math/rand"
	"testing"

	"poilabel/internal/core"
	"poilabel/internal/model"
	"poilabel/internal/snapshot"
)

// warmModel builds and fits a model with some answers for checkpoint tests.
func warmModel(t *testing.T, f *fixture, seed int64) *core.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := f.model(t, core.DefaultConfig())
	for ti := range f.tasks {
		for wi := 0; wi < 2 && wi < len(f.workers); wi++ {
			if err := m.Observe(f.answerAs(model.WorkerID(wi), model.TaskID(ti), 0.85, rng)); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.Fit()
	return m
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	f := newFixture(8, 4, 3, 50)
	m := warmModel(t, f, 51)
	snap := m.CheckpointState()

	// Restore into a fresh model over the same world.
	m2 := f.model(t, core.DefaultConfig())
	if err := m2.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	if m2.Answers().Len() != m.Answers().Len() {
		t.Errorf("restored %d answers, want %d", m2.Answers().Len(), m.Answers().Len())
	}
	if d := m2.Params().MaxDelta(m.Params()); d != 0 {
		t.Errorf("restored params differ by %v", d)
	}
	// The restored model must produce identical inference.
	r1, r2 := m.Result(), m2.Result()
	for ti := range r1.Prob {
		for k := range r1.Prob[ti] {
			if r1.Prob[ti][k] != r2.Prob[ti][k] {
				t.Fatalf("restored inference differs at %d/%d", ti, k)
			}
		}
	}
	// And must keep evolving identically.
	rng := rand.New(rand.NewSource(52))
	a := f.answerAs(2, 0, 0.85, rng)
	if err := m.Update(a); err != nil {
		t.Fatal(err)
	}
	if err := m2.Update(a); err != nil {
		t.Fatal(err)
	}
	if d := m2.Params().MaxDelta(m.Params()); d != 0 {
		t.Errorf("post-restore update diverged by %v", d)
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	f := newFixture(4, 3, 2, 53)
	m := warmModel(t, f, 54)
	snap := m.CheckpointState()
	before := snap.Params.PZ[0][0]
	// Keep fitting the live model; the snapshot must not move.
	rng := rand.New(rand.NewSource(55))
	for wi := range f.workers {
		if !m.Answers().Has(model.WorkerID(wi), 0) {
			if err := m.Update(f.answerAs(model.WorkerID(wi), 0, 0.9, rng)); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.Fit()
	if snap.Params.PZ[0][0] != before {
		t.Error("snapshot params alias the live model")
	}
	snap.Answers[0].Selected[0] = !snap.Answers[0].Selected[0]
	if m.Answers().Answer(0).Selected[0] == snap.Answers[0].Selected[0] {
		t.Error("snapshot answers alias the live model")
	}
}

func TestRestoreRejectsMismatchedShape(t *testing.T) {
	f := newFixture(6, 3, 3, 60)
	m := warmModel(t, f, 61)
	snap := m.CheckpointState()

	other := newFixture(7, 3, 3, 62) // different task count
	m2 := other.model(t, core.DefaultConfig())
	if err := m2.RestoreState(snap); err == nil {
		t.Error("restore into mismatched task count accepted")
	}

	other2 := newFixture(6, 3, 4, 63) // different worker count
	m3 := other2.model(t, core.DefaultConfig())
	if err := m3.RestoreState(snap); err == nil {
		t.Error("restore into mismatched worker count accepted")
	}
}

func TestRestoreRejectsCorruptParams(t *testing.T) {
	f := newFixture(5, 3, 2, 64)
	m := warmModel(t, f, 65)
	snap := m.CheckpointState()
	snap.Params.PI[0] = 1.7
	m2 := f.model(t, core.DefaultConfig())
	if err := m2.RestoreState(snap); err == nil {
		t.Error("restore with invalid params accepted")
	}
	if err := m2.RestoreState(nil); err == nil {
		t.Error("nil state accepted")
	}
}

func TestRestoreRejectsBadAnswers(t *testing.T) {
	f := newFixture(5, 3, 2, 66)
	m := warmModel(t, f, 67)
	snap := m.CheckpointState()
	snap.Answers = append(snap.Answers, snapshot.Answer{Worker: 0, Task: 99, Selected: []bool{true, true, true}})
	m2 := f.model(t, core.DefaultConfig())
	if err := m2.RestoreState(snap); err == nil {
		t.Error("restore with out-of-range answer accepted")
	}
}

// TestCheckpointStateWireRoundTrip pushes the model's learned state through
// the durable snapshot wire codec (internal/snapshot) and back, asserting
// bit-identical parameters and an incremental-update path that behaves the
// same afterward — the leaf contract every engine's restore builds on.
func TestCheckpointStateWireRoundTrip(t *testing.T) {
	f := newFixture(8, 4, 3, 60)
	m := warmModel(t, f, 61)

	st := m.CheckpointState()
	var buf bytes.Buffer
	if err := snapshot.Encode(&buf, snapshot.New(snapshot.ServiceState{Engine: "single", Single: st})); err != nil {
		t.Fatal(err)
	}
	decoded, err := snapshot.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}

	m2 := f.model(t, core.DefaultConfig())
	if err := m2.RestoreState(decoded.Service.Single); err != nil {
		t.Fatal(err)
	}
	if d := m2.Params().MaxDelta(m.Params()); d != 0 {
		t.Fatalf("wire round trip perturbed params by %v", d)
	}
	if m2.Answers().Len() != m.Answers().Len() {
		t.Fatalf("wire round trip lost answers: %d vs %d", m2.Answers().Len(), m.Answers().Len())
	}

	// Both models must evolve identically from here (the rebuilt f-value
	// store feeding the incremental path correctly).
	rng1 := rand.New(rand.NewSource(99))
	rng2 := rand.New(rand.NewSource(99))
	a1 := f.answerAs(model.WorkerID(2), model.TaskID(7), 0.8, rng1)
	a2 := f.answerAs(model.WorkerID(2), model.TaskID(7), 0.8, rng2)
	if err := m.Update(a1); err != nil {
		t.Fatal(err)
	}
	if err := m2.Update(a2); err != nil {
		t.Fatal(err)
	}
	if d := m2.Params().MaxDelta(m.Params()); d != 0 {
		t.Fatalf("incremental update diverged after restore: %v", d)
	}

	if err := m2.RestoreState(nil); err == nil {
		t.Fatal("nil state accepted")
	}
}
