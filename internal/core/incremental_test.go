package core_test

import (
	"math/rand"
	"testing"

	"poilabel/internal/core"
	"poilabel/internal/model"
)

func TestUpdateKeepsParamsValid(t *testing.T) {
	f := newFixture(10, 4, 4, 30)
	rng := rand.New(rand.NewSource(31))
	m := f.model(t, core.DefaultConfig())
	for ti := 0; ti < 10; ti++ {
		w := model.WorkerID(ti % 4)
		if err := m.Update(f.answerAs(w, model.TaskID(ti), 0.8, rng)); err != nil {
			t.Fatal(err)
		}
		if err := m.Params().Validate(); err != nil {
			t.Fatalf("params invalid after incremental update %d: %v", ti, err)
		}
	}
}

func TestUpdateOnlyTouchesLocalParameters(t *testing.T) {
	f := newFixture(10, 4, 5, 32)
	rng := rand.New(rand.NewSource(33))
	m := f.model(t, core.DefaultConfig())
	// Seed history so every parameter has evidence.
	for ti := 0; ti < 10; ti++ {
		for wi := 0; wi < 3; wi++ {
			w := model.WorkerID((ti + wi) % 5)
			if err := m.Observe(f.answerAs(w, model.TaskID(ti), 0.8, rng)); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.Fit()
	before := m.Params().Clone()

	// One new answer from worker 0 on task 3.
	var w model.WorkerID
	for wi := 0; wi < 5; wi++ {
		if !m.Answers().Has(model.WorkerID(wi), 3) {
			w = model.WorkerID(wi)
			break
		}
	}
	if err := m.Update(f.answerAs(w, 3, 0.8, rng)); err != nil {
		t.Fatal(err)
	}
	after := m.Params()

	// The incremental update of Section III-D may only touch the worker's
	// quality (PI, PDW), the task's results (PZ[3]) and influence (PDT[3]).
	for ti := range after.PZ {
		if ti == 3 {
			continue
		}
		for k := range after.PZ[ti] {
			if after.PZ[ti][k] != before.PZ[ti][k] {
				t.Fatalf("PZ[%d][%d] changed by unrelated incremental update", ti, k)
			}
		}
		for j := range after.PDT[ti] {
			if after.PDT[ti][j] != before.PDT[ti][j] {
				t.Fatalf("PDT[%d][%d] changed by unrelated incremental update", ti, j)
			}
		}
	}
	for wi := range after.PI {
		if model.WorkerID(wi) == w {
			continue
		}
		if after.PI[wi] != before.PI[wi] {
			t.Fatalf("PI[%d] changed by another worker's update", wi)
		}
		for j := range after.PDW[wi] {
			if after.PDW[wi][j] != before.PDW[wi][j] {
				t.Fatalf("PDW[%d][%d] changed by another worker's update", wi, j)
			}
		}
	}
}

// Incremental updates must track full EM directionally: after many answers
// from a reliable worker and a spammer, both paths must rank them the same.
func TestUpdateTracksFullFitDirectionally(t *testing.T) {
	f := newFixture(40, 6, 2, 34)
	rng := rand.New(rand.NewSource(35))

	inc := f.model(t, core.DefaultConfig())
	full := f.model(t, core.DefaultConfig())
	for ti := 0; ti < 40; ti++ {
		good := f.answerAs(0, model.TaskID(ti), 0.9, rng)
		bad := f.answerAs(1, model.TaskID(ti), 0.5, rng)
		for _, a := range []model.Answer{good, bad} {
			if err := inc.Update(a); err != nil {
				t.Fatal(err)
			}
			if err := full.Observe(a); err != nil {
				t.Fatal(err)
			}
		}
	}
	full.Fit()
	if inc.WorkerQuality(0) <= inc.WorkerQuality(1) {
		t.Errorf("incremental path ranks spammer above good worker: %v vs %v",
			inc.WorkerQuality(0), inc.WorkerQuality(1))
	}
	if full.WorkerQuality(0) <= full.WorkerQuality(1) {
		t.Errorf("full path ranks spammer above good worker: %v vs %v",
			full.WorkerQuality(0), full.WorkerQuality(1))
	}
}

func TestUpdateRejectsInvalidAnswer(t *testing.T) {
	f := newFixture(3, 2, 2, 36)
	m := f.model(t, core.DefaultConfig())
	if err := m.Update(model.Answer{Worker: 0, Task: 99, Selected: []bool{true, true}}); err == nil {
		t.Error("Update accepted an answer for an unknown task")
	}
	if m.Answers().Len() != 0 {
		t.Error("failed Update still recorded the answer")
	}
}
