package model

import (
	"math"
	"testing"
	"testing/quick"

	"poilabel/internal/geo"
)

func twoTasks() []Task {
	return []Task{
		{ID: 0, Name: "park", Location: geo.Pt(0, 0), Labels: []string{"a", "b", "c"}},
		{ID: 1, Name: "tower", Location: geo.Pt(3, 4), Labels: []string{"x", "y"}},
	}
}

func TestWorkerDistanceUsesMinLocation(t *testing.T) {
	w := Worker{ID: 0, Locations: []geo.Point{geo.Pt(0, 0), geo.Pt(3, 3)}}
	task := &Task{ID: 1, Location: geo.Pt(3, 4)}
	if got := w.Distance(task); got != 1 {
		t.Errorf("Distance = %v, want 1 (from nearest location)", got)
	}
}

func TestSpanNormalizerCoversTasksAndWorkers(t *testing.T) {
	// Tasks span (0,0)-(3,4); a worker at (6,8) widens the box to a
	// diameter of 10.
	workers := []Worker{{ID: 0, Locations: []geo.Point{geo.Pt(1, 1), geo.Pt(6, 8)}}}
	n, err := SpanNormalizer(twoTasks(), workers)
	if err != nil {
		t.Fatal(err)
	}
	if n.Max() != 10 {
		t.Errorf("diameter = %v, want 10", n.Max())
	}
	same := []Task{{Location: geo.Pt(2, 2)}}
	if _, err := SpanNormalizer(same, []Worker{{Locations: []geo.Point{geo.Pt(2, 2)}}}); err == nil {
		t.Error("coincident locations accepted")
	}
	if _, err := SpanNormalizer(nil, nil); err == nil {
		t.Error("empty world accepted")
	}
}

func TestAnswerValidate(t *testing.T) {
	tasks := twoTasks()
	good := Answer{Worker: 0, Task: 0, Selected: []bool{true, false, true}}
	if err := good.Validate(&tasks[0]); err != nil {
		t.Errorf("valid answer rejected: %v", err)
	}
	wrongTask := Answer{Worker: 0, Task: 1, Selected: []bool{true, false}}
	if err := wrongTask.Validate(&tasks[0]); err == nil {
		t.Error("answer for task 1 validated against task 0")
	}
	wrongLen := Answer{Worker: 0, Task: 0, Selected: []bool{true}}
	if err := wrongLen.Validate(&tasks[0]); err == nil {
		t.Error("answer with wrong vote count accepted")
	}
}

func TestGroundTruthCounts(t *testing.T) {
	g := &GroundTruth{Truth: [][]bool{{true, false, true}, {false, false}}}
	yes, total := g.CountCorrect()
	if yes != 2 || total != 5 {
		t.Errorf("CountCorrect = (%d, %d), want (2, 5)", yes, total)
	}
	if !g.Label(0, 2) || g.Label(1, 1) {
		t.Error("Label lookups wrong")
	}
}

func TestAccuracyPerfect(t *testing.T) {
	tasks := twoTasks()
	truth := &GroundTruth{Truth: [][]bool{{true, false, true}, {false, true}}}
	res := NewResult(tasks)
	for ti := range truth.Truth {
		copy(res.Inferred[ti], truth.Truth[ti])
	}
	if got := Accuracy(res, truth); got != 1 {
		t.Errorf("Accuracy of exact match = %v, want 1", got)
	}
}

func TestAccuracyCountsBothLabelKinds(t *testing.T) {
	// Paper example (Section II): 10 labels, first 3 true; algorithm marks
	// labels 1 and 4 as correct -> 7 of 10 labels judged right.
	tasks := []Task{{ID: 0, Labels: make([]string, 10)}}
	truthRow := make([]bool, 10)
	truthRow[0], truthRow[1], truthRow[2] = true, true, true
	truth := &GroundTruth{Truth: [][]bool{truthRow}}
	res := NewResult(tasks)
	res.Inferred[0][0] = true
	res.Inferred[0][3] = true
	if got := Accuracy(res, truth); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("Accuracy = %v, want 0.7 (paper's N=7 example)", got)
	}
}

func TestAccuracyAveragesOverTasks(t *testing.T) {
	tasks := twoTasks() // 3 labels and 2 labels
	truth := &GroundTruth{Truth: [][]bool{{true, true, true}, {true, true}}}
	res := NewResult(tasks)
	// Task 0: 1 of 3 right (inferred all false except first).
	res.Inferred[0][0] = true
	res.Inferred[0][1] = false
	res.Inferred[0][2] = false
	// Task 1: both right.
	res.Inferred[1][0] = true
	res.Inferred[1][1] = true
	want := ((1.0 / 3) + 1.0) / 2
	if got := Accuracy(res, truth); math.Abs(got-want) > 1e-12 {
		t.Errorf("Accuracy = %v, want %v (per-task average)", got, want)
	}
}

func TestAccuracyEmpty(t *testing.T) {
	if got := Accuracy(&Result{}, &GroundTruth{}); got != 0 {
		t.Errorf("Accuracy of empty result = %v, want 0", got)
	}
}

func TestAccuracyRangeProperty(t *testing.T) {
	f := func(truthBits, inferBits []bool) bool {
		n := len(truthBits)
		if len(inferBits) < n {
			n = len(inferBits)
		}
		if n == 0 {
			return true
		}
		tasks := []Task{{ID: 0, Labels: make([]string, n)}}
		truth := &GroundTruth{Truth: [][]bool{truthBits[:n]}}
		res := NewResult(tasks)
		copy(res.Inferred[0], inferBits[:n])
		a := Accuracy(res, truth)
		return a >= 0 && a <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAnswerAccuracy(t *testing.T) {
	truth := &GroundTruth{Truth: [][]bool{{true, false, true, false}}}
	a := &Answer{Worker: 0, Task: 0, Selected: []bool{true, true, true, false}}
	// Matches on labels 0, 2, 3 -> 3/4.
	if got := AnswerAccuracy(a, truth); got != 0.75 {
		t.Errorf("AnswerAccuracy = %v, want 0.75", got)
	}
}

func TestAnswerAccuracyEmpty(t *testing.T) {
	a := &Answer{Worker: 0, Task: 0}
	if got := AnswerAccuracy(a, &GroundTruth{Truth: [][]bool{{}}}); got != 0 {
		t.Errorf("AnswerAccuracy of empty answer = %v, want 0", got)
	}
}

func TestNewResultShape(t *testing.T) {
	tasks := twoTasks()
	res := NewResult(tasks)
	if len(res.Inferred) != 2 || len(res.Prob) != 2 {
		t.Fatalf("NewResult rows = %d/%d, want 2/2", len(res.Inferred), len(res.Prob))
	}
	if len(res.Inferred[0]) != 3 || len(res.Inferred[1]) != 2 {
		t.Errorf("NewResult label widths wrong: %d, %d", len(res.Inferred[0]), len(res.Inferred[1]))
	}
}
