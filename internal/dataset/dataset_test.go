package dataset

import (
	"bytes"
	"testing"

	"poilabel/internal/geo"
)

func TestBeijingMatchesPaperStatistics(t *testing.T) {
	d := Beijing(42)
	s := d.Stats()
	if s.Tasks != 200 {
		t.Errorf("tasks = %d, want 200", s.Tasks)
	}
	if s.Labels != 2000 {
		t.Errorf("labels = %d, want 2000", s.Labels)
	}
	if s.CorrectLabels != 927 || s.IncorrectLabels != 1073 {
		t.Errorf("correct/incorrect = %d/%d, want 927/1073 (paper)", s.CorrectLabels, s.IncorrectLabels)
	}
}

func TestChinaMatchesPaperStatistics(t *testing.T) {
	d := China(43)
	s := d.Stats()
	if s.CorrectLabels != 864 || s.IncorrectLabels != 1136 {
		t.Errorf("correct/incorrect = %d/%d, want 864/1136 (paper)", s.CorrectLabels, s.IncorrectLabels)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Beijing(42)
	b := Beijing(42)
	for i := range a.Tasks {
		if a.Tasks[i].Location != b.Tasks[i].Location || a.Tasks[i].Reviews != b.Tasks[i].Reviews {
			t.Fatalf("same seed diverged at task %d", i)
		}
		for k := range a.Truth.Truth[i] {
			if a.Truth.Truth[i][k] != b.Truth.Truth[i][k] {
				t.Fatalf("same seed diverged in truth at %d/%d", i, k)
			}
		}
	}
	c := Beijing(77)
	same := true
	for i := range a.Tasks {
		if a.Tasks[i].Location != c.Tasks[i].Location {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical locations")
	}
}

func TestGenerateValidates(t *testing.T) {
	d := Generate(Config{Name: "x", NumTasks: 25}, 3)
	if err := d.Validate(); err != nil {
		t.Errorf("generated dataset invalid: %v", err)
	}
}

func TestGenerateEveryTaskHasCorrectLabel(t *testing.T) {
	d := Generate(Config{Name: "x", NumTasks: 50}, 4)
	for i, row := range d.Truth.Truth {
		any := false
		for _, v := range row {
			if v {
				any = true
				break
			}
		}
		if !any {
			t.Errorf("task %d has no correct label", i)
		}
	}
}

func TestGenerateLocationsInsideBounds(t *testing.T) {
	d := China(1)
	for i := range d.Tasks {
		if !d.Bounds.Contains(d.Tasks[i].Location) {
			t.Errorf("task %d outside bounds", i)
		}
	}
}

func TestGenerateCorrectTotalClamping(t *testing.T) {
	// Asking for fewer correct labels than tasks clamps to 1 per task.
	d := Generate(Config{Name: "x", NumTasks: 10, LabelsPerTask: 4, CorrectTotal: 3}, 5)
	yes, _ := d.Truth.CountCorrect()
	if yes != 10 {
		t.Errorf("clamped correct total = %d, want 10 (one per task)", yes)
	}
	// Asking for more than possible clamps to all labels.
	d = Generate(Config{Name: "x", NumTasks: 5, LabelsPerTask: 3, CorrectTotal: 100}, 6)
	yes, total := d.Truth.CountCorrect()
	if yes != total {
		t.Errorf("over-asked correct total = %d of %d", yes, total)
	}
}

func TestGenerateZeroTasksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Generate with 0 tasks did not panic")
		}
	}()
	Generate(Config{Name: "x"}, 1)
}

func TestNormalizerSpansBounds(t *testing.T) {
	d := Beijing(42)
	n := d.Normalizer()
	if got := n.Max(); got != d.Bounds.Diameter() {
		t.Errorf("normalizer max = %v, want diameter %v", got, d.Bounds.Diameter())
	}
}

func TestReviewTier(t *testing.T) {
	tests := []struct {
		reviews, tier int
	}{
		{3000, 0}, {2501, 0}, {2500, 1}, {1001, 1}, {1000, 2}, {501, 2}, {500, 3}, {0, 3},
	}
	for _, tt := range tests {
		if got := ReviewTier(tt.reviews); got != tt.tier {
			t.Errorf("ReviewTier(%d) = %d, want %d", tt.reviews, got, tt.tier)
		}
	}
}

func TestTierName(t *testing.T) {
	names := map[int]string{0: "Rev>2500", 1: "Rev>1000", 2: "Rev>500", 3: "Rev<500"}
	for tier, want := range names {
		if got := TierName(tier); got != want {
			t.Errorf("TierName(%d) = %q, want %q", tier, got, want)
		}
	}
}

func TestReviewTiersPopulated(t *testing.T) {
	d := Beijing(42)
	counts := make([]int, 4)
	for i := range d.Tasks {
		counts[ReviewTier(d.Tasks[i].Reviews)]++
	}
	for tier, n := range counts {
		if n == 0 {
			t.Errorf("review tier %d (%s) empty — Figure 8 needs all tiers", tier, TierName(tier))
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	d := Generate(Config{Name: "roundtrip", NumTasks: 15}, 7)
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != d.Name || len(got.Tasks) != len(d.Tasks) {
		t.Fatalf("round trip changed shape")
	}
	for i := range d.Tasks {
		if got.Tasks[i].Location != d.Tasks[i].Location ||
			got.Tasks[i].Reviews != d.Tasks[i].Reviews ||
			got.Tasks[i].Name != d.Tasks[i].Name {
			t.Errorf("task %d changed in round trip", i)
		}
		for k := range d.Truth.Truth[i] {
			if got.Truth.Truth[i][k] != d.Truth.Truth[i][k] {
				t.Errorf("truth %d/%d changed in round trip", i, k)
			}
		}
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	if _, err := Decode(bytes.NewBufferString("{not json")); err == nil {
		t.Error("corrupt JSON accepted")
	}
	// Structurally valid JSON with inconsistent shapes must fail Validate.
	bad := `{"name":"x","tasks":[{"id":0,"labels":["a"],"location":{"x":1,"y":1}}],` +
		`"truth":{"truth":[[true,false]]},"bounds":{"min":{"x":0,"y":0},"max":{"x":2,"y":2}}}`
	if _, err := Decode(bytes.NewBufferString(bad)); err == nil {
		t.Error("shape-inconsistent dataset accepted")
	}
}

func TestValidateChecks(t *testing.T) {
	d := Generate(Config{Name: "v", NumTasks: 5}, 9)
	d.Tasks[2].ID = 7
	if err := d.Validate(); err == nil {
		t.Error("non-dense task ID accepted")
	}

	d = Generate(Config{Name: "v", NumTasks: 5}, 9)
	d.Tasks[1].Location = geo.Pt(-1e9, 0)
	if err := d.Validate(); err == nil {
		t.Error("out-of-bounds location accepted")
	}

	d = Generate(Config{Name: "v", NumTasks: 5}, 9)
	d.Truth = nil
	if err := d.Validate(); err == nil {
		t.Error("nil truth accepted")
	}
}
