package assign

import (
	"reflect"
	"testing"

	"poilabel/internal/model"
)

func TestTrim(t *testing.T) {
	a := Assignment{
		0: {model.TaskID(10), model.TaskID(11), model.TaskID(12)},
		2: {model.TaskID(20)},
		5: {model.TaskID(30), model.TaskID(31)},
	}
	if got := Trim(a, -1); got.TotalTasks() != 6 {
		t.Fatalf("unlimited trim dropped tasks: %v", got)
	}
	if got := Trim(a, 10); got.TotalTasks() != 6 {
		t.Fatalf("roomy trim dropped tasks: %v", got)
	}
	if got := Trim(a, 0); got.TotalTasks() != 0 {
		t.Fatalf("zero trim kept tasks: %v", got)
	}

	got := Trim(a, 4)
	if got.TotalTasks() != 4 {
		t.Fatalf("Trim(4) kept %d tasks", got.TotalTasks())
	}
	// Round-robin in worker order: first round takes 10, 20, 30; the fourth
	// unit goes to worker 0's second pick.
	want := Assignment{
		0: {model.TaskID(10), model.TaskID(11)},
		2: {model.TaskID(20)},
		5: {model.TaskID(30)},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Trim(4) = %v, want %v", got, want)
	}
	// Original untouched.
	if a.TotalTasks() != 6 || len(a[0]) != 3 {
		t.Fatalf("Trim mutated its input: %v", a)
	}
}
