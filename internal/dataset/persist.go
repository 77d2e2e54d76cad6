package dataset

import (
	"encoding/json"
	"fmt"
	"io"
)

// Encode writes the dataset as indented JSON.
func (d *Dataset) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		return fmt.Errorf("dataset: encode %s: %w", d.Name, err)
	}
	return nil
}

// Decode reads a dataset from JSON and validates its shape.
func Decode(r io.Reader) (*Dataset, error) {
	var d Dataset
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("dataset: decode: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// Validate checks internal consistency: truth shaped like the tasks, dense
// task IDs, locations inside the bounds, and at least one label per task.
func (d *Dataset) Validate() error {
	if d.Truth == nil {
		return fmt.Errorf("dataset %s: nil ground truth", d.Name)
	}
	if len(d.Truth.Truth) != len(d.Tasks) {
		return fmt.Errorf("dataset %s: %d truth rows for %d tasks",
			d.Name, len(d.Truth.Truth), len(d.Tasks))
	}
	for i := range d.Tasks {
		t := &d.Tasks[i]
		if int(t.ID) != i {
			return fmt.Errorf("dataset %s: task at index %d has ID %d", d.Name, i, t.ID)
		}
		if len(t.Labels) == 0 {
			return fmt.Errorf("dataset %s: task %d has no labels", d.Name, i)
		}
		if len(d.Truth.Truth[i]) != len(t.Labels) {
			return fmt.Errorf("dataset %s: task %d has %d labels but %d truth entries",
				d.Name, i, len(t.Labels), len(d.Truth.Truth[i]))
		}
		if !d.Bounds.Contains(t.Location) {
			return fmt.Errorf("dataset %s: task %d location %v outside bounds %v",
				d.Name, i, t.Location, d.Bounds)
		}
	}
	return nil
}
