// Package model defines the domain types of the crowdsourced POI labelling
// problem (paper Section II): POI tasks with candidate label sets, workers
// with one or more locations, worker answers, the answer set R, and the
// accuracy metric of Equation 1.
package model

import (
	"fmt"

	"poilabel/internal/geo"
)

// TaskID identifies a POI labelling task. Task IDs are dense indexes
// [0, |T|) into the dataset's task slice.
type TaskID int

// WorkerID identifies a worker. Worker IDs are dense indexes [0, |W|).
type WorkerID int

// Task is a POI labelling task t = {O_t, L_t}: a named POI with a
// geo-location and a set of candidate labels the crowd selects from.
type Task struct {
	ID       TaskID    `json:"id"`
	Name     string    `json:"name"`
	Location geo.Point `json:"location"`
	Labels   []string  `json:"labels"`
	// Reviews is the POI's review count, the paper's observable proxy for
	// POI influence (Dianping review counts, Figure 8).
	Reviews int `json:"reviews"`
}

// NumLabels returns |L_t|.
func (t *Task) NumLabels() int { return len(t.Labels) }

// WithID returns a copy of the task carrying a different ID. The geo-sharded
// fitter uses it to re-index a shard's tasks with dense local IDs; the label
// slice is shared with the original, not copied.
func (t Task) WithID(id TaskID) Task {
	t.ID = id
	return t
}

// Worker is a crowd worker with one or more locations (home, office,
// interest zones). Distance to a task is the minimum over Locations.
type Worker struct {
	ID        WorkerID    `json:"id"`
	Name      string      `json:"name"`
	Locations []geo.Point `json:"locations"`
}

// Distance returns the raw (unnormalized) minimum distance from the worker's
// locations to the task's POI.
func (w *Worker) Distance(t *Task) float64 {
	return geo.MinDist(w.Locations, t.Location)
}

// SpanNormalizer is the distance scale inference runs at: distances are
// divided by the diameter of the bounding box of every task and worker
// location. It fails when there is no location or they all coincide, since
// the model's distance signal needs spatial extent.
func SpanNormalizer(tasks []Task, workers []Worker) (geo.Normalizer, error) {
	pts := make([]geo.Point, 0, len(tasks)+len(workers))
	for i := range tasks {
		pts = append(pts, tasks[i].Location)
	}
	for i := range workers {
		pts = append(pts, workers[i].Locations...)
	}
	if len(pts) == 0 {
		return geo.Normalizer{}, fmt.Errorf("model: no task or worker locations to scale distances by")
	}
	diam := geo.Bound(pts).Diameter()
	if diam <= 0 {
		return geo.Normalizer{}, fmt.Errorf("model: all task and worker locations coincide at %v; distances need spatial extent", pts[0])
	}
	return geo.NewNormalizer(diam), nil
}

// Answer is one worker's response to one task: a yes/no vote per candidate
// label, i.e. R(w, t) = {r_{w,t,k}}.
type Answer struct {
	Worker WorkerID `json:"worker"`
	Task   TaskID   `json:"task"`
	// Selected[k] is r_{w,t,k}: true when the worker ticked label k.
	Selected []bool `json:"selected"`
}

// Validate checks the answer against the task it claims to answer.
func (a *Answer) Validate(t *Task) error {
	if a.Task != t.ID {
		return fmt.Errorf("model: answer for task %d validated against task %d", a.Task, t.ID)
	}
	if len(a.Selected) != len(t.Labels) {
		return fmt.Errorf("model: answer to task %d has %d votes, task has %d labels",
			a.Task, len(a.Selected), len(t.Labels))
	}
	return nil
}

// GroundTruth holds the true yes/no result of every label of every task.
// Truth[t][k] corresponds to z_{t,k} ≡ 1 when true.
type GroundTruth struct {
	Truth [][]bool `json:"truth"`
}

// Label returns the true result z_{t,k}.
func (g *GroundTruth) Label(t TaskID, k int) bool { return g.Truth[t][k] }

// CountCorrect returns the total number of labels whose ground truth is
// "yes" and the total number of labels overall.
func (g *GroundTruth) CountCorrect() (yes, total int) {
	for _, row := range g.Truth {
		for _, v := range row {
			total++
			if v {
				yes++
			}
		}
	}
	return yes, total
}

// Result is an algorithm's inferred yes/no decision for every label of every
// task, in the same shape as GroundTruth.
type Result struct {
	Inferred [][]bool
	// Prob, when available, is the underlying probability P(z_{t,k} = 1)
	// that produced each decision. Voting baselines fill it with vote
	// fractions; the probabilistic models fill it with posteriors.
	Prob [][]float64
}

// NewResult allocates a Result shaped like the given tasks.
func NewResult(tasks []Task) *Result {
	inf := make([][]bool, len(tasks))
	prob := make([][]float64, len(tasks))
	for i := range tasks {
		inf[i] = make([]bool, len(tasks[i].Labels))
		prob[i] = make([]float64, len(tasks[i].Labels))
	}
	return &Result{Inferred: inf, Prob: prob}
}

// Accuracy computes the paper's evaluation metric (Equation 1): the average,
// over tasks, of the fraction of labels (both correct and incorrect ones)
// whose inferred result matches the ground truth.
func Accuracy(res *Result, truth *GroundTruth) float64 {
	if len(res.Inferred) == 0 {
		return 0
	}
	var sum float64
	for t := range res.Inferred {
		n := len(res.Inferred[t])
		if n == 0 {
			continue
		}
		match := 0
		for k := 0; k < n; k++ {
			if res.Inferred[t][k] == truth.Truth[t][k] {
				match++
			}
		}
		sum += float64(match) / float64(n)
	}
	return sum / float64(len(res.Inferred))
}

// AnswerAccuracy returns the fraction of an individual answer's votes that
// match the ground truth — the per-answer accuracy used in the paper's data
// analysis (Figures 6–8) and case study (Table I).
func AnswerAccuracy(a *Answer, truth *GroundTruth) float64 {
	if len(a.Selected) == 0 {
		return 0
	}
	match := 0
	for k, v := range a.Selected {
		if v == truth.Truth[a.Task][k] {
			match++
		}
	}
	return float64(match) / float64(len(a.Selected))
}
