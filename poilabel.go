// Package poilabel is a Go implementation of "Crowdsourced POI Labelling:
// Location-Aware Result Inference and Task Assignment" (Hu, Zheng, Bao, Li,
// Feng, Cheng — ICDE 2016).
//
// Given a set of POI labelling tasks (each a point of interest with
// candidate labels) and a pool of workers with known locations, the package
// provides the paper's full framework:
//
//   - a location-aware inference model that estimates each worker's
//     inherent quality, each worker's distance sensitivity, each POI's
//     influence, and the posterior probability of every candidate label —
//     updated by full EM or cheap incremental EM as answers stream in;
//   - an online task assigner (AccOpt) that, whenever workers request
//     tasks, chooses the h tasks per worker that maximize the expected
//     improvement in overall inference accuracy, within a fixed budget of
//     paid assignments.
//
// The Service type ties the two together in the paper's alternating
// protocol behind one concurrency-safe front door: register tasks and
// workers under stable string IDs (at construction or on the fly), call
// RequestTasks when workers arrive, hand the chosen tasks to your crowd,
// and feed answers back through SubmitAnswer. At any point Results returns
// the current decision and probability for every label. The backend is
// pluggable: a single model (default), one city geo-sharded across K
// concurrent fitters, or a multi-city federation — all behind the same API.
// The last two are one partition mechanism (internal/shard) at two tree
// shapes: WithShards and WithCities only choose how deep and how wide.
//
// # Quick start
//
//	svc, err := poilabel.NewService(poilabel.WithBudget(1000))
//	if err != nil { ... }
//	svc.AddTask("poi:cafe-9", poilabel.TaskSpec{
//		Location: poilabel.Pt(3.2, 4.1),
//		Labels:   []string{"cafe", "bar", "wifi"},
//	})
//	svc.AddWorker("alice", poilabel.WorkerSpec{Locations: []poilabel.Point{poilabel.Pt(3, 4)}})
//	for {
//		assigned, err := svc.RequestTasks(ctx, pollWorkers()) // paper's task assigner
//		if errors.Is(err, poilabel.ErrBudgetExhausted) {
//			break
//		}
//		for w, tasks := range assigned {
//			for _, t := range tasks {
//				svc.SubmitAnswer(w, t, askWorker(w, t)) // your crowd answers
//			}
//		}
//	}
//	results, _ := svc.Results(ctx)
//
// Scale past one model with WithEngine(EngineSharded) for a single large
// city or WithEngine(EngineFederated) with WithCities(n) for several; see
// PERFORMANCE.md for guidance. cmd/poiserve exposes the same Service over
// HTTP/JSON.
//
// # Durability
//
// Service.Checkpoint and Service.Restore (with the file-level
// SaveCheckpoint/LoadCheckpoint) persist and recover the service's entire
// learned state — answers, estimates, pending assignments, and remaining
// budget — through a versioned snapshot format (internal/snapshot). A
// restored service produces bit-identical Results and assignment plans for
// every engine; docs/ARCHITECTURE.md documents the format and its
// compatibility policy, and cmd/poiserve wires it to -checkpoint/-restore
// flags and a POST /checkpoint endpoint.
//
// Lower-level building blocks (the raw inference model, the assignment
// estimator, majority voting and Dawid–Skene baselines, dataset generators
// and the crowd simulator used by the reproduction benchmarks) live in the
// internal packages and are exercised by the examples and cmd/ tools in
// this repository.
package poilabel

import (
	"errors"

	"poilabel/internal/baseline"
	"poilabel/internal/geo"
	"poilabel/internal/model"
)

// Re-exported domain types. See the internal/model package for full
// documentation of each.
type (
	// Task is a POI labelling task: a named, located POI with candidate
	// labels.
	Task = model.Task
	// Worker is a crowd worker with one or more locations.
	Worker = model.Worker
	// Answer is one worker's yes/no votes on one task's labels.
	Answer = model.Answer
	// TaskID indexes a task.
	TaskID = model.TaskID
	// WorkerID indexes a worker.
	WorkerID = model.WorkerID
	// GroundTruth holds true label values, for evaluation.
	GroundTruth = model.GroundTruth
	// Result is an inference outcome: decisions and probabilities per label.
	Result = model.Result
	// Point is a 2-D location.
	Point = geo.Point
)

// Pt is shorthand for Point{X: x, Y: y}.
func Pt(x, y float64) Point { return geo.Pt(x, y) }

// Accuracy computes the paper's evaluation metric (Equation 1) of a result
// against ground truth.
func Accuracy(res *Result, truth *GroundTruth) float64 {
	return model.Accuracy(res, truth)
}

// AssignerKind selects a task assignment strategy (WithAssigner).
type AssignerKind int

// Available assignment strategies.
const (
	// AssignerAccOpt is the paper's accuracy-optimal greedy assigner
	// (Algorithm 1, each pick credited with its marginal gain on the
	// Definition 7 objective; EXPERIMENTS.md records why) — the default.
	AssignerAccOpt AssignerKind = iota
	// AssignerSpatialFirst assigns each worker their closest undone tasks.
	AssignerSpatialFirst
	// AssignerRandom assigns undone tasks uniformly at random.
	AssignerRandom
	// AssignerEntropy assigns the undone tasks with the highest label
	// uncertainty (the entropy-based selection of CDAS, discussed as
	// related work in the paper's Section VI).
	AssignerEntropy
)

// ErrBudgetExhausted is returned by RequestTasks when the assignment budget
// has been fully spent.
var ErrBudgetExhausted = errors.New("poilabel: assignment budget exhausted")

// MajorityVote runs the MV baseline over an external answer log.
// It is a convenience for comparing the paper's model with naive
// aggregation on the same data.
func MajorityVote(tasks []Task, answers []Answer) (*Result, error) {
	set := model.NewAnswerSet()
	for _, a := range answers {
		if err := set.Add(a); err != nil {
			return nil, err
		}
	}
	return baseline.MajorityVote{}.Infer(tasks, set), nil
}

// DawidSkene runs the classic confusion-matrix EM baseline [Dawid & Skene
// 1979] over an external answer log.
func DawidSkene(tasks []Task, answers []Answer) (*Result, error) {
	set := model.NewAnswerSet()
	for _, a := range answers {
		if err := set.Add(a); err != nil {
			return nil, err
		}
	}
	return baseline.DawidSkene{}.Infer(tasks, set), nil
}

// FlagBiasedWorkers screens an answer log for systematically biased
// workers — lazy affirmers who tick (almost) everything or rejecters who
// tick (almost) nothing. The paper's inference model represents workers by
// a single symmetric agreement probability and cannot express directional
// bias, so such workers should be filtered before fitting (see the
// ablation-adversary experiment in EXPERIMENTS.md). The returned IDs can
// be excluded from future assignment rounds and their answers dropped.
func FlagBiasedWorkers(answers []Answer) ([]WorkerID, error) {
	set := model.NewAnswerSet()
	for _, a := range answers {
		if err := set.Add(a); err != nil {
			return nil, err
		}
	}
	return baseline.BiasScreen{}.Flag(set), nil
}
