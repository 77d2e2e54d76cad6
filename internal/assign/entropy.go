package assign

import (
	"math"
	"sort"

	"poilabel/internal/model"
)

// EntropyFirst assigns each worker the h undone tasks with the highest
// label uncertainty, measured as the mean binary entropy of the current
// P(z_{t,k}) estimates. It is the entropy-like task selection of Liu et
// al.'s CDAS [16], which the paper discusses as related work: it chases
// uncertain tasks but, unlike AccOpt, ignores who is asking — a far-away
// spammer receives the same tasks as a nearby expert, and the expected
// gain of an extra answer is never weighed against the answers the task
// already has.
type EntropyFirst struct{}

// Name implements Assigner.
func (EntropyFirst) Name() string { return "Entropy" }

// Assign implements Assigner.
func (e EntropyFirst) Assign(v View, workers []model.WorkerID, h int) Assignment {
	return e.AssignExcluding(v, workers, h, nil)
}

// AssignExcluding implements ExcludingAssigner.
func (EntropyFirst) AssignExcluding(v View, workers []model.WorkerID, h int, ex Exclusions) Assignment {
	tasks := v.Tasks()
	params := v.Params()

	// Rank tasks once per round: entropy is worker-independent.
	type scored struct {
		t model.TaskID
		e float64
	}
	ranked := make([]scored, len(tasks))
	for t := range tasks {
		var sum float64
		pz := params.PZ[t]
		for _, p := range pz {
			sum += binaryEntropy(p)
		}
		ranked[t] = scored{t: model.TaskID(t), e: sum / float64(len(pz))}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].e != ranked[j].e {
			return ranked[i].e > ranked[j].e
		}
		return ranked[i].t < ranked[j].t
	})

	out := make(Assignment, len(workers))
	for _, w := range workers {
		excluded := excludedSet(ex, w)
		for _, s := range ranked {
			if len(out[w]) >= h {
				break
			}
			if !v.HasAnswer(w, s.t) && !excluded[s.t] {
				out[w] = append(out[w], s.t)
			}
		}
	}
	return out
}

// binaryEntropy returns H(p) in bits, with H(0) = H(1) = 0.
func binaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}
