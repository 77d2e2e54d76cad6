package assign

import (
	"poilabel/internal/model"
)

// Exhaustive finds a truly optimal assignment (Definition 7) by enumerating
// every way to give each worker h of their undone tasks and scoring the
// total expected accuracy improvement of Equation 20. The search space is
// exponential (the problem is NP-hard, Lemma 3), so Exhaustive is only
// usable on toy instances; TestAccOptMatchesExhaustiveObjective uses it to
// measure how close the greedy gets to the optimum.
type Exhaustive struct{}

// Name implements Assigner.
func (Exhaustive) Name() string { return "Exhaustive" }

// Assign implements Assigner.
func (Exhaustive) Assign(v View, workers []model.WorkerID, h int) Assignment {
	if h <= 0 {
		return Assignment{}
	}
	est := NewEstimator(v)
	tasks := v.Tasks()
	params := v.Params()
	nT := len(tasks)

	// Candidate task lists and agreement probabilities per worker.
	avail := make([][]model.TaskID, len(workers))
	prob := make([]map[model.TaskID]float64, len(workers))
	for i, w := range workers {
		prob[i] = make(map[model.TaskID]float64)
		for t := 0; t < nT; t++ {
			tid := model.TaskID(t)
			if v.HasAnswer(w, tid) {
				continue
			}
			avail[i] = append(avail[i], tid)
			prob[i][tid] = est.Agreement(w, tid)
		}
	}

	// Enumerate h-subsets per worker.
	choices := make([][][]model.TaskID, len(workers))
	for i := range workers {
		choices[i] = subsets(avail[i], h)
		if len(choices[i]) == 0 {
			// Fewer than h tasks available: the only choice is all of them.
			choices[i] = [][]model.TaskID{avail[i]}
		}
	}

	score := func(sel [][]model.TaskID) float64 {
		// Build bundles per task across all workers, then evaluate Δ.
		bundle := make(map[model.TaskID][]float64) // task -> agreement probs
		for i := range workers {
			for _, t := range sel[i] {
				bundle[t] = append(bundle[t], prob[i][t])
			}
		}
		var total float64
		for t, ps := range bundle {
			la := est.TaskAcc(t)
			for _, pv := range ps {
				la.Extend(pv)
			}
			total += la.Delta(params.PZ[t])
		}
		return total
	}

	bestScore := -1e300
	var best [][]model.TaskID
	sel := make([][]model.TaskID, len(workers))
	var walk func(i int)
	walk = func(i int) {
		if i == len(workers) {
			if s := score(sel); s > bestScore {
				bestScore = s
				best = make([][]model.TaskID, len(sel))
				for j := range sel {
					best[j] = append([]model.TaskID(nil), sel[j]...)
				}
			}
			return
		}
		for _, c := range choices[i] {
			sel[i] = c
			walk(i + 1)
		}
	}
	walk(0)

	out := make(Assignment, len(workers))
	for i, w := range workers {
		out[w] = append([]model.TaskID(nil), best[i]...)
	}
	return out
}

// subsets returns every h-element subset of ts in deterministic order.
// It returns nil when len(ts) < h.
func subsets(ts []model.TaskID, h int) [][]model.TaskID {
	if h > len(ts) {
		return nil
	}
	var out [][]model.TaskID
	idx := make([]int, h)
	for i := range idx {
		idx[i] = i
	}
	for {
		pick := make([]model.TaskID, h)
		for i, j := range idx {
			pick[i] = ts[j]
		}
		out = append(out, pick)
		// Advance the combination.
		i := h - 1
		for i >= 0 && idx[i] == len(ts)-h+i {
			i--
		}
		if i < 0 {
			return out
		}
		idx[i]++
		for j := i + 1; j < h; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}
