package assign

import (
	"sort"

	"poilabel/internal/model"
)

// Trim returns an assignment holding at most budget (worker, task) pairs
// from a. Cuts are taken round-robin across workers in ascending worker-ID
// order, keeping each worker's earliest picks — for a greedy assigner those
// are the highest-gain choices — so no single worker absorbs the whole cut.
// When a already fits the budget it is returned unchanged; a negative budget
// means unlimited. a itself is never modified.
func Trim(a Assignment, budget int) Assignment {
	if budget < 0 || a.TotalTasks() <= budget {
		return a
	}
	out := make(Assignment, len(a))
	if budget == 0 {
		return out
	}
	ws := make([]int, 0, len(a))
	for w := range a {
		ws = append(ws, int(w))
	}
	sort.Ints(ws)
	for round := 0; budget > 0; round++ {
		progressed := false
		for _, wi := range ws {
			if budget == 0 {
				break
			}
			w := model.WorkerID(wi)
			ts := a[w]
			if round >= len(ts) {
				continue
			}
			out[w] = append(out[w], ts[round])
			budget--
			progressed = true
		}
		if !progressed {
			break
		}
	}
	return out
}
