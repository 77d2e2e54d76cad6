// Elastic re-partitioning: the layout algebra (validate, split, merge) and
// the Rebuild operation that moves a fitter's learned state onto a new
// layout bit-identically.
//
// A layout is the unit of migration: split and merge are pure functions from
// layout to layout, so the drift detector can propose a new partition
// without touching any fitter state, and Rebuild is the only operation that
// actually re-keys answers. Split inserts the two kd-halves of a group at
// the group's old position, and merge re-unions two groups at the lower
// position — so a split-then-merge round trip restores the original layout
// exactly, which the migration-invariant tests pin.
package shard

import (
	"fmt"

	"poilabel/internal/geo"
	"poilabel/internal/model"
)

// ValidateLayout checks that layout partitions the task indices 0..n-1 into
// non-empty, strictly ascending groups with no duplicates or gaps.
func ValidateLayout(layout [][]int, n int) error {
	if len(layout) == 0 {
		return fmt.Errorf("shard: empty layout")
	}
	seen := make([]bool, n)
	total := 0
	for si, g := range layout {
		if len(g) == 0 {
			return fmt.Errorf("shard: layout group %d is empty", si)
		}
		prev := -1
		for _, t := range g {
			if t < 0 || t >= n {
				return fmt.Errorf("shard: layout group %d references task %d, world has %d", si, t, n)
			}
			if t <= prev {
				return fmt.Errorf("shard: layout group %d is not strictly ascending at task %d", si, t)
			}
			if seen[t] {
				return fmt.Errorf("shard: task %d appears in more than one layout group", t)
			}
			seen[t] = true
			prev = t
			total++
		}
	}
	if total != n {
		return fmt.Errorf("shard: layout covers %d of %d tasks", total, n)
	}
	return nil
}

// cloneLayout deep-copies a layout so callers and the fitter never share
// group slices.
func cloneLayout(layout [][]int) [][]int {
	out := make([][]int, len(layout))
	for i, g := range layout {
		out[i] = append([]int(nil), g...)
	}
	return out
}

// SplitLayout returns a copy of layout with group si replaced by its two
// kd-halves (median split along the wider axis of the group's bounding box,
// the same construction KDPartition uses). The halves take positions si and
// si+1; every other group keeps its relative order. The group must hold at
// least two tasks.
func SplitLayout(pts []geo.Point, layout [][]int, si int) ([][]int, error) {
	if si < 0 || si >= len(layout) {
		return nil, fmt.Errorf("shard: split of unknown shard %d (layout has %d)", si, len(layout))
	}
	if len(layout[si]) < 2 {
		return nil, fmt.Errorf("shard: cannot split shard %d with %d task(s)", si, len(layout[si]))
	}
	halves := geo.KDPartitionOf(pts, layout[si], 2)
	out := make([][]int, 0, len(layout)+1)
	for i, g := range layout {
		if i == si {
			out = append(out, halves[0], halves[1])
			continue
		}
		out = append(out, append([]int(nil), g...))
	}
	return out, nil
}

// MergeLayout returns a copy of layout with groups si and sj fused into one
// sorted group at position min(si, sj); the other position disappears and
// later groups shift down. Merging the two halves produced by SplitLayout
// restores the pre-split layout exactly.
func MergeLayout(layout [][]int, si, sj int) ([][]int, error) {
	if si == sj {
		return nil, fmt.Errorf("shard: merge of shard %d with itself", si)
	}
	if si < 0 || si >= len(layout) || sj < 0 || sj >= len(layout) {
		return nil, fmt.Errorf("shard: merge of unknown shards %d, %d (layout has %d)", si, sj, len(layout))
	}
	if len(layout) < 2 {
		return nil, fmt.Errorf("shard: cannot merge the only shard")
	}
	lo, hi := si, sj
	if lo > hi {
		lo, hi = hi, lo
	}
	fused := mergeSorted(layout[lo], layout[hi])
	out := make([][]int, 0, len(layout)-1)
	for i, g := range layout {
		switch i {
		case lo:
			out = append(out, fused)
		case hi:
			// dropped
		default:
			out = append(out, append([]int(nil), g...))
		}
	}
	return out, nil
}

// mergeSorted merges two strictly ascending disjoint index slices.
func mergeSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Rebuild constructs a fresh fitter over the current task and worker sets at
// the given layout and replays every observed answer into it in the exact
// global submission order (recovered from the per-answer shard log and the
// per-shard append-only answer logs). Because each shard's EM sums over its
// answer log in submission order, the replay makes the rebuilt fitter
// bit-identical to a fitter freshly constructed at the same layout and fed
// the same answer stream — the migration invariant the elastic tests pin.
//
// The receiver is read but never mutated; a serving layer rebuilds a Fork of
// it instead, with no lock held, and swaps the result in atomically. The rebuilt
// fitter's estimates start at the priors; run Fit before publishing. Only a
// fitter over models keeps the arrival log Rebuild replays.
func (s *Sharded) Rebuild(layout [][]int) (*Sharded, error) {
	if s.models == nil {
		return nil, fmt.Errorf("shard: rebuild of a nested fitter")
	}
	return rebuild(s.cfg, s.tasks, s.workers, s.norm, layout, s.order, s.logs(), s.parts)
}

// logs returns every shard's answer log as it stands.
func (s *Sharded) logs() []model.AnswerView {
	logs := make([]model.AnswerView, len(s.models))
	for si, m := range s.models {
		logs[si] = m.Answers().AnswerView
	}
	return logs
}

// rebuild is Rebuild's body over the stores it reads — a fitter's own, or the
// views a Fork holds of them.
func rebuild(cfg Config, tasks []model.Task, workers []model.Worker, norm geo.Normalizer, layout [][]int,
	order []int32, logs []model.AnswerView, parts [][]int) (*Sharded, error) {
	cfg.Shards = len(layout)
	ns, err := NewWithLayout(tasks, workers, norm, cfg, layout)
	if err != nil {
		return nil, err
	}
	if err := replay(ns, order, logs, parts, make([]int, len(logs))); err != nil {
		return nil, fmt.Errorf("shard: rebuild replay: %w", err)
	}
	return ns, nil
}

// replay feeds dst the answers order names, in that order: entry si is the
// next answer of logs[si] not yet read — cursor[si] counts the ones that were
// — keyed back to its global task through parts[si].
func replay(dst *Sharded, order []int32, logs []model.AnswerView, parts [][]int, cursor []int) error {
	for _, si := range order {
		ans := logs[si].Answer(cursor[si])
		cursor[si]++
		global := model.Answer{
			Worker:   ans.Worker,
			Task:     model.TaskID(parts[si][ans.Task]),
			Selected: ans.Selected,
		}
		if err := dst.Observe(global); err != nil {
			return err
		}
	}
	return nil
}
