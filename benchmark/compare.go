package main

import (
	"fmt"
	"sort"
)

// side is one result file's runs of one workload x metric.
type side struct {
	Values      []float64
	Q1, Med, Q3 float64
}

// comparison is one row of `benchmark compare`: one end-to-end metric on one
// workload, A against B.
type comparison struct {
	Workload, Metric, Unit, Better string
	Bound                          float64
	A, B                           side
	// Verdict: same, worse, better, or unresolved when either side's own
	// spread is wider than the bound and the runs overlap.
	Verdict string
}

// quartiles are the first and third quartile and the median of xs, by the
// exclusive method of Python's statistics.quantiles(xs, n=4), which is what
// the harness computes.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		j = max(1, min(n-1, j))
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func newSide(xs []float64) side {
	q1, med, q3 := quartiles(xs)
	return side{Values: xs, Q1: q1, Med: med, Q3: q3}
}

// spread is the distance between the quartiles, as a share of the median
// unless the metric's bound is absolute.
func (s side) spread(absolute bool) float64 {
	if absolute {
		return s.Q3 - s.Q1
	}
	if s.Med == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Med
}

// absoluteBound names the metrics whose bound is a difference, not a share of
// the parent's median: one point of label accuracy is one point whether the
// parent labels 83 % or 91 % right. (The harness reads every bound as a share;
// at an accuracy below 1 that is the stricter reading.)
var absoluteBound = map[string]bool{"label_accuracy": true}

// minRuns is how many runs a side needs before its spread means anything;
// with fewer, a difference beyond the bound is unresolved, not a verdict.
const minRuns = 3

// verdict applies the rule of the choosing-metrics guide: B is worse (better)
// when its median is worse (better) than A's by more than the bound; where a
// side's own spread is wider than the bound, or unknown, the metric is
// unresolved, unless every run of one side beats every run of the other.
func verdict(a, b side, better string, bound float64, absolute bool) string {
	if a.Med == 0 || len(a.Values) == 0 || len(b.Values) == 0 {
		return "unresolved"
	}
	// worse > 0 means B is worse than A, as a share of A's median or, for an
	// absolute bound, in the metric's own unit.
	worse := b.Med - a.Med
	if !absolute {
		worse /= a.Med
	}
	if better == higher {
		worse = -worse
	}
	minA, maxA := a.Values[0], a.Values[0]
	for _, x := range a.Values {
		minA, maxA = min(minA, x), max(maxA, x)
	}
	minB, maxB := b.Values[0], b.Values[0]
	for _, x := range b.Values {
		minB, maxB = min(minB, x), max(maxB, x)
	}
	allBAbove, allBBelow := minB > maxA, maxB < minA
	if len(a.Values) < minRuns || len(b.Values) < minRuns {
		if worse > bound || worse < -bound {
			return "unresolved"
		}
		return "same"
	}
	if a.spread(absolute) > bound || b.spread(absolute) > bound {
		switch {
		case allBAbove && better == higher, allBBelow && better == lower:
			if worse < -bound {
				return "better"
			}
		case allBAbove && better == lower, allBBelow && better == higher:
			if worse > bound {
				return "worse"
			}
		}
		return "unresolved"
	}
	switch {
	case worse > bound:
		return "worse"
	case worse < -bound:
		return "better"
	}
	return "same"
}

// compare lines up the untraced runs of two result files.
func compare(a, b resultFile) ([]comparison, []string) {
	var warnings []string
	if a.Seed != b.Seed || a.Seconds != b.Seconds || a.Repeat != b.Repeat {
		warnings = append(warnings, fmt.Sprintf("the two files were not run alike: seed %d/%d, seconds %g/%g, repeat %d/%d",
			a.Seed, b.Seed, a.Seconds, b.Seconds, a.Repeat, b.Repeat))
	}
	if a.Env.NumCPU != b.Env.NumCPU || a.Env.GOMAXPROCS != b.Env.GOMAXPROCS || a.Env.GoVersion != b.Env.GoVersion {
		warnings = append(warnings, fmt.Sprintf("different environments: nproc %d/%d, GOMAXPROCS %d/%d, %s/%s",
			a.Env.NumCPU, b.Env.NumCPU, a.Env.GOMAXPROCS, b.Env.GOMAXPROCS, a.Env.GoVersion, b.Env.GoVersion))
	}
	collect := func(f resultFile, workload, metric string) []float64 {
		var xs []float64
		for _, r := range f.Runs {
			if r.Workload == workload && !r.Traced {
				if v, ok := r.Metrics[metric]; ok {
					xs = append(xs, v.Value)
				}
			}
		}
		return xs
	}
	for _, f := range []resultFile{a, b} {
		for _, r := range f.Runs {
			if !r.Correct {
				warnings = append(warnings, fmt.Sprintf("%s (seed %d, traced %v) of commit %s failed %d operations or checks",
					r.Workload, r.Seed, r.Traced, f.Env.Commit, r.Failed))
			}
		}
	}
	var rows []comparison
	for _, w := range workloadNames {
		for _, d := range endToEndDecl {
			row := comparison{Workload: w, Metric: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound,
				A: newSide(collect(a, w, d.Name)), B: newSide(collect(b, w, d.Name))}
			row.Verdict = verdict(row.A, row.B, d.Better, d.Bound, absoluteBound[d.Name])
			rows = append(rows, row)
		}
	}
	return rows, warnings
}

func printComparison(rows []comparison) {
	fmt.Printf("%-14s %-26s %-5s %33s %33s %6s  %s\n", "workload", "metric", "unit", "A: q1 / median / q3 (n)", "B: q1 / median / q3 (n)", "bound", "verdict")
	for _, r := range rows {
		fmt.Printf("%-14s %-26s %-5s %33s %33s %6.2f  %s\n", r.Workload, r.Metric, r.Unit,
			fmt.Sprintf("%.4g / %.4g / %.4g (%d)", r.A.Q1, r.A.Med, r.A.Q3, len(r.A.Values)),
			fmt.Sprintf("%.4g / %.4g / %.4g (%d)", r.B.Q1, r.B.Med, r.B.Q3, len(r.B.Values)),
			r.Bound, r.Verdict)
	}
}
