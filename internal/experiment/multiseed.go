package experiment

import (
	"fmt"

	"poilabel/internal/stats"
)

// MultiSeedResult aggregates the headline comparisons (Figure 9 inference
// accuracy and Figure 11 assignment accuracy at the full budget) over
// several scenario seeds, reporting mean ± std and how often each expected
// ordering held. The paper reports a single live deployment; this is the
// reproduction's honesty check on geography/population luck.
type MultiSeedResult struct {
	Dataset string
	Seeds   []int64
	// Inference accuracies at the final budget, per seed.
	MV, EM, IM []float64
	// Assignment accuracies at the final budget, per seed.
	Random, SF, AccOpt []float64
}

// ClaimsSeeds returns the 20 scenario seeds the ordering claims are
// counted over: first, first+7, …, first+133. TestPaperOrderings uses
// ClaimsSeeds(101), so `poibench -seed 101 multiseed` prints what it
// asserts.
func ClaimsSeeds(first int64) []int64 {
	seeds := make([]int64, 20)
	for i := range seeds {
		seeds[i] = first + 7*int64(i)
	}
	return seeds
}

// RunMultiSeed executes fig9 and fig11 at each seed for one dataset.
func RunMultiSeed(datasetName string, seeds []int64) (*MultiSeedResult, error) {
	res := &MultiSeedResult{Dataset: datasetName, Seeds: seeds}
	for _, seed := range seeds {
		s := DefaultScenario(datasetName, seed)
		f9, err := RunFig9(s)
		if err != nil {
			return nil, err
		}
		last := len(f9.Budgets) - 1
		res.MV = append(res.MV, f9.MV[last])
		res.EM = append(res.EM, f9.EM[last])
		res.IM = append(res.IM, f9.IM[last])

		f11, err := RunFig11(s)
		if err != nil {
			return nil, err
		}
		res.Random = append(res.Random, f11.Runs[0].Accuracy[last])
		res.SF = append(res.SF, f11.Runs[1].Accuracy[last])
		res.AccOpt = append(res.AccOpt, f11.Runs[2].Accuracy[last])
	}
	return res, nil
}

// OrderingCounts reports in how many seeds the paper's orderings held:
// IM > EM, EM ≥ MV, AccOpt > SF, SF > Random.
func (r *MultiSeedResult) OrderingCounts() (imBeatsEM, emBeatsMV, accBeatsSF, sfBeatsRandom int) {
	for i := range r.Seeds {
		if r.IM[i] > r.EM[i] {
			imBeatsEM++
		}
		if r.EM[i] >= r.MV[i] {
			emBeatsMV++
		}
		if r.AccOpt[i] > r.SF[i] {
			accBeatsSF++
		}
		if r.SF[i] > r.Random[i] {
			sfBeatsRandom++
		}
	}
	return
}

// Table renders mean ± std per method and the ordering tallies.
func (r *MultiSeedResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Multi-seed summary (%s, %d seeds, accuracy at budget 1000)", r.Dataset, len(r.Seeds)),
		"method", "mean", "std", "min", "max")
	row := func(name string, xs []float64) {
		s := stats.Summarize(xs)
		t.AddRowf(name,
			fmt.Sprintf("%.1f%%", 100*s.Mean),
			fmt.Sprintf("%.1f", 100*s.Std),
			fmt.Sprintf("%.1f%%", 100*s.Min),
			fmt.Sprintf("%.1f%%", 100*s.Max))
	}
	row("MV", r.MV)
	row("EM", r.EM)
	row("IM", r.IM)
	row("Random", r.Random)
	row("SF", r.SF)
	row("AccOpt", r.AccOpt)
	return t
}

func (r *MultiSeedResult) String() string {
	ime, emv, acs, sfr := r.OrderingCounts()
	n := len(r.Seeds)
	return r.Table().String() + fmt.Sprintf(
		"orderings held: IM>EM %d/%d, EM>=MV %d/%d, AccOpt>SF %d/%d, SF>Random %d/%d\n",
		ime, n, emv, n, acs, n, sfr, n)
}
