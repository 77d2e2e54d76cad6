package experiment

import (
	"fmt"
	"sort"
	"strings"
)

// Runner executes one experiment for a given seed and returns its printable
// result.
type Runner func(seed int64) (fmt.Stringer, error)

// multi concatenates several stringers, used for per-dataset pairs.
type multi []fmt.Stringer

func (m multi) String() string {
	parts := make([]string, len(m))
	for i, s := range m {
		parts[i] = s.String()
	}
	return strings.Join(parts, "\n")
}

// bothDatasets lifts a scenario runner into one that runs Beijing and China
// and concatenates the outputs, the pairing every paper figure uses.
func bothDatasets[T fmt.Stringer](run func(Scenario) (T, error)) Runner {
	return func(seed int64) (fmt.Stringer, error) {
		var out multi
		for _, s := range BothDatasets(seed) {
			r, err := run(s)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	}
}

// Registry maps experiment IDs (as used by cmd/poibench) to runners. Every
// id is pinned: multiseed by TestPaperOrderings, the rest by a golden file
// under testdata/paper (TestRegistryComplete enforces both).
func Registry() map[string]Runner {
	return map[string]Runner{
		"fig6":            bothDatasets(RunFig6),
		"fig7":            bothDatasets(RunFig7),
		"fig8":            bothDatasets(RunFig8),
		"table1":          bothDatasets(RunTable1),
		"fig9":            bothDatasets(RunFig9),
		"fig10":           bothDatasets(RunFig10),
		"fig11":           bothDatasets(RunFig11), // with Table II
		"ablation-update": RunAblationUpdatePolicy,
		"ablation-greedy": RunAblationGreedy,
		"ablation-stopping": bothDatasets(func(s Scenario) (*StoppingResult, error) {
			return RunStopping(s, nil)
		}),
		"ablation-calibration": bothDatasets(RunCalibration),
		"ablation-adversary":   RunAblationAdversary,
		"multiseed": func(seed int64) (fmt.Stringer, error) {
			var out multi
			for _, name := range []string{"Beijing", "China"} {
				r, err := RunMultiSeed(name, ClaimsSeeds(seed))
				if err != nil {
					return nil, err
				}
				out = append(out, r)
			}
			return out, nil
		},
	}
}

// IDs returns the registered experiment IDs in sorted order.
func IDs() []string {
	reg := Registry()
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
