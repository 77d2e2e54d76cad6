package core

import "testing"

// BenchmarkEStep measures one full E-step sweep (accumulate over every
// answer) at three scales. The sweep must be allocation-free in steady
// state — run with -benchmem and expect 0 allocs/op; the acceptance bar of
// the hot-path refactor is exactly that.
func BenchmarkEStep(b *testing.B) {
	scales := []struct {
		name                       string
		nTasks, nWorkers, nAnswers int
	}{
		{"S", 50, 10, 250},
		{"M", 500, 50, 2500},
		{"L", 2000, 100, 20000},
	}
	for _, sc := range scales {
		b.Run(sc.name, func(b *testing.B) {
			m := buildRandomModel(b, sc.nTasks, 10, sc.nWorkers, sc.nAnswers, 7)
			f := m.inPlace()
			acc := f.newAccumulators()
			b.ReportMetric(float64(m.answers.Len()), "answers")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				acc.reset()
				for j := 0; j < m.answers.Len(); j++ {
					f.accumulate(j, m.params, acc)
				}
			}
		})
	}
}

// BenchmarkEStepParallel measures the fan-out E-step at the L scale across
// goroutine counts (chunk-merged, deterministic per count).
func BenchmarkEStepParallel(b *testing.B) {
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "p1", 2: "p2", 4: "p4", 8: "p8"}[par], func(b *testing.B) {
			m := buildRandomModel(b, 2000, 10, 100, 20000, 7)
			m.cfg.Parallelism = par
			f := m.inPlace()
			pool := f.newAccPool()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.estepParallel(pool)
			}
		})
	}
}
