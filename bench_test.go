package crowdrank

// Benchmarks: one testing.B benchmark per paper table/figure, each running
// the corresponding experiment generator at quick scale (see
// internal/bench and DESIGN.md's per-experiment index; cmd/experiments runs
// the paper-scale versions). Additional micro-benchmarks cover the pipeline
// steps individually so regressions localize.

import (
	"fmt"
	"io"
	"math/rand/v2"
	"testing"

	"crowdrank/internal/bench"
	"crowdrank/internal/core"
	"crowdrank/internal/search"
)

func benchExperiment(b *testing.B, fn func(io.Writer, bench.Scale) error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := fn(io.Discard, bench.ScaleQuick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3 regenerates Figure 3 (SAPS inference time vs object count).
func BenchmarkFig3(b *testing.B) { benchExperiment(b, bench.Fig3) }

// BenchmarkFig4 regenerates Figure 4 (inference time vs selection ratio,
// with the per-step breakdown).
func BenchmarkFig4(b *testing.B) { benchExperiment(b, bench.Fig4) }

// BenchmarkFig5 regenerates Figure 5 (accuracy vs object count and ratio).
func BenchmarkFig5(b *testing.B) { benchExperiment(b, bench.Fig5) }

// BenchmarkFig6 regenerates Figure 6 (SAPS vs baselines across budgets and
// worker quality).
func BenchmarkFig6(b *testing.B) { benchExperiment(b, bench.Fig6) }

// BenchmarkTable1 regenerates Table I (SAPS vs RC vs QS vs CrowdBT).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, bench.Table1) }

// BenchmarkAMT regenerates the Section VI-D AMT study on the synthetic
// PubFig stand-in (exact-vs-SAPS agreement).
func BenchmarkAMT(b *testing.B) { benchExperiment(b, bench.AMT) }

// BenchmarkConvergence regenerates the Section V-A convergence report.
func BenchmarkConvergence(b *testing.B) { benchExperiment(b, bench.Convergence) }

// BenchmarkAblation regenerates the design-choice ablations (alpha, hops,
// shrinkage prior, smoothing clamp, objective reading, SAPS restarts).
func BenchmarkAblation(b *testing.B) { benchExperiment(b, bench.Ablation) }

// BenchmarkMakespan regenerates the DES marketplace makespan comparison
// (non-interactive batch vs interactive round-trips).
func BenchmarkMakespan(b *testing.B) { benchExperiment(b, bench.Makespan) }

// BenchmarkRobustness regenerates the robustness sweeps (adversary
// fraction, replication, pool size).
func BenchmarkRobustness(b *testing.B) { benchExperiment(b, bench.Robustness) }

// BenchmarkWorkers regenerates the worker-quality estimation evaluation
// (estimated vs true per-worker accuracy).
func BenchmarkWorkers(b *testing.B) { benchExperiment(b, bench.Workers) }

// BenchmarkTopK regenerates the top-k extension evaluation (prefix quality
// vs budget).
func BenchmarkTopK(b *testing.B) { benchExperiment(b, bench.TopK) }

// BenchmarkFaults regenerates the fault-injection sweep (dropout rate vs
// delivery, coverage, and accuracy, with and without repair).
func BenchmarkFaults(b *testing.B) { benchExperiment(b, bench.Faults) }

// ---- Pipeline micro-benchmarks ----

// BenchmarkPlanTasks measures task-graph generation (Algorithm 1).
func BenchmarkPlanTasks(b *testing.B) {
	for _, n := range []int{100, 500} {
		b.Run(byN(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := PlanTasksRatio(n, 0.1, uint64(i)+1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInfer measures the full inference pipeline on pre-simulated
// rounds of increasing size.
func BenchmarkInfer(b *testing.B) {
	for _, n := range []int{50, 100, 200} {
		plan, err := PlanTasksRatio(n, 0.1, 7)
		if err != nil {
			b.Fatal(err)
		}
		cfg := DefaultSimConfig(8)
		round, err := SimulateVotes(plan, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(byN(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Infer(plan.N, cfg.Workers, round.Votes, WithSeed(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSAPSSearch isolates Step 4 (simulated annealing) at n=200: the
// closure is built once, outside the timer, and only SAPS is timed.
func BenchmarkSAPSSearch(b *testing.B) {
	const n = 200
	plan, err := PlanTasksRatio(n, 0.1, 9)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultSimConfig(10)
	round, err := SimulateVotes(plan, cfg)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.DefaultOptions()
	cl, err := core.BuildClosure(plan.N, cfg.Workers, toInternalVotes(round.Votes), opts, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.SAPS(cl.Closure, opts.SAPS, rand.New(rand.NewPCG(uint64(i), 3))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKendall measures the O(n log n) Kendall distance on large
// rankings.
func BenchmarkKendall(b *testing.B) {
	const n = 10000
	a := make([]int, n)
	c := make([]int, n)
	for i := range a {
		a[i] = i
		c[n-1-i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KendallTauDistance(a, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselines measures the competing aggregators on a shared round.
func BenchmarkBaselines(b *testing.B) {
	const n = 100
	plan, err := PlanTasksRatio(n, 0.5, 11)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultSimConfig(12)
	round, err := SimulateVotes(plan, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []BaselineName{BaselineRC, BaselineQS, BaselineMajority, BaselineBorda, BaselineCrowdBT} {
		b.Run(string(name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunBaseline(name, plan.N, cfg.Workers, round.Votes, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func byN(n int) string { return fmt.Sprintf("n=%d", n) }
