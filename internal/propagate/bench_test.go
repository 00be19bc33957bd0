package propagate_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"crowdrank/internal/bench"
	"crowdrank/internal/core"
	"crowdrank/internal/graph"
	"crowdrank/internal/propagate"
	"crowdrank/internal/smooth"
	"crowdrank/internal/truth"
)

// BenchmarkClosure times Step 3 alone on the smoothed graph of a simulated
// round (ratio 0.1, 30 workers, 10 per task) under the default options;
// Steps 1 and 2 run once, outside the timer.
func BenchmarkClosure(b *testing.B) {
	for _, n := range []int{200, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			round, err := bench.NewRound(bench.DefaultRunConfig(n, 0.1, 1))
			if err != nil {
				b.Fatal(err)
			}
			opts := core.DefaultOptions()
			discovered, err := truth.Discover(n, round.Cfg.Workers, round.Votes, opts.Truth)
			if err != nil {
				b.Fatal(err)
			}
			gp, err := truth.BuildPreferenceGraph(n, discovered.Preference)
			if err != nil {
				b.Fatal(err)
			}
			workersByPair := make(map[graph.Pair][]int)
			for _, v := range round.Votes {
				workersByPair[v.Pair()] = append(workersByPair[v.Pair()], v.Worker)
			}
			smoothed, _, err := smooth.Smooth(gp, discovered.Quality, workersByPair, rand.New(rand.NewPCG(1, 2)), opts.Smooth)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := propagate.Closure(smoothed, opts.Propagate); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
