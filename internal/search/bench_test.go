package search_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"crowdrank/internal/bench"
	"crowdrank/internal/core"
	"crowdrank/internal/search"
)

// BenchmarkSAPS times Step 4 alone on the closure of a simulated round
// (ratio 0.1, 30 workers, 10 per task) under the default options; Steps
// 1-3 run once, outside the timer.
func BenchmarkSAPS(b *testing.B) {
	for _, n := range []int{200, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			round, err := bench.NewRound(bench.DefaultRunConfig(n, 0.1, 1))
			if err != nil {
				b.Fatal(err)
			}
			opts := core.DefaultOptions()
			cl, err := core.BuildClosure(n, round.Cfg.Workers, round.Votes, opts, rand.New(rand.NewPCG(1, 2)))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := search.SAPS(cl.Closure, opts.SAPS, rand.New(rand.NewPCG(uint64(i), 3))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
