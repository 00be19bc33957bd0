package serve

import (
	"testing"
	"time"

	"crowdrank/internal/bench"
)

// benchRankServer is a daemon holding an n=200, ratio-0.1 simulated round
// with the exact rung's breaker open, so every rank lands on SAPS as it
// does in steady state on an instance branch-and-bound cannot finish
// inside the default deadline.
func benchRankServer(b *testing.B) *Server {
	b.Helper()
	round, err := bench.NewRound(bench.DefaultRunConfig(200, 0.1, 1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(round.Cfg.N, round.Cfg.Workers)
	cfg.Seed = 1
	cfg.BreakerCooldown = 24 * time.Hour
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := s.Close(); err != nil {
			b.Error(err)
		}
	})
	if _, err := s.Ingest(round.Votes); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < cfg.BreakerThreshold; i++ {
		s.breaker.failure()
	}
	return s
}

// BenchmarkRankCold ranks a generation seen for the first time: the
// closure rebuild (Steps 1-3) plus the SAPS search.
func BenchmarkRankCold(b *testing.B) {
	s := benchRankServer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s.entry.Store(nil)
		b.StartTimer()
		rr, err := s.Rank()
		if err != nil {
			b.Fatal(err)
		}
		if rr.Cached || rr.Algorithm != AlgoSAPS {
			b.Fatalf("cold rank answered %s (cached=%v), want a SAPS search", rr.Algorithm, rr.Cached)
		}
	}
}

// BenchmarkRankWarm ranks an unchanged generation: the answer cache
// serves the stored SAPS answer.
func BenchmarkRankWarm(b *testing.B) {
	s := benchRankServer(b)
	if _, err := s.Rank(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rr, err := s.Rank()
		if err != nil {
			b.Fatal(err)
		}
		if !rr.Cached {
			b.Fatal("warm rank was not served from the answer cache")
		}
	}
}
