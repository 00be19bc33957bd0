package serve

// Deterministic-time tests of the degradation ladder and the rank
// timing fields. Every test here drives the server through an injected
// obs.Clock — there is no time.Sleep anywhere in this file, and none of
// these tests depend on scheduler or wall-clock behaviour.
//
// The fake clock's base sits far in the REAL future. Context deadlines
// are absolute times, so a deadline set relative to the fake "now" is
// ~1000h away in real time and the runtime's timer never fires during
// the test; only the server's own remaining() arithmetic — which runs
// on the injected clock — sees the budget, which is exactly the seam
// under test.

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"crowdrank/internal/crowd"
	"crowdrank/internal/obs"
)

// fakeBase returns the fake-clock epoch: far enough in the real future
// that real timers armed from fake-relative deadlines cannot fire.
func fakeBase() time.Time {
	return time.Now().Add(1000 * time.Hour)
}

func TestLadderDeterministic(t *testing.T) {
	cases := []struct {
		name string
		// votes ingested before ranking; nil exercises the prior.
		votes []crowd.Vote
		// budget is the rank deadline relative to the fake now; 0 means
		// no deadline at all; negative means already expired.
		budget       time.Duration
		tripBreaker  bool
		wantAlgo     string
		wantDegraded bool
	}{
		{
			name:     "no votes answers the uninformed prior",
			budget:   10 * time.Second,
			wantAlgo: AlgoUninformed,
		},
		{
			name:     "ample budget reaches exact search",
			votes:    agreeingVotes(6, 2),
			budget:   10 * time.Second,
			wantAlgo: AlgoExactHeldKarp,
		},
		{
			name:     "no deadline reaches exact search",
			votes:    agreeingVotes(6, 2),
			wantAlgo: AlgoExactHeldKarp,
		},
		{
			name:         "open breaker degrades to SAPS",
			votes:        agreeingVotes(6, 2),
			budget:       10 * time.Second,
			tripBreaker:  true,
			wantAlgo:     AlgoSAPS,
			wantDegraded: true,
		},
		{
			name:         "expired deadline still answers on the greedy floor",
			votes:        agreeingVotes(6, 2),
			budget:       -time.Second,
			wantAlgo:     AlgoGreedy,
			wantDegraded: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := obs.NewFakeClock(fakeBase())
			cfg := DefaultConfig(6, 2)
			cfg.Seed = 42
			cfg.Clock = clock
			s := newTestServer(t, cfg)
			if len(tc.votes) > 0 {
				if _, err := s.Ingest(tc.votes); err != nil {
					t.Fatal(err)
				}
			}
			if tc.tripBreaker {
				for i := 0; i < cfg.BreakerThreshold; i++ {
					s.breaker.failure()
				}
			}
			ctx := context.Background()
			if tc.budget != 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithDeadline(ctx, clock.Now().Add(tc.budget))
				defer cancel()
			}
			rr, err := s.RankContext(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if rr.Algorithm != tc.wantAlgo {
				t.Fatalf("algorithm = %s, want %s", rr.Algorithm, tc.wantAlgo)
			}
			if rr.Degraded != tc.wantDegraded {
				t.Fatalf("degraded = %v, want %v", rr.Degraded, tc.wantDegraded)
			}
			assertPermutation(t, 6, rr.Ranking)
		})
	}
}

// TestBreakerHalfOpenProbe walks the full breaker lifecycle through the
// server: trip it, watch ranks degrade while the cooldown runs, advance
// the fake clock past the cooldown, and confirm the single half-open
// probe re-enters exact search and closes the breaker on success.
func TestBreakerHalfOpenProbe(t *testing.T) {
	clock := obs.NewFakeClock(fakeBase())
	cfg := DefaultConfig(6, 2)
	cfg.Seed = 7
	cfg.Clock = clock
	s := newTestServer(t, cfg)
	if _, err := s.Ingest(agreeingVotes(6, 2)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.BreakerThreshold; i++ {
		s.breaker.failure()
	}

	// Inside the cooldown the exact rung is refused.
	rr, err := s.RankContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rr.Algorithm == AlgoExactHeldKarp || rr.Algorithm == AlgoExactBranchBound {
		t.Fatalf("open breaker must skip exact search, got %s", rr.Algorithm)
	}
	if !rr.Degraded || rr.Breaker != "open" {
		t.Fatalf("want degraded response from an open breaker, got degraded=%v breaker=%s", rr.Degraded, rr.Breaker)
	}

	// Past the cooldown the next request is the half-open probe; exact
	// search succeeds and closes the breaker.
	clock.Advance(cfg.BreakerCooldown + time.Second)
	rr, err = s.RankContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rr.Algorithm != AlgoExactHeldKarp {
		t.Fatalf("half-open probe should reach exact search, got %s", rr.Algorithm)
	}
	if rr.Degraded || rr.Breaker != "closed" {
		t.Fatalf("successful probe should close the breaker, got degraded=%v breaker=%s", rr.Degraded, rr.Breaker)
	}
}

// jumpClock simulates a host whose wall clock steps backward between
// reads (NTP correction, VM migration) while honouring the Clock
// contract that Since is monotonic and never negative. Any code path
// that computes an elapsed duration as clock.Now().Sub(start) instead
// of clock.Since(start) sees hours of negative time under this clock.
type jumpClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *jumpClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(-time.Hour)
	return c.now
}

func (c *jumpClock) Since(time.Time) time.Duration { return 5 * time.Millisecond }

// TestElapsedSurvivesWallClockJumps pins the monotonic-duration
// contract: RankResult.Elapsed and the /healthz duration fields stay
// positive even when the wall clock runs backward mid-request.
func TestElapsedSurvivesWallClockJumps(t *testing.T) {
	cfg := DefaultConfig(4, 2)
	cfg.Clock = &jumpClock{now: time.Unix(1_700_000_000, 0)}
	s := newTestServer(t, cfg)

	rr, err := s.Rank()
	if err != nil {
		t.Fatal(err)
	}
	if rr.Elapsed <= 0 {
		t.Fatalf("RankResult.Elapsed = %v; durations must come from Clock.Since, not Now().Sub", rr.Elapsed)
	}

	st := s.StatsSnapshot()
	if st.UptimeSeconds <= 0 {
		t.Fatalf("Stats.UptimeSeconds = %v; must be monotonic-safe", st.UptimeSeconds)
	}
	if st.RecoverySeconds < 0 {
		t.Fatalf("Stats.RecoverySeconds = %v; must never be negative", st.RecoverySeconds)
	}
}

// rankAt ranks s under a deadline budget from the fake clock's now (0
// means no deadline).
func rankAt(t *testing.T, s *Server, clock *obs.FakeClock, budget time.Duration) *RankResult {
	t.Helper()
	ctx := context.Background()
	if budget != 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, clock.Now().Add(budget))
		defer cancel()
	}
	rr, err := s.RankContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return rr
}

// sameAnswer fails unless a and b report the same ranking and the same
// account of how it was produced.
func sameAnswer(t *testing.T, what string, a, b *RankResult) {
	t.Helper()
	if !slices.Equal(a.Ranking, b.Ranking) || a.LogProb != b.LogProb || a.Algorithm != b.Algorithm ||
		a.Degraded != b.Degraded || a.Seed != b.Seed || a.Votes != b.Votes {
		t.Fatalf("%s differs:\n got  %v %v %s degraded=%v seed=%d votes=%d\n want %v %v %s degraded=%v seed=%d votes=%d", what,
			a.Ranking, a.LogProb, a.Algorithm, a.Degraded, a.Seed, a.Votes,
			b.Ranking, b.LogProb, b.Algorithm, b.Degraded, b.Seed, b.Votes)
	}
}

// TestAnswerCacheMatchesRerun pins the cache's contract: a warm rank
// serves exactly what the cold rank computed, and a fresh server over the
// same votes and seed computes the same thing again.
func TestAnswerCacheMatchesRerun(t *testing.T) {
	cases := []struct {
		name        string
		exactLimit  int // 0 keeps the default (Held-Karp at n=7)
		budget      time.Duration
		tripBreaker bool
		wantAlgo    string
	}{
		{name: "held-karp", budget: 10 * time.Second, wantAlgo: AlgoExactHeldKarp},
		{name: "held-karp without deadline", wantAlgo: AlgoExactHeldKarp},
		{name: "branch-and-bound", exactLimit: 3, budget: 10 * time.Second, wantAlgo: AlgoExactBranchBound},
		{name: "saps behind an open breaker", budget: 10 * time.Second, tripBreaker: true, wantAlgo: AlgoSAPS},
	}
	const n, m = 7, 3
	votes := noisyVotes(n, m, 5)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := obs.NewFakeClock(fakeBase())
			newServer := func() *Server {
				cfg := DefaultConfig(n, m)
				cfg.Seed = 42
				cfg.Clock = clock
				cfg.ExactLimit = tc.exactLimit
				s := newTestServer(t, cfg)
				if _, err := s.Ingest(votes); err != nil {
					t.Fatal(err)
				}
				if tc.tripBreaker {
					for i := 0; i < cfg.BreakerThreshold; i++ {
						s.breaker.failure()
					}
				}
				return s
			}
			s := newServer()
			cold := rankAt(t, s, clock, tc.budget)
			warm := rankAt(t, s, clock, tc.budget)
			fresh := rankAt(t, newServer(), clock, tc.budget)
			if cold.Algorithm != tc.wantAlgo {
				t.Fatalf("algorithm = %s, want %s", cold.Algorithm, tc.wantAlgo)
			}
			if cold.Cached || !warm.Cached || fresh.Cached {
				t.Fatalf("cached flags cold=%v warm=%v fresh=%v, want false true false", cold.Cached, warm.Cached, fresh.Cached)
			}
			sameAnswer(t, "warm rank", warm, cold)
			sameAnswer(t, "fresh server's rank", fresh, cold)
			assertPermutation(t, n, warm.Ranking)

			// The warm rank looked the closure and its rung's answer up
			// and ran no search.
			if hit, miss := s.met.closureCacheHit.Value(), s.met.closureCacheMiss.Value(); hit != 1 || miss != 1 {
				t.Fatalf("closure cache hit/miss = %d/%d, want 1/1", hit, miss)
			}
			if hit := s.met.answerCacheHit.Value(); hit != 1 {
				t.Fatalf("answer cache hits = %d, want 1", hit)
			}
			if got := s.met.stageSeconds[stageSearch].Count(); got != 1 {
				t.Fatalf("search stage observed %d times, want once (the cold rank)", got)
			}
		})
	}
}

// TestAnswerCacheFollowsGeneration checks what invalidates the entry: an
// ingest that accepts votes does, an all-duplicate batch does not.
func TestAnswerCacheFollowsGeneration(t *testing.T) {
	clock := obs.NewFakeClock(fakeBase())
	cfg := DefaultConfig(6, 2)
	cfg.Seed = 11
	cfg.Clock = clock
	s := newTestServer(t, cfg)
	steps := []struct {
		name       string
		ingest     []crowd.Vote
		wantAdded  int
		wantCached bool
	}{
		{name: "first rank computes", ingest: agreeingVotes(6, 1), wantAdded: 15},
		{name: "unchanged state hits", wantCached: true},
		{name: "all-duplicate batch keeps the entry", ingest: agreeingVotes(6, 1), wantCached: true},
		{name: "accepted votes invalidate it", ingest: []crowd.Vote{{Worker: 1, I: 2, J: 3, PrefersI: false}}, wantAdded: 1},
		{name: "the new generation hits again", wantCached: true},
	}
	var prev *RankResult
	for _, st := range steps {
		if st.ingest != nil {
			res, err := s.Ingest(st.ingest)
			if err != nil {
				t.Fatal(err)
			}
			if res.Accepted != st.wantAdded {
				t.Fatalf("%s: accepted %d votes, want %d", st.name, res.Accepted, st.wantAdded)
			}
		}
		rr := rankAt(t, s, clock, 10*time.Second)
		if rr.Cached != st.wantCached {
			t.Fatalf("%s: cached = %v, want %v", st.name, rr.Cached, st.wantCached)
		}
		if st.wantCached {
			sameAnswer(t, st.name, rr, prev)
		}
		prev = rr
	}
}

// TestAnswerCacheBreakerProbe: with the breaker open the SAPS answer is
// served from the cache; past the cooldown the half-open probe still runs
// exact search (nothing exact is cached yet) and closes the breaker, and
// the rank after it is an exact hit. Once the exact answer is cached, a
// later probe that finds it resolves the probe exactly as the search it
// stands in for would, so the breaker closes again.
func TestAnswerCacheBreakerProbe(t *testing.T) {
	clock := obs.NewFakeClock(fakeBase())
	cfg := DefaultConfig(6, 2)
	cfg.Seed = 7
	cfg.Clock = clock
	s := newTestServer(t, cfg)
	if _, err := s.Ingest(noisyVotes(6, 2, 3)); err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name        string
		trip        bool
		advance     time.Duration
		wantAlgo    string
		wantCached  bool
		wantBreaker string
	}{
		{name: "open breaker computes SAPS", trip: true, wantAlgo: AlgoSAPS, wantBreaker: "open"},
		{name: "open breaker serves the cached SAPS answer", wantAlgo: AlgoSAPS, wantCached: true, wantBreaker: "open"},
		{name: "half-open probe runs exact search", advance: cfg.BreakerCooldown + time.Second, wantAlgo: AlgoExactHeldKarp, wantBreaker: "closed"},
		{name: "closed breaker serves the cached exact answer", wantAlgo: AlgoExactHeldKarp, wantCached: true, wantBreaker: "closed"},
		{name: "re-opened breaker serves the cached SAPS answer", trip: true, wantAlgo: AlgoSAPS, wantCached: true, wantBreaker: "open"},
		{name: "probe served from the cache closes the breaker", advance: cfg.BreakerCooldown + time.Second, wantAlgo: AlgoExactHeldKarp, wantCached: true, wantBreaker: "closed"},
	}
	for _, st := range steps {
		if st.trip {
			for i := 0; i < cfg.BreakerThreshold; i++ {
				s.breaker.failure()
			}
		}
		clock.Advance(st.advance)
		rr := rankAt(t, s, clock, 10*time.Second)
		if rr.Algorithm != st.wantAlgo || rr.Cached != st.wantCached || rr.Breaker != st.wantBreaker {
			t.Fatalf("%s: algorithm=%s cached=%v breaker=%s, want %s %v %s", st.name,
				rr.Algorithm, rr.Cached, rr.Breaker, st.wantAlgo, st.wantCached, st.wantBreaker)
		}
		if rr.Degraded != (st.wantAlgo == AlgoSAPS) {
			t.Fatalf("%s: degraded = %v", st.name, rr.Degraded)
		}
	}
}

// TestAnswerCacheConcurrentRanks ranks one generation from many
// goroutines at once (run under -race): every answer must be the same,
// whether it was computed or served from the cache.
func TestAnswerCacheConcurrentRanks(t *testing.T) {
	clock := obs.NewFakeClock(fakeBase())
	cfg := DefaultConfig(7, 3)
	cfg.Seed = 19
	cfg.Clock = clock
	cfg.MaxConcurrentRanks = 8
	s := newTestServer(t, cfg)
	if _, err := s.Ingest(noisyVotes(7, 3, 9)); err != nil {
		t.Fatal(err)
	}
	results := make([]*RankResult, 8)
	errs := make([]error, len(results))
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = s.RankContext(context.Background())
		}()
	}
	wg.Wait()
	for i, rr := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		sameAnswer(t, "concurrent rank", rr, results[0])
	}
	// Editing served rankings must not reach the cache.
	want := *results[0]
	want.Ranking = slices.Clone(want.Ranking)
	for _, rr := range results {
		slices.Reverse(rr.Ranking)
	}
	rr, err := s.RankContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Cached {
		t.Fatal("rank after the concurrent burst should be served from the cache")
	}
	sameAnswer(t, "rank after callers edited their copies", rr, &want)
}
