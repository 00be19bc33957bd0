package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"crowdrank/internal/invariant"
	"crowdrank/internal/search"
)

// Algorithm names reported in RankResult.Algorithm. The acceptance
// contract is that a response always names the rung that actually
// produced the ranking.
const (
	AlgoExactHeldKarp    = "exact:heldkarp"
	AlgoExactBranchBound = "exact:branchbound"
	AlgoSAPS             = "saps"
	AlgoGreedy           = "greedy"
	// AlgoUninformed is returned before any votes arrive: the identity
	// order under the uniform 0.5 prior, where every ranking is equally
	// likely.
	AlgoUninformed = "uninformed-prior"
)

// RankResult is one served ranking and the story of how it was produced.
type RankResult struct {
	// Ranking is the full ranking, most-preferred first.
	Ranking []int `json:"ranking"`
	// LogProb is the all-pairs log preference probability of Ranking.
	LogProb float64 `json:"log_prob"`
	// Algorithm names the ladder rung that produced the ranking.
	Algorithm string `json:"algorithm"`
	// Degraded is true when a rung below exact search answered — because
	// the deadline could not afford exact, exact overran, or the breaker
	// had it tripped.
	Degraded bool `json:"degraded"`
	// Votes is the deduplicated vote count the ranking was inferred from.
	Votes int `json:"votes"`
	// Seed is the pipeline seed; CertifyRanking with the same votes and
	// WithSeed(Seed) certifies this ranking against the same closure.
	Seed uint64 `json:"seed"`
	// Cached is true when Ranking is the generation's stored answer from
	// an earlier request rather than a search run for this one. It is
	// identical to what the search would return.
	Cached bool `json:"cached"`
	// Breaker is the exact-rung breaker state after this request
	// (closed, open, or half-open).
	Breaker string `json:"breaker"`
	// Elapsed is the server-side time spent producing the ranking.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// newPipelineRNG seeds the closure pipeline exactly as the public
// Infer/CertifyRanking do, so a served ranking certifies against the
// closure CertifyRanking(..., WithSeed(seed)) rebuilds.
func newPipelineRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0xd1342543de82ef95))
}

// newSearchRNG seeds the SAPS rung. It is deliberately a separate stream,
// fresh for every search: a cached closure means the smoothing draws are
// not re-consumed per request, so SAPS determinism must not depend on
// pipeline stream position. That determinism is what lets the answer
// cache serve a generation's SAPS answer in place of a rerun.
func newSearchRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// heldKarpEstimate guesses Held-Karp's runtime (O(2^n n^2) subset DP) at a
// conservative throughput, so the uncancellable exact rung is only entered
// when the budget clearly covers it.
func heldKarpEstimate(n int) time.Duration {
	const opsPerSecond = 200e6
	ops := float64(n) * float64(n) * math.Pow(2, float64(n))
	return time.Duration(ops / opsPerSecond * float64(time.Second))
}

// Rank is RankContext under the configured default deadline.
func (s *Server) Rank() (*RankResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DefaultDeadline)
	defer cancel()
	return s.RankContext(ctx)
}

// RankContext serves a ranking within ctx's deadline by walking the
// degradation ladder: exact search (Held-Karp up to ExactLimit objects,
// branch-and-bound beyond) when the breaker is closed and the budget
// affords it, SAPS annealing when it does not, and the greedy tournament
// order as the floor. An expired deadline is absorbed by degradation — the
// call still returns a ranking; only an explicit cancellation (client
// gone) or a broken pipeline returns an error.
//
// Each generation's closure and completed exact and SAPS answers are
// cached (cache.go). The ladder's entry conditions are unchanged — a rung
// is entered exactly when it would be without the cache — but an entered
// rung whose answer is cached serves it instead of searching again.
// Greedy always runs.
func (s *Server) RankContext(ctx context.Context) (*RankResult, error) {
	// All request timing goes through the injected clock: Since carries
	// the monotonic reading on the real clock (immune to wall jumps), and
	// tests drive the ladder deterministically with a fake.
	start := s.clock.Now()
	if s.closing.Load() {
		return nil, errShuttingDown
	}
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closing.Load() {
		return nil, errShuttingDown
	}
	if err := ctx.Err(); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return nil, err // cancelled outright; nobody is waiting for an answer
	}

	votes, gen := s.snapshot()
	res := &RankResult{Votes: len(votes), Seed: s.cfg.Seed}
	var searchStart time.Time
	searched := false // a search ran for this request, not a cache hit
	finish := func(path []int, logProb float64) (*RankResult, error) {
		// Stage-boundary assertion (no-op unless built with
		// -tags crowdrank_invariants): every rung must return a
		// permutation.
		invariant.CheckRanking(s.cfg.N, path)
		res.Ranking = path
		res.LogProb = logProb
		res.Breaker = s.breaker.state()
		res.Elapsed = s.clock.Since(start)
		s.met.rankByAlgo[res.Algorithm].Inc()
		s.met.rankSeconds.ObserveDuration(res.Elapsed)
		if res.Degraded {
			s.met.rankDegraded.Inc()
		}
		if searched {
			s.met.stageSeconds[stageSearch].ObserveDuration(s.clock.Since(searchStart))
		}
		return res, nil
	}
	// serveCached answers with a's stored result. The path is copied so
	// a caller editing its ranking cannot reach the cache.
	serveCached := func(a *rungAnswer) (*RankResult, error) {
		res.Algorithm = a.algorithm
		res.Cached = true
		return finish(slices.Clone(a.path), a.logProb)
	}

	if len(votes) == 0 {
		res.Algorithm = AlgoUninformed
		identity := make([]int, s.cfg.N)
		for i := range identity {
			identity[i] = i
		}
		return finish(identity, 0)
	}

	//lint:ignore lockcheck the shared closeMu read lock intentionally spans the whole inference (closure build and searchers) so Close's drain waits for in-flight ranks instead of yanking state from under them
	closure, err := s.closure(votes, gen)
	if err != nil {
		return nil, err
	}
	searchStart = s.clock.Now()
	const obj = search.ObjectiveAllPairs
	deadline, hasDeadline := ctx.Deadline()
	remaining := func() time.Duration {
		if !hasDeadline {
			return time.Hour
		}
		return deadline.Sub(s.clock.Now())
	}

	// Rung 1: exact search. Decide affordability before consulting the
	// breaker so a half-open probe slot is never claimed and then wasted
	// on a budget skip.
	useHeldKarp := s.cfg.N <= s.cfg.ExactLimit
	exactBudget := time.Duration(float64(remaining()) * s.cfg.ExactFraction)
	affordable := exactBudget >= s.cfg.MinRungBudget
	if useHeldKarp && hasDeadline {
		// Held-Karp cannot be cancelled mid-flight; require the budget to
		// clearly cover its estimated cost.
		affordable = exactBudget > 2*heldKarpEstimate(s.cfg.N)
	}
	if affordable && s.breaker.allow() {
		if a := s.cachedAnswer(gen, rungExact); a != nil {
			s.breaker.success() // as the rerun it stands in for would
			return serveCached(a)
		}
		searched = true
		if useHeldKarp {
			if sr, err := search.HeldKarp(closure, 0, obj); err == nil {
				s.breaker.success()
				res.Algorithm = AlgoExactHeldKarp
				s.storeAnswer(gen, closure, rungExact, res.Algorithm, sr)
				return finish(sr.Path, sr.LogProb)
			}
			// Structurally impossible on a complete closure, but resolve
			// the breaker (and any probe) rather than wedge it.
			s.breaker.failure()
			res.Degraded = true
		} else {
			exactCtx, cancel := ctx, context.CancelFunc(func() {})
			if hasDeadline {
				exactCtx, cancel = context.WithTimeout(ctx, exactBudget)
			}
			sr, err := search.BranchAndBoundContext(exactCtx, closure, search.BranchAndBoundParams{})
			cancel()
			if err == nil {
				s.breaker.success()
				res.Algorithm = AlgoExactBranchBound
				s.storeAnswer(gen, closure, rungExact, res.Algorithm, sr)
				return finish(sr.Path, sr.LogProb)
			}
			if ctxErr := ctx.Err(); ctxErr != nil && !errors.Is(ctxErr, context.DeadlineExceeded) {
				return nil, ctxErr
			}
			// Deadline overrun or a cycle-heavy instance branch-and-bound
			// refuses: either way this instance is not answering exactly
			// at this budget, which is what the breaker tracks.
			s.breaker.failure()
			res.Degraded = true
		}
	} else {
		res.Degraded = true // exact skipped: unaffordable or breaker open
	}

	// Rung 2: SAPS annealing under what is left of the deadline.
	if rem := remaining(); rem >= s.cfg.MinRungBudget {
		if a := s.cachedAnswer(gen, rungSAPS); a != nil {
			return serveCached(a)
		}
		searched = true
		sapsCtx, cancel := ctx, context.CancelFunc(func() {})
		if hasDeadline {
			sapsCtx, cancel = context.WithTimeout(ctx, time.Duration(float64(rem)*s.cfg.SAPSFraction))
		}
		params := search.DefaultSAPSParams()
		params.Objective = obj
		params.Parallelism = s.cfg.Parallelism
		sr, err := search.SAPSContext(sapsCtx, closure, params, newSearchRNG(s.cfg.Seed))
		cancel()
		if err == nil {
			res.Algorithm = AlgoSAPS
			s.storeAnswer(gen, closure, rungSAPS, res.Algorithm, sr)
			return finish(sr.Path, sr.LogProb)
		}
		if ctxErr := ctx.Err(); ctxErr != nil && !errors.Is(ctxErr, context.DeadlineExceeded) {
			return nil, ctxErr
		}
	}

	// Rung 3: greedy tournament order — the floor that answers even after
	// the deadline has expired.
	searched = true
	sr, err := search.Greedy(closure, obj)
	if err != nil {
		return nil, fmt.Errorf("serve: greedy floor failed: %w", err)
	}
	res.Algorithm = AlgoGreedy
	res.Degraded = true
	return finish(sr.Path, sr.LogProb)
}
