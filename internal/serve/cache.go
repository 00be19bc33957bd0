package serve

import (
	"fmt"
	"slices"

	"crowdrank/internal/core"
	"crowdrank/internal/crowd"
	"crowdrank/internal/graph"
	"crowdrank/internal/search"
)

// rung indexes the ladder rungs whose completed answers are cached. The
// greedy floor is cheap and its answer depends on nothing a rerun would
// change, so it is not cached.
type rung int

const (
	rungExact rung = iota // Held-Karp or branch-and-bound, per ExactLimit
	rungSAPS
	numCachedRungs
)

// rungAnswer is one completed search: what RankContext reports when it
// serves the answer again.
type rungAnswer struct {
	algorithm string
	path      []int
	logProb   float64
}

// genEntry is everything RankContext has computed for one vote
// generation: the Step 1-3 closure and each rung's completed answer.
// Under the fixed pipeline seed all of it is a pure function of the vote
// set, so serving it again returns exactly what a rerun would. A
// published entry is never mutated — store copies it and swaps the
// pointer — so readers take no lock and no rank waits on another's
// search.
type genEntry struct {
	gen     uint64
	closure *graph.PreferenceGraph
	answers [numCachedRungs]*rungAnswer
}

// cached returns the entry for gen, or nil when the cache holds another
// generation (or nothing yet).
func (s *Server) cached(gen uint64) *genEntry {
	if e := s.entry.Load(); e != nil && e.gen == gen {
		return e
	}
	return nil
}

// store publishes gen's closure, with set (when non-nil) applied to the
// published copy. A newer generation's entry is never replaced: a rank
// that finishes late for an older generation keeps its result to itself.
// Generations only grow, so an entry for a newer generation means gen's
// votes are no longer current.
func (s *Server) store(gen uint64, closure *graph.PreferenceGraph, set func(*genEntry)) {
	for {
		old := s.entry.Load()
		if old != nil && old.gen > gen {
			return
		}
		next := genEntry{gen: gen, closure: closure}
		if old != nil && old.gen == gen {
			next = *old
		}
		if set != nil {
			set(&next)
		}
		if s.entry.CompareAndSwap(old, &next) {
			return
		}
	}
}

// cachedAnswer returns gen's completed answer for rung r, counting the
// lookup as a hit or a miss.
func (s *Server) cachedAnswer(gen uint64, r rung) *rungAnswer {
	var a *rungAnswer
	if e := s.cached(gen); e != nil {
		a = e.answers[r]
	}
	if a == nil {
		s.met.answerCacheMiss.Inc()
		return nil
	}
	s.met.answerCacheHit.Inc()
	return a
}

// storeAnswer caches rung r's completed search sr for gen. The path is
// copied: the caller hands sr's own slice to the response.
func (s *Server) storeAnswer(gen uint64, closure *graph.PreferenceGraph, r rung, algorithm string, sr *search.Result) {
	a := &rungAnswer{algorithm: algorithm, path: slices.Clone(sr.Path), logProb: sr.LogProb}
	s.store(gen, closure, func(e *genEntry) { e.answers[r] = a })
}

// closure returns the Step 1-3 transitive closure of votes, which are the
// state at generation gen. It is cached with gen's entry, so repeated rank
// requests over unchanged state skip the pipeline prefix entirely.
func (s *Server) closure(votes []crowd.Vote, gen uint64) (*graph.PreferenceGraph, error) {
	if e := s.cached(gen); e != nil {
		s.met.closureCacheHit.Inc()
		return e.closure, nil
	}
	s.closureMu.Lock()
	defer s.closureMu.Unlock()
	// A rank queued here behind a build of the same generation finds it
	// published.
	if e := s.cached(gen); e != nil {
		s.met.closureCacheHit.Inc()
		return e.closure, nil
	}
	s.met.closureCacheMiss.Inc()
	opts := core.DefaultOptions()
	opts.SAPS.Parallelism = s.cfg.Parallelism
	opts.Propagate.Parallelism = s.cfg.Parallelism
	rng := newPipelineRNG(s.cfg.Seed)
	//lint:ignore lockcheck closureMu deliberately holds concurrent ranks on one closure build (CPU-bound fan-out over worker channels) so identical generations are computed once and served from cache
	cl, err := core.BuildClosure(s.cfg.N, s.cfg.M, votes, opts, rng)
	if err != nil {
		return nil, fmt.Errorf("serve: building closure: %w", err)
	}
	// Stage histograms record rebuild cost only: a cache hit spent no
	// time in Steps 1-3, and observing zeros would flatten the latency
	// distribution the histogram exists to expose.
	s.met.stageSeconds[stageTruth].ObserveDuration(cl.Timings.TruthDiscovery)
	s.met.stageSeconds[stageSmooth].ObserveDuration(cl.Timings.Smoothing)
	s.met.stageSeconds[stagePropagate].ObserveDuration(cl.Timings.Propagation)
	s.store(gen, cl.Closure, nil)
	return cl.Closure, nil
}
