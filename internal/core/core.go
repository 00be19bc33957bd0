// Package core glues the paper's result-inference pipeline (Section V) into
// a single call: truth discovery (Step 1), preference smoothing (Step 2),
// preference propagation into the transitive closure (Step 3), and
// best-ranking search (Step 4). It records per-step wall-clock timings —
// the breakdown Figure 4 discusses — and per-step diagnostics such as the
// 1-edge count and truth-discovery iterations.
package core

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"crowdrank/internal/crowd"
	"crowdrank/internal/graph"
	"crowdrank/internal/invariant"
	"crowdrank/internal/propagate"
	"crowdrank/internal/search"
	"crowdrank/internal/smooth"
	"crowdrank/internal/truth"
)

// Searcher selects the Step 4 algorithm.
type Searcher int

const (
	// SearcherAuto picks an exact method for small instances (Held-Karp up
	// to 16 objects) and SAPS beyond.
	SearcherAuto Searcher = iota
	// SearcherSAPS forces the simulated-annealing path search.
	SearcherSAPS
	// SearcherTAPS forces the paper's exact threshold algorithm
	// (factorial space; n <= ~9).
	SearcherTAPS
	// SearcherHeldKarp forces the exact subset DP (n <= ~20).
	SearcherHeldKarp
	// SearcherBruteForce forces full enumeration (n <= ~10).
	SearcherBruteForce
	// SearcherBranchBound forces the exact branch-and-bound for the
	// all-pairs objective; effective on near-consistent closures well
	// beyond Held-Karp's n <= 20, but refuses cycle-heavy instances.
	SearcherBranchBound
)

func (s Searcher) String() string {
	switch s {
	case SearcherAuto:
		return "auto"
	case SearcherSAPS:
		return "saps"
	case SearcherTAPS:
		return "taps"
	case SearcherHeldKarp:
		return "heldkarp"
	case SearcherBruteForce:
		return "bruteforce"
	case SearcherBranchBound:
		return "branchbound"
	default:
		return fmt.Sprintf("Searcher(%d)", int(s))
	}
}

// autoExactLimit is the largest instance SearcherAuto solves exactly.
const autoExactLimit = 16

// Options configures the full pipeline. The zero value is not usable; call
// DefaultOptions and adjust.
type Options struct {
	Truth     truth.Params
	Smooth    smooth.Params
	Propagate propagate.Params
	SAPS      search.SAPSParams
	Searcher  Searcher
	// Objective selects the Step 4 path-preference reading for every
	// searcher (see search.Objective); it overrides SAPS.Objective.
	Objective search.Objective
	// PolishSweeps, when positive, refines the Step 4 result with up to
	// this many insertion-move local-search sweeps (search.InsertionPolish)
	// — a strictly larger neighborhood than SAPS's swaps. 0 disables.
	PolishSweeps int
}

// DefaultOptions returns the pipeline configuration used throughout the
// experiment reproduction.
func DefaultOptions() Options {
	return Options{
		Truth:     truth.DefaultParams(),
		Smooth:    smooth.DefaultParams(),
		Propagate: propagate.DefaultParams(),
		SAPS:      search.DefaultSAPSParams(),
		Searcher:  SearcherAuto,
		Objective: search.ObjectiveAllPairs,
	}
}

// StepTimings records the elapsed time of each inference step. Every
// field is measured with time.Since over a time.Now start, so the values
// carry the monotonic reading and survive wall-clock jumps (NTP steps)
// mid-inference.
type StepTimings struct {
	TruthDiscovery time.Duration
	Smoothing      time.Duration
	Propagation    time.Duration
	Search         time.Duration
}

// Total returns the end-to-end inference time.
func (t StepTimings) Total() time.Duration {
	return t.TruthDiscovery + t.Smoothing + t.Propagation + t.Search
}

// Result is the pipeline output.
type Result struct {
	// Ranking is the inferred full ranking, best-first.
	Ranking []int
	// LogProb is the preference log-probability of the winning Hamiltonian
	// path over the normalized closure.
	LogProb float64
	// WorkerQuality holds the Step 1 quality estimates, indexed by worker.
	WorkerQuality []float64
	// TruthIterations and TruthConverged report the Step 1 loop behavior.
	TruthIterations int
	TruthConverged  bool
	// OneEdges is the number of unanimous edges Step 2 smoothed.
	OneEdges int
	// UninformedPairs counts pairs that fell back to 0.5/0.5 in Step 3.
	UninformedPairs int
	// SearcherUsed reports which Step 4 algorithm actually ran.
	SearcherUsed Searcher
	// Timings is the per-step wall-clock breakdown.
	Timings StepTimings
}

// Infer runs the four-step inference pipeline over the votes of m workers
// on n objects. rng drives smoothing draws and SAPS; a fixed source yields
// a reproducible result.
func Infer(n, m int, votes []crowd.Vote, opts Options, rng *rand.Rand) (*Result, error) {
	return InferContext(context.Background(), n, m, votes, opts, rng)
}

// InferContext is Infer with cancellation: ctx is checked between pipeline
// steps and polled inside the long-running Step 4 searchers (SAPS and
// branch-and-bound), so an expired deadline or an explicit cancel abandons
// inference promptly with ctx's error.
func InferContext(ctx context.Context, n, m int, votes []crowd.Vote, opts Options, rng *rand.Rand) (*Result, error) {
	cl, err := buildClosure(ctx, n, m, votes, opts, rng)
	if err != nil {
		return nil, err
	}
	closure := cl.Closure
	res := &Result{
		WorkerQuality:   cl.WorkerQuality,
		TruthIterations: cl.TruthIterations,
		TruthConverged:  cl.TruthConverged,
		OneEdges:        cl.OneEdges,
		UninformedPairs: cl.UninformedPairs,
		Timings:         cl.Timings,
	}

	// Step 4: best-ranking search.
	start := time.Now()
	searcher := opts.Searcher
	if searcher == SearcherAuto {
		if n <= autoExactLimit {
			searcher = SearcherHeldKarp
		} else {
			searcher = SearcherSAPS
		}
	}
	var sr *search.Result
	switch searcher {
	case SearcherSAPS:
		sapsParams := opts.SAPS
		sapsParams.Objective = opts.Objective
		sr, err = search.SAPSContext(ctx, closure, sapsParams, rng)
	case SearcherTAPS:
		var tr *search.TAPSResult
		tr, err = search.TAPS(closure, search.TAPSParams{Objective: opts.Objective})
		if err == nil {
			sr = &tr.Result
		}
	case SearcherHeldKarp:
		sr, err = search.HeldKarp(closure, 0, opts.Objective)
	case SearcherBruteForce:
		sr, err = search.BruteForce(closure, 0, opts.Objective)
	case SearcherBranchBound:
		if opts.Objective != search.ObjectiveAllPairs {
			return nil, fmt.Errorf("core: branch-and-bound supports only the all-pairs objective")
		}
		sr, err = search.BranchAndBoundContext(ctx, closure, search.BranchAndBoundParams{})
	default:
		return nil, fmt.Errorf("core: unknown searcher %d", int(searcher))
	}
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr // cancellation, not a search failure
		}
		return nil, fmt.Errorf("core: step 4 (%v search): %w", searcher, err)
	}
	if opts.PolishSweeps > 0 {
		polished, err := search.InsertionPolish(closure, sr.Path, opts.Objective, opts.PolishSweeps)
		if err != nil {
			return nil, fmt.Errorf("core: step 4 (insertion polish): %w", err)
		}
		sr = polished
	}
	// Stage-boundary assertion (no-op unless built with
	// -tags crowdrank_invariants): every searcher must return a
	// permutation of the n objects.
	invariant.CheckRanking(n, sr.Path)
	res.SearcherUsed = searcher
	res.Ranking = sr.Path
	res.LogProb = sr.LogProb
	res.Timings.Search = time.Since(start)
	return res, nil
}

// ClosureResult carries the Step 1-3 output for callers that want to run
// multiple Step 4 searchers over identical inputs.
type ClosureResult struct {
	Closure         *graph.PreferenceGraph
	WorkerQuality   []float64
	TruthIterations int
	TruthConverged  bool
	OneEdges        int
	UninformedPairs int
	// Timings breaks the build down by step (Search stays zero: Step 4
	// is the caller's). The serving layer feeds these into its per-stage
	// latency histograms.
	Timings StepTimings
}

// BuildClosure runs Steps 1-3 only (truth discovery, smoothing,
// propagation) and returns the complete normalized closure together with
// the per-step diagnostics. rng drives the smoothing draws.
func BuildClosure(n, m int, votes []crowd.Vote, opts Options, rng *rand.Rand) (*ClosureResult, error) {
	return buildClosure(context.Background(), n, m, votes, opts, rng)
}

// buildClosure is the one implementation of Steps 1-3, shared by
// BuildClosure and InferContext. ctx is checked before Step 1 and after
// each step; rng is consumed by Step 2's smoothing draws only.
func buildClosure(ctx context.Context, n, m int, votes []crowd.Vote, opts Options, rng *rand.Rand) (*ClosureResult, error) {
	if rng == nil {
		return nil, fmt.Errorf("core: nil random source")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cl := &ClosureResult{}

	// Step 1: truth discovery.
	start := time.Now()
	discovered, err := truth.Discover(n, m, votes, opts.Truth)
	if err != nil {
		return nil, fmt.Errorf("core: step 1 (truth discovery): %w", err)
	}
	gp, err := truth.BuildPreferenceGraph(n, discovered.Preference)
	if err != nil {
		return nil, fmt.Errorf("core: step 1 (preference graph): %w", err)
	}
	cl.WorkerQuality = discovered.Quality
	cl.TruthIterations = discovered.Iterations
	cl.TruthConverged = discovered.Converged
	cl.Timings.TruthDiscovery = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Step 2: preference smoothing.
	start = time.Now()
	workersByPair := make(map[graph.Pair][]int)
	for _, v := range votes {
		p := v.Pair()
		workersByPair[p] = append(workersByPair[p], v.Worker)
	}
	smoothed, smoothStats, err := smooth.Smooth(gp, discovered.Quality, workersByPair, rng, opts.Smooth)
	if err != nil {
		return nil, fmt.Errorf("core: step 2 (smoothing): %w", err)
	}
	cl.OneEdges = smoothStats.OneEdges
	cl.Timings.Smoothing = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Step 3: preference propagation into the normalized closure.
	start = time.Now()
	closure, propStats, err := propagate.Closure(smoothed, opts.Propagate)
	if err != nil {
		return nil, fmt.Errorf("core: step 3 (propagation): %w", err)
	}
	cl.Closure = closure
	cl.UninformedPairs = propStats.UninformedPairs
	cl.Timings.Propagation = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return cl, nil
}

// InferFromClosure runs only Step 4 over an existing complete closure,
// allowing callers (examples, ablations) to compare searchers on identical
// inputs. The objective is taken from sapsParams.Objective for every
// searcher.
func InferFromClosure(closure *graph.PreferenceGraph, searcher Searcher, sapsParams search.SAPSParams, rng *rand.Rand) (*search.Result, error) {
	obj := sapsParams.Objective
	switch searcher {
	case SearcherSAPS:
		return search.SAPS(closure, sapsParams, rng)
	case SearcherTAPS:
		tr, err := search.TAPS(closure, search.TAPSParams{Objective: obj})
		if err != nil {
			return nil, err
		}
		return &tr.Result, nil
	case SearcherHeldKarp:
		return search.HeldKarp(closure, 0, obj)
	case SearcherBruteForce:
		return search.BruteForce(closure, 0, obj)
	case SearcherBranchBound:
		if obj != search.ObjectiveAllPairs {
			return nil, fmt.Errorf("core: branch-and-bound supports only the all-pairs objective")
		}
		return search.BranchAndBound(closure, search.BranchAndBoundParams{})
	case SearcherAuto:
		if closure.N() <= autoExactLimit {
			return search.HeldKarp(closure, 0, obj)
		}
		return search.SAPS(closure, sapsParams, rng)
	default:
		return nil, fmt.Errorf("core: unknown searcher %d", int(searcher))
	}
}
