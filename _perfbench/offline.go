package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"crowdrank/internal/bench"
	"crowdrank/internal/core"
	"crowdrank/internal/crowd"
	"crowdrank/internal/graph"
	"crowdrank/internal/kendall"
	"crowdrank/internal/propagate"
	"crowdrank/internal/search"
	"crowdrank/internal/smooth"
	"crowdrank/internal/truth"
)

// infer-offline: the paper's one-shot use. One pre-simulated round
// (n=1000, selection ratio 0.1, 30 workers, 10 per task) inferred over
// and over with core.Infer under core.DefaultOptions: no journal, HTTP or
// ladder, so a propagation or SAPS change shows here and nothing
// daemon-side runs. Single inferences give the latency; sets of
// offlineConcurrency inferences started together give the throughput, in
// which the steps' own parallelism competes with the other inference's.
const (
	offlineN     = 1000
	offlineRatio = 0.1
	// offlineConcurrency inferences run at once for the throughput
	// figure: one per core of the two-core machine the benchmark targets,
	// fixed so the work does not depend on the machine it runs on.
	offlineConcurrency = 2
)

func pipelineRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed^0x51afd54db5f78a11, seed))
}

// tracedInfer is core.Infer's pipeline called step by step with a span
// around each public call: the same calls in the same order on the same
// random stream, so it must return the identical ranking and LogProb.
func tracedInfer(tr *tracer, req int64, n, m int, votes []crowd.Vote, opts core.Options, rng *rand.Rand, layer map[string][]float64) (*core.Result, error) {
	if n <= 16 || opts.Searcher != core.SearcherAuto {
		return nil, fmt.Errorf("traced pipeline follows core.Infer's SAPS path only (n > 16, auto searcher)")
	}
	root, endRoot := tr.begin(req, 0, "core.infer")
	defer endRoot()

	_, end := tr.begin(req, root, "truth.discover")
	discovered, err := truth.Discover(n, m, votes, opts.Truth)
	if err != nil {
		end()
		return nil, err
	}
	gp, err := truth.BuildPreferenceGraph(n, discovered.Preference)
	end()
	if err != nil {
		return nil, err
	}

	workersByPair := make(map[graph.Pair][]int)
	for _, v := range votes {
		p := v.Pair()
		workersByPair[p] = append(workersByPair[p], v.Worker)
	}
	_, end = tr.begin(req, root, "smooth.smooth")
	smoothed, smoothStats, err := smooth.Smooth(gp, discovered.Quality, workersByPair, rng, opts.Smooth)
	end()
	if err != nil {
		return nil, err
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, end = tr.begin(req, root, "propagate.closure")
	closure, propStats, err := propagate.Closure(smoothed, opts.Propagate)
	end()
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}

	params := opts.SAPS
	params.Objective = opts.Objective
	_, end = tr.begin(req, root, "search.saps")
	sr, err := search.SAPSContext(context.Background(), closure, params, rng)
	end()
	if err != nil {
		return nil, err
	}

	layer["truth.iterations"] = append(layer["truth.iterations"], float64(discovered.Iterations))
	layer["smooth.one_edges"] = append(layer["smooth.one_edges"], float64(smoothStats.OneEdges))
	layer["propagate.uninformed_pairs"] = append(layer["propagate.uninformed_pairs"], float64(propStats.UninformedPairs))
	layer["propagate.alloc_mb"] = append(layer["propagate.alloc_mb"], float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	return &core.Result{
		Ranking:         sr.Path,
		LogProb:         sr.LogProb,
		TruthIterations: discovered.Iterations,
		OneEdges:        smoothStats.OneEdges,
		UninformedPairs: propStats.UninformedPairs,
	}, nil
}

func runInferOffline(cfg runConfig) (*report, error) {
	rep := newReport()
	round, err := repeatSetup(rep, func(int) (*bench.Round, error) {
		return bench.NewRound(bench.DefaultRunConfig(offlineN, offlineRatio, cfg.seed))
	}, nil)
	if err != nil {
		return nil, err
	}

	n, m, votes, opts := round.Cfg.N, round.Cfg.Workers, round.Votes, core.DefaultOptions()
	var (
		first            *core.Result
		untraced, traced []time.Duration
		concurrentTook   []time.Duration // wall time of each concurrent set
		layer            = map[string][]float64{}
		tr               *tracer
		deadline         = time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	)
	if cfg.trace {
		tr = newTracer()
		rep.spans = tr
	}
	check := func(res *core.Result, what string) error {
		if err := kendall.ValidatePermutation(res.Ranking); err != nil || len(res.Ranking) != n {
			return &oracleError{fmt.Sprintf("%s ranking is not a permutation of %d objects", what, n)}
		}
		if first == nil {
			first = res
			return nil
		}
		if !sameRanking(first.Ranking, res.Ranking) || first.LogProb != res.LogProb {
			return &oracleError{fmt.Sprintf("%s returned a different ranking or LogProb than the first untraced run (LogProb %v vs %v)", what, res.LogProb, first.LogProb)}
		}
		return nil
	}
	// Single inferences alternate with the second kind of operation, so
	// both see the same machine state: traced inferences when tracing
	// (their difference is the tracing overhead), otherwise
	// offlineConcurrency inferences at once (the throughput). The first
	// operation is always a single untraced inference.
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		// Each operation starts from a collected heap, as a one-shot run
		// in a fresh process does, so one inference's garbage is not
		// charged to the next one's time or to the memory peak.
		runtime.GC()
		switch {
		case i%2 == 0:
			rep.attempted++
			start := time.Now()
			res, err := core.InferContext(context.Background(), n, m, votes, opts, pipelineRNG(cfg.seed))
			if err != nil {
				rep.failed++
				continue
			}
			untraced = append(untraced, time.Since(start))
			if err := check(res, "core.Infer"); err != nil {
				return nil, err
			}
			if i == 0 {
				// The memory peak of a one-shot run: set-up and one
				// inference, before any concurrent set raises it.
				rep.e2e["heap_peak_mb"] = peakRSSMB()
			}
		case cfg.trace:
			rep.attempted++
			start := time.Now()
			res, err := tracedInfer(tr, int64(i), n, m, votes, opts, pipelineRNG(cfg.seed), layer)
			if err != nil {
				rep.failed++
				continue
			}
			traced = append(traced, time.Since(start))
			if err := check(res, "traced pipeline"); err != nil {
				return nil, err
			}
		default:
			var (
				results [offlineConcurrency]*core.Result
				errs    [offlineConcurrency]error
				wg      sync.WaitGroup
			)
			start := time.Now()
			for k := range results {
				wg.Add(1)
				go func() {
					defer wg.Done()
					results[k], errs[k] = core.InferContext(context.Background(), n, m, votes, opts, pipelineRNG(cfg.seed))
				}()
			}
			wg.Wait()
			took := time.Since(start)
			rep.attempted += offlineConcurrency
			ok := 0
			for k, res := range results {
				if errs[k] != nil {
					rep.failed++
					continue
				}
				if err := check(res, "concurrent core.Infer"); err != nil {
					return nil, err
				}
				ok++
			}
			if ok == offlineConcurrency {
				concurrentTook = append(concurrentTook, took)
			}
		}
	}
	if first == nil || (cfg.trace && len(traced) == 0) || (!cfg.trace && len(concurrentTook) == 0) {
		return nil, fmt.Errorf("no inference completed")
	}

	acc, err := kendall.Accuracy(first.Ranking, round.Truth)
	if err != nil {
		return nil, err
	}
	inferMs := durationsMs(untraced)
	// Means over the run, not medians: there are only ~9 single
	// inferences, and the shared host the benchmark was written on
	// alternates between a fast phase and one ~1.7 times slower every
	// 5-20 s. A mean moves smoothly with the share of the run spent in the
	// slow phase; the median of so few jumps from one phase's value to the
	// other's when that share crosses one half.
	rep.e2e["latency_ms"] = mean(inferMs)
	rep.e2e["tail_ms"] = quantile(inferMs, 1)
	if !cfg.trace {
		rep.e2e["votes_per_s"] = float64(offlineConcurrency*len(votes)*len(concurrentTook)) / sumSeconds(concurrentTook)
		rep.noteSample("concurrent_s", durationsS(concurrentTook), "s")
	}
	rep.e2e["accuracy"] = acc
	rep.noteSample("infer_s", durationsS(untraced), "s")
	rep.note("infer_max_s", rep.e2e["tail_ms"]/1000, "s", len(untraced))
	rep.note("accuracy", acc, "ratio", 1)
	rep.note("votes", float64(len(votes)), "count", 1)

	if cfg.trace {
		self := selfByName(tr.finished())
		for name, metric := range map[string]string{
			"core.infer":        "core.self_s",
			"truth.discover":    "truth.discover_s",
			"smooth.smooth":     "smooth.smooth_s",
			"propagate.closure": "propagate.closure_s",
			"search.saps":       "search.saps_s",
		} {
			rep.layer[metric] = median(durationsS(self[name]))
		}
		for name, xs := range layer {
			rep.layer[name] = median(xs)
		}
		rep.layer["trace.overhead_share"] = median(durationsS(traced))/median(durationsS(untraced)) - 1
	}
	return rep, nil
}

func sameRanking(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// oracleError is a failed correctness check: the run's outputs are wrong.
type oracleError struct{ what string }

func (e *oracleError) Error() string { return "correctness check failed: " + e.what }
