package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"crowdrank"
	"crowdrank/internal/bench"
	"crowdrank/internal/client"
	"crowdrank/internal/core"
	"crowdrank/internal/crowd"
	"crowdrank/internal/kendall"
	"crowdrank/internal/search"
	"crowdrank/internal/serve"
)

// daemon-rank: the daemon under reads and light writes. A leader
// preloaded with an n=200, ratio-0.1 round, with a warm standby following
// it, first answers as many GET /rank back to back as the exact rung's
// breaker takes to open (the lead-in: at the seed commit each of those
// ranks runs branch-and-bound for its whole budget). Then, in the timed
// window, it answers GET /rank open-loop at rankRate from one connection
// under the default deadline, while a second connection ingests one small
// fresh keyed batch every 1/rankWriterRate seconds, every
// rankResendEvery-th twice, so the next rank rebuilds the closure (cold)
// and the others reuse it (warm). The closure cache, ladder rungs,
// breaker and per-request SAPS run here and not in infer-offline. After
// the window every run checks the standby, takes a snapshot and recovers
// the leader's journal, so every daemon layer is measured on a gated
// workload.
const (
	rankN           = 200
	rankRatio       = 0.1
	rankWriterVotes = 20
	// rankRate and rankWriterRate are the offered rates (per second),
	// fixed from the seed commit: warm ranks take ~17ms, so one
	// connection at rankRate is about a third busy once the exact rung's
	// breaker has opened.
	rankRate       = 20.0
	rankWriterRate = 1.0
	// Every rankResendEvery-th write is delivered twice under its key.
	rankResendEvery = 5
	// rankLeadInSeconds of a run are set aside for the lead-in; the timed
	// window is the rest. With the default 1 s exact budget and a breaker
	// threshold of 3 the lead-in takes a little over 3 s, and a 30 s run
	// leaves a window shorter than the breaker's 30 s cooldown, so no
	// half-open probe falls inside it.
	rankLeadInSeconds = 4.0
)

type rankInput struct {
	workers int
	truth   []int
	// preload goes in as one batch: a single journal append and fsync,
	// so set-up time does not follow the disk's per-fsync noise.
	preload []crowd.Vote
	writes  [][]crowd.Vote // held back for the writer, in order
	keys    []string       // the preload's, then the writes'
}

// rankWindow is the timed window of a run of the given length.
func rankWindow(seconds float64) (float64, error) {
	if w := seconds - rankLeadInSeconds; w >= 5 {
		return w, nil
	}
	return 0, fmt.Errorf("daemon-rank needs --seconds >= %v: %v s of lead-in and at least 5 s of window", rankLeadInSeconds+5, rankLeadInSeconds)
}

func genRankInput(seed uint64, window float64) (*rankInput, error) {
	round, err := bench.NewRound(bench.DefaultRunConfig(rankN, rankRatio, seed))
	if err != nil {
		return nil, err
	}
	writes := int(math.Ceil(rankWriterRate * window))
	held := writes * rankWriterVotes
	if held >= len(round.Votes) {
		return nil, fmt.Errorf("run too long: the writer would need %d of the round's %d votes", held, len(round.Votes))
	}
	split := len(round.Votes) - held
	in := &rankInput{
		workers: round.Cfg.Workers,
		truth:   round.Truth,
		preload: round.Votes[:split:split],
		writes:  chunk(round.Votes[split:], rankWriterVotes),
	}
	in.keys = batchKeys(1+len(in.writes), rand.New(rand.NewPCG(subSeed(seed, "rank-keys"), 0)))
	return in, nil
}

type rankRig struct {
	in                 *rankInput
	leader, follower   *node
	reader, writer     *client.Client
	readerTr, writerTr *http.Transport
	cfg                serve.Config
}

func startRankRig(in *rankInput, dir string, seed uint64) (*rankRig, error) {
	daemonSeed := subSeed(seed, "daemon")
	leader, follower, err := startPair(rankN, in.workers, dir, daemonSeed)
	if err != nil {
		return nil, err
	}
	rig := &rankRig{in: in, leader: leader, follower: follower, cfg: daemonConfig(rankN, in.workers, filepath.Join(dir, "leader"), daemonSeed)}
	if rig.reader, rig.readerTr, err = newBenchClient(leader.url, subSeed(seed, "rank-reader"), 1); err == nil {
		rig.writer, rig.writerTr, err = newBenchClient(leader.url, subSeed(seed, "rank-writer"), 1)
	}
	if err != nil {
		rig.stop()
		return nil, err
	}
	if _, err := rig.writer.SubmitVotesKeyed(context.Background(), in.keys[0], in.preload); err != nil {
		rig.stop()
		return nil, fmt.Errorf("preloading: %w", err)
	}
	return rig, nil
}

func (r *rankRig) stop() error {
	for _, tr := range []*http.Transport{r.readerTr, r.writerTr} {
		if tr != nil {
			tr.CloseIdleConnections()
		}
	}
	ferr := r.follower.stop()
	return errors.Join(ferr, r.leader.stop())
}

func runDaemonRank(cfg runConfig) (*report, error) {
	rep := newReport()
	window, err := rankWindow(cfg.seconds)
	if err != nil {
		return nil, err
	}
	rig, err := repeatSetup(rep, func(i int) (*rankRig, error) {
		in, err := genRankInput(cfg.seed, window)
		if err != nil {
			return nil, err
		}
		return startRankRig(in, filepath.Join(cfg.workdir, fmt.Sprintf("rank-%d", i)), cfg.seed)
	}, (*rankRig).stop)
	if err != nil {
		return nil, err
	}
	in := rig.in
	stopped := false
	defer func() {
		if !stopped {
			rig.stop()
		}
	}()
	// The standby's catch-up on the preload is not timed as set-up: the
	// leader's stream polls its journal every 20 ms, so the wait is a
	// 0-20 ms quantum that would make set-up time jump between two modes.
	// The catch-up after the window is timed, as replica.catchup_s.
	if _, err := awaitStandby(rig.leader, rig.follower); err != nil {
		return nil, err
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		rep.spans = tr
	}
	ctx := context.Background()
	before, err := scrapeURL(rig.leader.url)
	if err != nil {
		return nil, err
	}
	follower0, err := scrapeURL(rig.follower.url)
	if err != nil {
		return nil, err
	}
	reader0, err := clientCounters(rig.reader)
	if err != nil {
		return nil, err
	}
	writer0, err := clientCounters(rig.writer)
	if err != nil {
		return nil, err
	}

	// The lead-in: BreakerThreshold ranks back to back, each timed from
	// its send, after which a breaker whose exact rung overran on every
	// one of them is open. The first is cold; at the seed commit all of
	// them run branch-and-bound for the whole exact budget, so their
	// maximum is the cold rank's worst case.
	var leadIn []float64
	prevVotes := -1
	for range rig.cfg.BreakerThreshold {
		start := time.Now()
		rk, err := rig.reader.Rank(ctx, 0)
		if err != nil {
			return nil, fmt.Errorf("lead-in rank: %w", err)
		}
		leadIn = append(leadIn, float64(time.Since(start))/float64(time.Millisecond))
		if err := kendall.ValidatePermutation(rk.Ranking); err != nil || len(rk.Ranking) != rankN {
			return nil, &oracleError{fmt.Sprintf("lead-in rank %d is not a permutation of %d objects", len(leadIn), rankN)}
		}
		prevVotes = rk.Votes
	}
	if state := rig.leader.Server().StatsSnapshot().Breaker; state != "open" {
		fmt.Fprintf(os.Stderr, "perfbench: note: the exact rung's breaker is %s after the lead-in\n", state)
	}
	windowStart, err := scrapeURL(rig.leader.url)
	if err != nil {
		return nil, err
	}

	rankLoop := openLoop{rate: rankRate, count: int(math.Round(rankRate * window)), conns: 1}
	writeLoop := openLoop{rate: rankWriterRate, count: len(in.writes), conns: 1}
	ranks := make([]client.Ranking, rankLoop.count)
	writeAcks := make([]client.Ack, writeLoop.count)
	resendAcks := make([]client.Ack, writeLoop.count)
	writeTook := make([]time.Duration, writeLoop.count)
	lag := make([]uint64, writeLoop.count)
	var rankRun, writeRun *loadRun
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		rankRun = rankLoop.run(func(i int) error {
			end := func() {}
			if cfg.trace && i%2 == 0 {
				_, end = tr.begin(int64(i), 0, "client.rank")
			}
			rk, err := rig.reader.Rank(ctx, 0)
			end()
			ranks[i] = rk
			return err
		})
	}()
	go func() {
		defer wg.Done()
		writeRun = writeLoop.run(func(i int) error {
			key := in.keys[1+i]
			_, end := tr.begin(int64(rankLoop.count+i), 0, "client.ingest")
			start := time.Now()
			ack, err := rig.writer.SubmitVotesKeyed(ctx, key, in.writes[i])
			writeTook[i] = time.Since(start)
			end()
			if err != nil {
				return err
			}
			writeAcks[i] = ack
			lag[i] = rig.follower.Lag()
			if i%rankResendEvery == rankResendEvery-1 {
				// The same key again, as a client retrying a lost ack
				// would: it must be answered from the ack window.
				resendAcks[i], err = rig.writer.SubmitVotesKeyed(ctx, key, in.writes[i])
			}
			return err
		})
	}()
	wg.Wait()

	after, err := scrapeURL(rig.leader.url)
	if err != nil {
		return nil, err
	}
	reader1, err := clientCounters(rig.reader)
	if err != nil {
		return nil, err
	}
	writer1, err := clientCounters(rig.writer)
	if err != nil {
		return nil, err
	}

	// Every served ranking must be a permutation. A rank is cold when its
	// vote count differs from the previous answer's: the generation moved,
	// so the closure was rebuilt for it.
	var warm, cold, coldRate, writeAckMs []float64
	var tracedWarm, untracedWarm []float64
	failed := 0
	for i, rk := range ranks {
		if rankRun.errs[i] != nil {
			failed++
			continue
		}
		if err := kendall.ValidatePermutation(rk.Ranking); err != nil || len(rk.Ranking) != rankN {
			return nil, &oracleError{fmt.Sprintf("rank %d is not a permutation of %d objects", i, rankN)}
		}
		lat := rankRun.latency(i)
		if rk.Votes != prevVotes {
			cold = append(cold, float64(lat)/float64(time.Millisecond))
			coldRate = append(coldRate, float64(rk.Votes)/lat.Seconds())
		} else {
			warm = append(warm, float64(lat)/float64(time.Millisecond))
			if i%2 == 0 {
				tracedWarm = append(tracedWarm, lat.Seconds())
			} else {
				untracedWarm = append(untracedWarm, lat.Seconds())
			}
		}
		prevVotes = rk.Votes
	}
	for i := range in.writes {
		if writeRun.errs[i] != nil {
			failed++
			continue
		}
		writeAckMs = append(writeAckMs, float64(writeTook[i])/float64(time.Millisecond))
	}
	if len(warm) == 0 || len(cold) == 0 {
		return nil, fmt.Errorf("need both warm and cold ranks, got %d warm and %d cold", len(warm), len(cold))
	}

	// The served ranking at the final generation: every vote of the
	// round, ranked once the writer has stopped.
	final, err := rig.reader.Rank(ctx, 0)
	if err != nil {
		return nil, fmt.Errorf("final rank: %w", err)
	}
	var all []crowdrank.Vote
	var allInternal []crowd.Vote
	for _, batch := range append([][]crowd.Vote{in.preload}, in.writes...) {
		for _, v := range batch {
			all = append(all, crowdrank.Vote{Worker: v.Worker, I: v.I, J: v.J, PrefersI: v.PrefersI})
			allInternal = append(allInternal, v)
		}
	}
	if err := kendall.ValidatePermutation(final.Ranking); err != nil || len(final.Ranking) != rankN {
		return nil, &oracleError{"final ranking is not a permutation"}
	}
	if final.Votes != len(all) {
		return nil, &oracleError{fmt.Sprintf("final ranking covers %d votes, want %d", final.Votes, len(all))}
	}
	cert, err := crowdrank.CertifyRanking(rankN, in.workers, all, final.Ranking, crowdrank.WithSeed(final.Seed))
	if err != nil {
		return nil, &oracleError{fmt.Sprintf("certifying the served ranking: %v", err)}
	}
	if math.Abs(cert.Score-final.LogProb) > 1e-9*math.Max(1, math.Abs(cert.Score)) || cert.Score > cert.UpperBound+1e-9*math.Abs(cert.UpperBound) {
		return nil, &oracleError{fmt.Sprintf("served ranking does not certify: served LogProb %v, certified score %v, bound %v", final.LogProb, cert.Score, cert.UpperBound)}
	}
	acc, err := kendall.Accuracy(final.Ranking, in.truth)
	if err != nil {
		return nil, err
	}

	// The write path: replays, the standby, a snapshot, and recovery.
	accepted, submitted := 0, 0
	for i := range writeAcks {
		accepted += writeAcks[i].Accepted
		submitted += len(in.writes[i])
		if i%rankResendEvery == rankResendEvery-1 && writeRun.errs[i] == nil {
			submitted += len(in.writes[i])
			if !resendAcks[i].Replayed || resendAcks[i].Accepted != writeAcks[i].Accepted {
				return nil, &oracleError{fmt.Sprintf("resent write %d was not acked as a replay of its first delivery (replayed=%v accepted %d vs %d)",
					i, resendAcks[i].Replayed, resendAcks[i].Accepted, writeAcks[i].Accepted)}
			}
		}
	}
	catchup, err := awaitStandby(rig.leader, rig.follower)
	if err != nil {
		return nil, err
	}
	follower1, err := scrapeURL(rig.follower.url)
	if err != nil {
		return nil, err
	}
	if _, err := rig.leader.Server().Snapshot(); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	afterSnapshot, err := scrapeURL(rig.leader.url)
	if err != nil {
		return nil, err
	}
	leaderVotes, followerVotes := rig.leader.Server().VoteCount(), rig.follower.Server().VoteCount()
	stopped = true
	if err := rig.stop(); err != nil {
		return nil, err
	}
	state, recoverTook, err := recoverLeader(rig.cfg)
	if err != nil {
		return nil, err
	}
	if leaderVotes != final.Votes || followerVotes != final.Votes || len(state.Votes) != final.Votes {
		return nil, &oracleError{fmt.Sprintf("vote counts disagree: served %d, leader %d, standby %d, recovered %d",
			final.Votes, leaderVotes, followerVotes, len(state.Votes))}
	}

	if reason := validity(rankLoop.rate, rankRun); reason != "" {
		return nil, &invalidRunError{"ranks: " + reason}
	}
	if reason := validity(writeLoop.rate, writeRun); reason != "" {
		return nil, &invalidRunError{"writes: " + reason}
	}
	dr, dw := delta(reader0, reader1), delta(writer0, writer1)
	refused := int(dr.get("crowdrank_client_retries_total", "reason", "status") + dw.get("crowdrank_client_retries_total", "reason", "status"))
	rep.attempted = len(leadIn) + rankLoop.count + writeLoop.count
	rep.failed = min(failed+refused, rep.attempted)

	// The gated tail is the upper quartile. The shared host the benchmark
	// was written on alternates between a fast phase and a slower one
	// every 5-20 s; between runs that caught more or less of the slow
	// phase the warm p75 moved by 1.14x, the p90 by 1.3x and the p95 by
	// more, which on ten seeds put the p90's and p95's spread beyond the
	// largest bound the gate allows. Both are printed.
	rep.e2e["latency_ms"] = median(warm)
	rep.e2e["tail_ms"] = quantile(warm, 0.75)
	rep.e2e["votes_per_s"] = median(coldRate)
	rep.e2e["accuracy"] = acc
	rep.noteSample("rank_warm_p50_ms", warm, "ms")
	rep.note("rank_warm_p75_ms", rep.e2e["tail_ms"], "ms", len(warm))
	rep.note("rank_warm_p90_ms", quantile(warm, 0.9), "ms", len(warm))
	rep.note("rank_warm_p95_ms", quantile(warm, 0.95), "ms", len(warm))
	if !percentileSupported(len(warm), 95) {
		fmt.Fprintf(os.Stderr, "perfbench: warning: %d warm ranks leave fewer than 10 beyond p95\n", len(warm))
	}
	rep.noteSample("rank_cold_p50_ms", cold, "ms")
	rep.note("rank_cold_max_ms", quantile(leadIn, 1), "ms", len(leadIn))
	rep.note("cold_votes_per_s", rep.e2e["votes_per_s"], "1/s", len(cold))
	rep.noteSample("write_ack_p50_ms", writeAckMs, "ms")
	rep.note("served_accuracy", acc, "ratio", 1)

	// Rung counts, degradation and breaker trips cover the lead-in too;
	// stage times, the closure cache and HTTP rank time cover the window
	// alone, the warm path they should move.
	d, win := delta(before, after), delta(windowStart, after)
	L := rep.layer
	_, rankCount := d.histMean("crowdrankd_rank_seconds")
	if rankCount > 0 {
		L["serve.degraded_ratio"] = d.get("crowdrankd_rank_degraded_total") / rankCount
	}
	for _, stage := range []string{"truth", "smooth", "propagate", "search"} {
		L["serve.stage_"+stage+"_s"], _ = win.histMean("crowdrankd_infer_stage_seconds", "stage", stage)
	}
	_, windowRanks := win.histMean("crowdrankd_rank_seconds")
	_, rebuilds := win.histMean("crowdrankd_infer_stage_seconds", "stage", "truth")
	L["serve.closure_rebuilds"] = rebuilds
	if windowRanks > 0 {
		L["serve.closure_hit_ratio"] = 1 - rebuilds/windowRanks
	}
	L["serve.rank_by_rung.exact"] = d.get("crowdrankd_rank_requests_total", "algorithm", serve.AlgoExactHeldKarp) +
		d.get("crowdrankd_rank_requests_total", "algorithm", serve.AlgoExactBranchBound)
	L["serve.rank_by_rung.saps"] = d.get("crowdrankd_rank_requests_total", "algorithm", serve.AlgoSAPS)
	L["serve.rank_by_rung.greedy"] = d.get("crowdrankd_rank_requests_total", "algorithm", serve.AlgoGreedy)
	L["serve.breaker_trips"] = d.get("crowdrankd_breaker_trips_total")
	L["serve.http_rank_s"], _ = win.histMean("crowdrankd_http_request_seconds", "route", "rank")
	L["client.attempts"] = dr.get("crowdrank_client_attempts_total") + dw.get("crowdrank_client_attempts_total")
	L["client.retries"] = dr.get("crowdrank_client_retries_total", "reason", "network") + dw.get("crowdrank_client_retries_total", "reason", "network") + float64(refused)
	writePathLayers(L, delta(before, afterSnapshot), delta(follower0, follower1))
	L["client.transport_s"] = meanSeconds(writeTook) - L["serve.http_votes_s"]
	L["serve.accept_ratio"] = float64(accepted) / float64(submitted)
	L["serve.recover_s"] = recoverTook.Seconds()
	L["replica.catchup_s"] = catchup.Seconds()
	for _, l := range lag {
		L["replica.lag_max_records"] = max(L["replica.lag_max_records"], float64(l))
	}
	L["load.late_p99_ms"] = float64(latenessP99(rankRun, writeRun)) / float64(time.Millisecond)
	L["load.unsent_at_end"] = float64(rankRun.unsentAtEnd() + writeRun.unsentAtEnd())
	if cfg.trace {
		L["trace.overhead_share"] = median(tracedWarm)/median(untracedWarm) - 1
		if err := rungTimings(rig.cfg, allInternal, in.workers, L); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// rungTimings times the ladder's search rungs directly on the closure the
// daemon builds for the final vote set: branch-and-bound under the budget
// the ladder grants it within the default deadline, and the greedy floor.
func rungTimings(cfg serve.Config, votes []crowd.Vote, workers int, L map[string]float64) error {
	// The daemon's closure stream: serve seeds it exactly as
	// CertifyRanking's WithSeed does.
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xd1342543de82ef95))
	cl, err := core.BuildClosure(rankN, workers, votes, core.DefaultOptions(), rng)
	if err != nil {
		return err
	}
	budget := time.Duration(float64(cfg.DefaultDeadline) * cfg.ExactFraction)
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	start := time.Now()
	_, bbErr := search.BranchAndBoundContext(ctx, cl.Closure, search.BranchAndBoundParams{})
	L["search.branchbound_s"] = time.Since(start).Seconds()
	cancel()
	L["search.branchbound_ok_ratio"] = 0
	if bbErr == nil {
		L["search.branchbound_ok_ratio"] = 1
	}
	var greedy []time.Duration
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := search.Greedy(cl.Closure, search.ObjectiveAllPairs); err != nil {
			return err
		}
		greedy = append(greedy, time.Since(start))
	}
	L["search.greedy_s"] = median(durationsS(greedy))
	return nil
}
