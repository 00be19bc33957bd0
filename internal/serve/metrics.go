package serve

import (
	"strconv"

	"crowdrank/internal/journal"
	"crowdrank/internal/obs"
	"crowdrank/internal/snapshot"
)

// Stage names used by the per-stage inference latency histograms. Truth,
// smooth, and propagate are observed when a closure is (re)built; search
// when a rank ran a search rather than serving a cached answer. Cache
// hits skip them by design.
const (
	stageTruth     = "truth"
	stageSmooth    = "smooth"
	stagePropagate = "propagate"
	stageSearch    = "search"
)

// metrics is the daemon's metric bundle: every counter, gauge, and
// histogram the server observes, registered once at construction. All
// operations on the hot path are single atomics; gauges that mirror
// existing state (queue depths, disk usage) are scrape-time funcs and
// cost nothing between scrapes.
type metrics struct {
	reg *obs.Registry

	ingestBatches     *obs.Counter
	ingestAccepted    *obs.Counter
	ingestDuplicate   *obs.Counter
	ingestMalformed   *obs.Counter
	idempotentReplays *obs.Counter // keyed batches acked from the window, not re-applied
	rejectedIngest    *obs.Counter // 429s from the full ingest queue
	rejectedRank      *obs.Counter // 429s from the full rank queue
	panics            *obs.Counter // handler panics answered 500

	rankByAlgo   map[string]*obs.Counter
	rankDegraded *obs.Counter
	rankSeconds  *obs.Histogram
	stageSeconds map[string]*obs.Histogram

	closureCacheHit  *obs.Counter
	closureCacheMiss *obs.Counter
	answerCacheHit   *obs.Counter
	answerCacheMiss  *obs.Counter

	slowRequests *obs.Counter
	httpSeconds  map[string]*obs.Histogram

	snapshotOK           *obs.Counter
	snapshotFailed       *obs.Counter
	snapshotsPruned      *obs.Counter
	snapshotWriteSeconds *obs.Histogram
	snapshotLoadSeconds  *obs.Histogram

	breakerTrips *obs.Counter

	journal journal.Metrics
}

// httpRoutes are the instrumented endpoints; per-route latency histograms
// are pre-registered so the metric family exists from the first scrape.
var httpRoutes = []string{"votes", "rank", "snapshot", "healthz", "readyz", "metrics"}

// rankAlgorithms is the closed set of ladder outcomes; pre-registering
// one counter per rung keeps the exposition stable regardless of traffic.
var rankAlgorithms = []string{AlgoExactHeldKarp, AlgoExactBranchBound, AlgoSAPS, AlgoGreedy, AlgoUninformed}

func newMetrics(reg *obs.Registry) *metrics {
	m := &metrics{
		reg: reg,

		ingestBatches:     reg.Counter("crowdrankd_ingest_batches_total", "Acknowledged (durable) ingest batches."),
		ingestAccepted:    reg.Counter("crowdrankd_ingest_votes_total", "Votes by ingest outcome.", obs.L("result", "accepted")),
		ingestDuplicate:   reg.Counter("crowdrankd_ingest_votes_total", "Votes by ingest outcome.", obs.L("result", "duplicate")),
		ingestMalformed:   reg.Counter("crowdrankd_ingest_votes_total", "Votes by ingest outcome.", obs.L("result", "malformed")),
		idempotentReplays: reg.Counter("crowdrankd_ingest_idempotent_replays_total", "Keyed batches acknowledged from the idempotency window without re-applying."),
		rejectedIngest:    reg.Counter("crowdrankd_queue_rejections_total", "Requests answered 429 because a bounded queue was full.", obs.L("queue", "ingest")),
		rejectedRank:      reg.Counter("crowdrankd_queue_rejections_total", "Requests answered 429 because a bounded queue was full.", obs.L("queue", "rank")),
		panics:            reg.Counter("crowdrankd_http_panics_total", "HTTP handlers that panicked and were answered 500 by the recovery middleware."),

		rankByAlgo:   make(map[string]*obs.Counter, len(rankAlgorithms)),
		rankDegraded: reg.Counter("crowdrankd_rank_degraded_total", "Rank responses produced below the exact rung."),
		rankSeconds:  reg.Histogram("crowdrankd_rank_seconds", "End-to-end rank latency.", nil),
		stageSeconds: make(map[string]*obs.Histogram, 4),

		closureCacheHit:  reg.Counter("crowdrankd_closure_cache_total", "Closure lookups by ranked requests, by whether the generation's closure was cached.", obs.L("result", "hit")),
		closureCacheMiss: reg.Counter("crowdrankd_closure_cache_total", "Closure lookups by ranked requests, by whether the generation's closure was cached.", obs.L("result", "miss")),
		answerCacheHit:   reg.Counter("crowdrankd_rank_answer_cache_total", "Exact and SAPS rung lookups, by whether the generation's answer was cached.", obs.L("result", "hit")),
		answerCacheMiss:  reg.Counter("crowdrankd_rank_answer_cache_total", "Exact and SAPS rung lookups, by whether the generation's answer was cached.", obs.L("result", "miss")),

		slowRequests: reg.Counter("crowdrankd_http_slow_requests_total", "HTTP requests slower than the configured threshold."),
		httpSeconds:  make(map[string]*obs.Histogram, len(httpRoutes)),

		snapshotOK:           reg.Counter("crowdrankd_snapshots_total", "Snapshot+compaction cycles by outcome.", obs.L("result", "ok")),
		snapshotFailed:       reg.Counter("crowdrankd_snapshots_total", "Snapshot+compaction cycles by outcome.", obs.L("result", "error")),
		snapshotsPruned:      reg.Counter("crowdrankd_snapshots_pruned_total", "Old snapshot files removed by pruning."),
		snapshotWriteSeconds: reg.Histogram("crowdrankd_snapshot_write_seconds", "Snapshot file write latency.", nil),
		snapshotLoadSeconds:  reg.Histogram("crowdrankd_snapshot_load_seconds", "Snapshot read-back verification latency.", nil),

		breakerTrips: reg.Counter("crowdrankd_breaker_trips_total", "Times the exact-rung circuit breaker opened."),

		journal: journal.Metrics{
			AppendSeconds:     reg.Histogram("crowdrankd_journal_append_seconds", "Journal append latency including fsync under SyncAlways.", nil),
			FsyncSeconds:      reg.Histogram("crowdrankd_journal_fsync_seconds", "Journal segment fsync latency.", nil),
			Appends:           reg.Counter("crowdrankd_journal_appends_total", "Successful journal appends."),
			Rotations:         reg.Counter("crowdrankd_journal_rotations_total", "Journal segments sealed by rotation."),
			SegmentsCompacted: reg.Counter("crowdrankd_journal_segments_compacted_total", "Journal segment files deleted by compaction."),
		},
	}
	for _, algo := range rankAlgorithms {
		m.rankByAlgo[algo] = reg.Counter("crowdrankd_rank_requests_total", "Rank responses by the ladder rung that answered.", obs.L("algorithm", algo))
	}
	for _, stage := range []string{stageTruth, stageSmooth, stagePropagate, stageSearch} {
		m.stageSeconds[stage] = reg.Histogram("crowdrankd_infer_stage_seconds", "Per-stage inference latency (truth/smooth/propagate on closure rebuilds, search when a rank ran one).", nil, obs.L("stage", stage))
	}
	for _, route := range httpRoutes {
		m.httpSeconds[route] = reg.Histogram("crowdrankd_http_request_seconds", "HTTP request latency by route.", nil, obs.L("route", route))
	}
	return m
}

// httpRequest counts one finished HTTP request. Series are registered
// lazily per (route, status) — the registry dedups, so steady-state cost
// is one map lookup under a brief mutex.
func (m *metrics) httpRequest(route string, status int) {
	m.reg.Counter("crowdrankd_http_requests_total", "HTTP requests by route and status code.",
		obs.L("route", route), obs.L("code", strconv.Itoa(status))).Inc()
}

// registerGauges installs the scrape-time gauges that mirror server
// state. Called once after construction (and after recovery), so every
// captured field is immutable or read under its own lock.
func (s *Server) registerGauges() {
	reg := s.met.reg
	reg.GaugeFunc("crowdrankd_votes", "Deduplicated votes in the current state.", func() float64 {
		return float64(s.VoteCount())
	})
	reg.GaugeFunc("crowdrankd_batches", "Journal batches acknowledged or replayed.", func() float64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return float64(s.batches)
	})
	reg.GaugeFunc("crowdrankd_queue_depth", "Requests currently holding a bounded-queue slot.", func() float64 {
		return float64(len(s.ingestSem))
	}, obs.L("queue", "ingest"))
	reg.GaugeFunc("crowdrankd_queue_depth", "Requests currently holding a bounded-queue slot.", func() float64 {
		return float64(len(s.rankSem))
	}, obs.L("queue", "rank"))
	reg.GaugeFunc("crowdrankd_ack_window", "Batch idempotency keys currently remembered for exactly-once acks.", func() float64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return float64(len(s.acks))
	})
	reg.GaugeFunc("crowdrankd_breaker_open", "1 while the exact-rung circuit breaker refuses exact search.", func() float64 {
		if s.breaker.state() == "open" {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("crowdrankd_uptime_seconds", "Seconds since the server finished construction.", func() float64 {
		return s.clock.Since(s.started).Seconds()
	})
	if s.jnl == nil {
		return
	}
	reg.GaugeFunc("crowdrankd_journal_bytes", "Live journal bytes across segments.", func() float64 {
		return float64(s.jnl.Size())
	})
	reg.GaugeFunc("crowdrankd_journal_segments", "Live journal segment files.", func() float64 {
		return float64(s.jnl.Segments())
	})
	reg.GaugeFunc("crowdrankd_snapshot_bytes", "Bytes held by snapshot files.", func() float64 {
		return float64(snapshot.DiskUsage(s.jnl.Dir()))
	})
	reg.GaugeFunc("crowdrankd_recovery_seconds", "Duration of the startup snapshot-load and journal replay.", func() float64 {
		return s.recoveryDur.Seconds()
	})
	reg.GaugeFunc("crowdrankd_recovery_replayed_records", "Journal records replayed at startup.", func() float64 {
		return float64(s.recovered.Records)
	})
	reg.GaugeFunc("crowdrankd_recovery_truncated_bytes", "Bytes truncated from a torn or corrupt journal tail at startup.", func() float64 {
		return float64(s.recovered.TruncatedBytes)
	})
}
