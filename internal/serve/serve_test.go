package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"crowdrank/internal/crowd"
	"crowdrank/internal/obs"
	"crowdrank/internal/search"
)

// agreeingVotes has every worker vote every pair according to the identity
// order, so exact inference must recover 0 < 1 < ... < n-1.
func agreeingVotes(n, m int) []crowd.Vote {
	var votes []crowd.Vote
	for w := 0; w < m; w++ {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				votes = append(votes, crowd.Vote{Worker: w, I: i, J: j, PrefersI: true})
			}
		}
	}
	return votes
}

// noisyVotes is a conflicted electorate: workers disagree pseudo-randomly,
// which keeps exact search from short-circuiting on an easy instance.
func noisyVotes(n, m int, seed uint64) []crowd.Vote {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	var votes []crowd.Vote
	for w := 0; w < m; w++ {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				votes = append(votes, crowd.Vote{Worker: w, I: i, J: j, PrefersI: rng.Float64() < 0.55})
			}
		}
	}
	return votes
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("closing server: %v", err)
		}
	})
	return s
}

func assertPermutation(t *testing.T, n int, ranking []int) {
	t.Helper()
	if len(ranking) != n {
		t.Fatalf("ranking %v has length %d, want %d", ranking, len(ranking), n)
	}
	seen := make([]bool, n)
	for _, v := range ranking {
		if v < 0 || v >= n || seen[v] {
			t.Fatalf("ranking %v is not a permutation of %d objects", ranking, n)
		}
		seen[v] = true
	}
}

func TestIngestAndExactRank(t *testing.T) {
	cfg := DefaultConfig(6, 3)
	cfg.Seed = 11
	s := newTestServer(t, cfg)

	res, err := s.Ingest(agreeingVotes(6, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 45 || res.Duplicates != 0 || res.Malformed != 0 {
		t.Fatalf("unexpected ingest result %+v", res)
	}
	rr, err := s.Rank()
	if err != nil {
		t.Fatal(err)
	}
	if rr.Algorithm != AlgoExactHeldKarp {
		t.Fatalf("n=6 unanimous instance should use %s, got %s", AlgoExactHeldKarp, rr.Algorithm)
	}
	if rr.Degraded {
		t.Fatal("exact answer should not be marked degraded")
	}
	for i, v := range rr.Ranking {
		if v != i {
			t.Fatalf("unanimous identity votes should rank identically, got %v", rr.Ranking)
		}
	}
	if rr.Votes != 45 || rr.Seed != 11 {
		t.Fatalf("result metadata wrong: %+v", rr)
	}
}

func TestRankWithoutVotes(t *testing.T) {
	cfg := DefaultConfig(5, 2)
	cfg.Seed = 1
	s := newTestServer(t, cfg)
	rr, err := s.Rank()
	if err != nil {
		t.Fatal(err)
	}
	if rr.Algorithm != AlgoUninformed {
		t.Fatalf("empty state should answer %s, got %s", AlgoUninformed, rr.Algorithm)
	}
	assertPermutation(t, 5, rr.Ranking)
}

func TestIngestDeduplicatesAcrossBatches(t *testing.T) {
	cfg := DefaultConfig(4, 2)
	cfg.Seed = 3
	s := newTestServer(t, cfg)
	if _, err := s.Ingest([]crowd.Vote{{Worker: 0, I: 0, J: 1, PrefersI: true}}); err != nil {
		t.Fatal(err)
	}
	// Same submission, mirrored encoding: must collide with the first.
	res, err := s.Ingest([]crowd.Vote{{Worker: 0, I: 1, J: 0, PrefersI: false}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 0 || res.Duplicates != 1 {
		t.Fatalf("mirrored resubmission should dedup, got %+v", res)
	}
	// The same pair from another worker is a distinct submission.
	res, err = s.Ingest([]crowd.Vote{{Worker: 1, I: 0, J: 1, PrefersI: false}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 1 {
		t.Fatalf("distinct worker should be accepted, got %+v", res)
	}
	if s.VoteCount() != 2 {
		t.Fatalf("want 2 deduplicated votes, got %d", s.VoteCount())
	}
}

func TestIngestContextRefusesCancelledBatch(t *testing.T) {
	cfg := DefaultConfig(4, 2)
	cfg.Seed = 3
	s := newTestServer(t, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.IngestContext(ctx, agreeingVotes(4, 1)); err == nil {
		t.Fatal("cancelled ingest must be refused")
	}
	if s.VoteCount() != 0 {
		t.Fatalf("refused batch must not change state, got %d votes", s.VoteCount())
	}
}

func TestIngestCountsMalformed(t *testing.T) {
	cfg := DefaultConfig(4, 2)
	cfg.Seed = 3
	s := newTestServer(t, cfg)
	res, err := s.Ingest([]crowd.Vote{
		{Worker: 0, I: 0, J: 1, PrefersI: true},
		{Worker: 9, I: 0, J: 1, PrefersI: true},  // worker outside pool
		{Worker: 0, I: 2, J: 2, PrefersI: true},  // self-pair
		{Worker: 0, I: -1, J: 1, PrefersI: true}, // negative id
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 1 || res.Malformed != 3 {
		t.Fatalf("want 1 accepted / 3 malformed, got %+v", res)
	}
}

func TestJournalRecoveryRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	cfg := DefaultConfig(6, 3)
	cfg.Seed = 21
	cfg.JournalPath = path

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := agreeingVotes(6, 3)
	for i := 0; i < len(all); i += 9 {
		if _, err := s.Ingest(all[i : i+9]); err != nil {
			t.Fatal(err)
		}
	}
	wantVotes, _ := s.snapshot()
	want, err := s.Rank()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := newTestServer(t, cfg)
	if r.Recovered().Records != 5 {
		t.Fatalf("want 5 replayed batches, got %d", r.Recovered().Records)
	}
	if r.Recovered().Truncated() {
		t.Fatalf("clean journal should not report truncation: %+v", r.Recovered())
	}
	gotVotes, _ := r.snapshot()
	if len(gotVotes) != len(wantVotes) {
		t.Fatalf("recovered %d votes, want %d", len(gotVotes), len(wantVotes))
	}
	for i := range gotVotes {
		if gotVotes[i] != wantVotes[i] {
			t.Fatalf("vote %d differs after recovery: %+v vs %+v", i, gotVotes[i], wantVotes[i])
		}
	}
	got, err := r.Rank()
	if err != nil {
		t.Fatal(err)
	}
	if got.Algorithm != want.Algorithm {
		t.Fatalf("recovered server used %s, original %s", got.Algorithm, want.Algorithm)
	}
	for i := range want.Ranking {
		if got.Ranking[i] != want.Ranking[i] {
			t.Fatalf("recovered ranking %v differs from original %v", got.Ranking, want.Ranking)
		}
	}
}

func TestServerRejectsForeignJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	big := DefaultConfig(50, 10)
	big.Seed = 5
	big.JournalPath = path
	s, err := New(big)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest([]crowd.Vote{{Worker: 9, I: 40, J: 49, PrefersI: true}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopening under a smaller universe must not silently poison state:
	// out-of-universe votes are dropped per decodeBatch's contract, leaving
	// an empty, healthy server rather than a refused start.
	small := DefaultConfig(4, 2)
	small.Seed = 5
	small.JournalPath = path
	r := newTestServer(t, small)
	if r.VoteCount() != 0 {
		t.Fatalf("out-of-universe votes must be dropped on replay, got %d", r.VoteCount())
	}
}

func TestCloseMakesRequestsFailFast(t *testing.T) {
	cfg := DefaultConfig(4, 2)
	cfg.Seed = 9
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("Close must be idempotent:", err)
	}
	if _, err := s.Ingest(agreeingVotes(4, 1)); err == nil {
		t.Fatal("ingest after Close should fail")
	}
	if _, err := s.Rank(); err == nil {
		t.Fatal("rank after Close should fail")
	}
}

func TestBatchCodecRoundTrip(t *testing.T) {
	votes := agreeingVotes(5, 3)
	got, dropped, err := decodeBatch(encodeBatch(votes), 5, 3)
	if err != nil || dropped != 0 {
		t.Fatalf("round trip failed: err=%v dropped=%d", err, dropped)
	}
	if len(got) != len(votes) {
		t.Fatalf("decoded %d votes, want %d", len(got), len(votes))
	}
	for i := range got {
		if got[i] != votes[i] {
			t.Fatalf("vote %d: got %+v want %+v", i, got[i], votes[i])
		}
	}
}

func TestBatchCodecRejectsStructuralDamage(t *testing.T) {
	good := encodeBatch(agreeingVotes(4, 2))
	cases := map[string][]byte{
		"empty payload":    {},
		"truncated":        good[:len(good)-2],
		"trailing bytes":   append(bytes.Clone(good), 0xff),
		"bogus count":      {0xff, 0xff, 0xff, 0xff, 0xff},
		"bad pref byte":    {1, 0, 0, 1, 7},
		"count over bytes": {200, 1, 0, 0, 1, 1},
	}
	for name, data := range cases {
		if _, _, err := decodeBatch(data, 4, 2); err == nil {
			t.Errorf("%s: decode should fail", name)
		}
	}
}

func TestBatchCodecDropsOutOfUniverse(t *testing.T) {
	votes := []crowd.Vote{
		{Worker: 0, I: 0, J: 1, PrefersI: true},
		{Worker: 7, I: 0, J: 1, PrefersI: true}, // worker outside m=2
		{Worker: 1, I: 0, J: 9, PrefersI: false},
	}
	got, dropped, err := decodeBatch(encodeBatch(votes), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || dropped != 2 {
		t.Fatalf("want 1 kept / 2 dropped, got %d/%d", len(got), dropped)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	clock := obs.NewFakeClock(time.Unix(1000, 0))
	b := newBreaker(3, time.Minute, clock)

	if !b.allow() || b.state() != "closed" {
		t.Fatal("fresh breaker should be closed")
	}
	b.failure()
	b.failure()
	if !b.allow() {
		t.Fatal("below threshold the breaker stays closed")
	}
	b.failure() // third consecutive failure trips it
	if b.allow() || b.state() != "open" {
		t.Fatalf("breaker should be open, state=%s", b.state())
	}

	clock.Advance(61 * time.Second)
	if b.state() != "half-open" {
		t.Fatalf("cooldown elapsed: want half-open, got %s", b.state())
	}
	if !b.allow() {
		t.Fatal("first caller after cooldown should get the probe")
	}
	if b.allow() {
		t.Fatal("only one probe may be in flight")
	}
	b.failure() // probe overran: re-open for a fresh cooldown
	if b.allow() || b.state() != "open" {
		t.Fatalf("failed probe should re-open, state=%s", b.state())
	}

	clock.Advance(61 * time.Second)
	if !b.allow() {
		t.Fatal("second probe should be admitted")
	}
	b.success()
	if !b.allow() || b.state() != "closed" {
		t.Fatalf("successful probe should close the breaker, state=%s", b.state())
	}

	// A success resets the consecutive-failure count.
	b.failure()
	b.failure()
	b.success()
	b.failure()
	b.failure()
	if !b.allow() {
		t.Fatal("failure count should reset on success")
	}
}

func TestBreakerSkipsExactRung(t *testing.T) {
	cfg := DefaultConfig(6, 2)
	cfg.Seed = 13
	cfg.BreakerThreshold = 1
	s := newTestServer(t, cfg)
	if _, err := s.Ingest(agreeingVotes(6, 2)); err != nil {
		t.Fatal(err)
	}
	s.breaker.failure() // trip it (threshold 1)
	rr, err := s.Rank()
	if err != nil {
		t.Fatal(err)
	}
	if rr.Algorithm == AlgoExactHeldKarp || rr.Algorithm == AlgoExactBranchBound {
		t.Fatalf("open breaker must skip the exact rung, got %s", rr.Algorithm)
	}
	if !rr.Degraded {
		t.Fatal("a skipped exact rung is a degraded answer")
	}
	if rr.Breaker != "open" {
		t.Fatalf("response should report the breaker open, got %s", rr.Breaker)
	}
	assertPermutation(t, 6, rr.Ranking)
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{N: 0, M: 2},
		{N: 3, M: 0},
		{N: 3, M: 2, ExactFraction: 1.5},
		{N: 3, M: 2, SAPSFraction: -0.1},
		{N: 3, M: 2, ExactLimit: -1},
		{N: 3, M: 2, BreakerThreshold: -2},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should be rejected: %+v", i, cfg)
		}
	}
	s := newTestServer(t, Config{N: 3, M: 2})
	if s.Seed() == 0 {
		t.Fatal("zero seed should be replaced by a drawn one")
	}
}

// --- HTTP layer ---

func httpServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postVotes(t *testing.T, url string, votes []crowd.Vote) *http.Response {
	t.Helper()
	req := ingestRequest{}
	for _, v := range votes {
		req.Votes = append(req.Votes, voteJSON{Worker: v.Worker, I: v.I, J: v.J, PrefersI: v.PrefersI})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/votes", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = resp.Body.Close() })
	return resp
}

func TestHTTPIngestAndRank(t *testing.T) {
	cfg := DefaultConfig(6, 3)
	cfg.Seed = 17
	_, ts := httpServer(t, cfg)

	resp := postVotes(t, ts.URL, agreeingVotes(6, 3))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	var ir IngestResult
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != 45 {
		t.Fatalf("want 45 accepted, got %+v", ir)
	}

	resp2, err := http.Get(ts.URL + "/rank")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp2.Body.Close() }()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("rank status %d", resp2.StatusCode)
	}
	var rr RankResult
	if err := json.NewDecoder(resp2.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	assertPermutation(t, 6, rr.Ranking)
	if rr.Algorithm == "" {
		t.Fatal("response must name the algorithm that answered")
	}
}

// TestHTTPTinyDeadlineStillAnswers is the acceptance criterion: a rank
// request whose deadline cannot afford real inference still gets HTTP 200
// with a ranking, and the response names the degraded algorithm.
func TestHTTPTinyDeadlineStillAnswers(t *testing.T) {
	n := 60
	cfg := DefaultConfig(n, 5)
	cfg.Seed = 23
	_, ts := httpServer(t, cfg)

	if resp := postVotes(t, ts.URL, noisyVotes(n, 5, 23)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/rank?deadline_ms=50")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("a 50ms-deadline rank must still answer 200, got %d", resp.StatusCode)
	}
	var rr RankResult
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	assertPermutation(t, n, rr.Ranking)
	switch rr.Algorithm {
	case AlgoExactBranchBound, AlgoSAPS, AlgoGreedy:
	default:
		t.Fatalf("unexpected algorithm %q for n=%d at 50ms", rr.Algorithm, n)
	}
	// At 1ms even SAPS is unaffordable: the greedy floor must answer and
	// the response must say the ladder degraded.
	resp2, err := http.Get(ts.URL + "/rank?deadline_ms=1")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp2.Body.Close() }()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("a 1ms-deadline rank must still answer 200, got %d", resp2.StatusCode)
	}
	var rr2 RankResult
	if err := json.NewDecoder(resp2.Body).Decode(&rr2); err != nil {
		t.Fatal(err)
	}
	assertPermutation(t, n, rr2.Ranking)
	if !rr2.Degraded {
		t.Fatalf("1ms deadline must degrade, got %+v algorithm %s", rr2.Degraded, rr2.Algorithm)
	}
	if rr2.Algorithm != AlgoGreedy {
		t.Fatalf("1ms deadline should hit the greedy floor, got %s", rr2.Algorithm)
	}
}

func TestHTTPBackpressure(t *testing.T) {
	cfg := DefaultConfig(4, 2)
	cfg.Seed = 29
	cfg.MaxConcurrentRanks = 1
	cfg.MaxConcurrentIngests = 1
	s, ts := httpServer(t, cfg)

	// Occupy both queues, then observe immediate 429s with Retry-After.
	s.rankSem <- struct{}{}
	s.ingestSem <- struct{}{}
	defer func() { <-s.rankSem; <-s.ingestSem }()

	resp, err := http.Get(ts.URL + "/rank")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full rank queue should 429, got %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	resp2 := postVotes(t, ts.URL, agreeingVotes(4, 2))
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full ingest queue should 429, got %d", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
}

func TestHTTPValidationErrors(t *testing.T) {
	cfg := DefaultConfig(4, 2)
	cfg.Seed = 31
	cfg.MaxBatchVotes = 2
	_, ts := httpServer(t, cfg)

	resp, err := http.Post(ts.URL+"/votes", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON should 400, got %d", resp.StatusCode)
	}

	if resp := postVotes(t, ts.URL, agreeingVotes(4, 1)); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch should 413, got %d", resp.StatusCode)
	}

	for _, q := range []string{"deadline_ms=0", "deadline_ms=-5", "deadline_ms=soon"} {
		resp, err := http.Get(ts.URL + "/rank?" + q)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s should 400, got %d", q, resp.StatusCode)
		}
	}

	resp3, err := http.Get(ts.URL + "/votes") // wrong method
	if err != nil {
		t.Fatal(err)
	}
	_ = resp3.Body.Close()
	if resp3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /votes should 405, got %d", resp3.StatusCode)
	}
}

func TestHTTPHealthAndReadiness(t *testing.T) {
	cfg := DefaultConfig(4, 2)
	cfg.Seed = 37
	s, ts := httpServer(t, cfg)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Objects != 4 || st.Workers != 2 || st.Breaker != "closed" {
		t.Fatalf("unexpected stats %+v", st)
	}

	resp2, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("readyz status %d", resp2.StatusCode)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/readyz", "/rank"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s during shutdown should 503, got %d", path, resp.StatusCode)
		}
	}
	if resp := postVotes(t, ts.URL, agreeingVotes(4, 2)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest during shutdown should 503, got %d", resp.StatusCode)
	}
}

func TestClosureCacheInvalidation(t *testing.T) {
	cfg := DefaultConfig(5, 2)
	cfg.Seed = 41
	s := newTestServer(t, cfg)
	if _, err := s.Ingest(agreeingVotes(5, 1)); err != nil {
		t.Fatal(err)
	}
	votes, gen := s.snapshot()
	c1, err := s.closure(votes, gen)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.closure(votes, gen)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("unchanged state must reuse the cached closure")
	}
	// A duplicate-only batch must not invalidate the cache...
	if _, err := s.Ingest(agreeingVotes(5, 1)); err != nil {
		t.Fatal(err)
	}
	votes, gen2 := s.snapshot()
	if gen2 != gen {
		t.Fatal("duplicate-only batch should not bump the generation")
	}
	// ...but new votes must.
	if _, err := s.Ingest([]crowd.Vote{{Worker: 1, I: 0, J: 1, PrefersI: false}}); err != nil {
		t.Fatal(err)
	}
	votes, gen3 := s.snapshot()
	if gen3 == gen {
		t.Fatal("new votes must bump the generation")
	}
	c3, err := s.closure(votes, gen3)
	if err != nil {
		t.Fatal(err)
	}
	if c3 == c1 {
		t.Fatal("new generation must rebuild the closure")
	}
}

// TestClosureCacheNeverGoesBackwards: a rank that snapshotted generation
// g and reaches the cache after g+1 was built gets g's closure for its own
// answer, but must not evict g+1 — the next g+1 lookup is still a hit.
func TestClosureCacheNeverGoesBackwards(t *testing.T) {
	cfg := DefaultConfig(5, 2)
	cfg.Seed = 43
	s := newTestServer(t, cfg)
	if _, err := s.Ingest(agreeingVotes(5, 1)); err != nil {
		t.Fatal(err)
	}
	oldVotes, oldGen := s.snapshot()
	if _, err := s.Ingest([]crowd.Vote{{Worker: 1, I: 0, J: 1, PrefersI: false}}); err != nil {
		t.Fatal(err)
	}
	newVotes, newGen := s.snapshot()
	if newGen <= oldGen {
		t.Fatalf("generation did not advance: %d then %d", oldGen, newGen)
	}

	cNew, err := s.closure(newVotes, newGen)
	if err != nil {
		t.Fatal(err)
	}
	cOld, err := s.closure(oldVotes, oldGen) // the late, older build
	if err != nil {
		t.Fatal(err)
	}
	if cOld == cNew {
		t.Fatal("the older generation must get its own closure")
	}
	misses := s.met.closureCacheMiss.Value()
	again, err := s.closure(newVotes, newGen)
	if err != nil {
		t.Fatal(err)
	}
	if again != cNew || s.met.closureCacheMiss.Value() != misses {
		t.Fatal("a late build of an older generation evicted the newer closure")
	}
	// A late answer for the older generation is dropped the same way.
	s.storeAnswer(oldGen, cOld, rungSAPS, AlgoSAPS, &search.Result{Path: []int{0, 1, 2, 3, 4}, LogProb: -1})
	if e := s.cached(newGen); e == nil || e.closure != cNew {
		t.Fatal("a late answer for an older generation replaced the newer entry")
	}
}

func TestStatsSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	cfg := DefaultConfig(4, 2)
	cfg.Seed = 43
	cfg.JournalPath = path
	s := newTestServer(t, cfg)
	if _, err := s.Ingest([]crowd.Vote{
		{Worker: 0, I: 0, J: 1, PrefersI: true},
		{Worker: 0, I: 1, J: 0, PrefersI: false}, // duplicate
		{Worker: 5, I: 0, J: 1, PrefersI: true},  // malformed
	}); err != nil {
		t.Fatal(err)
	}
	st := s.StatsSnapshot()
	if st.Votes != 1 || st.Duplicates != 1 || st.Malformed != 1 || st.Batches != 1 {
		t.Fatalf("unexpected stats %+v", st)
	}
	if st.Journal != path || st.Seed != 43 || st.Closing {
		t.Fatalf("unexpected stats %+v", st)
	}
}

func TestHeldKarpEstimateMonotone(t *testing.T) {
	prev := time.Duration(0)
	for n := 2; n <= 24; n++ {
		est := heldKarpEstimate(n)
		if est <= prev {
			t.Fatalf("estimate must grow with n: n=%d est=%v prev=%v", n, est, prev)
		}
		prev = est
	}
	if heldKarpEstimate(10) > 50*time.Millisecond {
		t.Fatalf("n=10 estimate implausibly large: %v", heldKarpEstimate(10))
	}
}

func ExampleServer() {
	cfg := DefaultConfig(4, 2)
	cfg.Seed = 7
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	defer func() { _ = s.Close() }()
	if _, err := s.Ingest(agreeingVotes(4, 2)); err != nil {
		panic(err)
	}
	rr, err := s.Rank()
	if err != nil {
		panic(err)
	}
	fmt.Println(rr.Ranking, rr.Algorithm)
	// Output: [0 1 2 3] exact:heldkarp
}
