package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crowdrank/internal/crowd"
	"crowdrank/internal/serve"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{3.2, 1.1, 9.7, 4.4, 5.0, 2.2, 8.1}, [3]float64{2.2, 4.4, 8.1}},
	}
	for _, c := range cases {
		q1, q2, q3, ok := quartiles(c.xs)
		if !ok || !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v %v, want %v", c.xs, q1, q2, q3, ok, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should not be ok")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestMean(t *testing.T) {
	if got := mean([]float64{5, 1, 4, 2, 3, 10}); !near(got, 25.0/6) {
		t.Errorf("mean = %v, want %v", got, 25.0/6)
	}
	if !math.IsNaN(mean(nil)) {
		t.Error("mean of nothing should be NaN")
	}
}

func TestPercentileSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{1000, 99, true}, {999, 99, false}, {200, 95, true}, {199, 95, false}, {20, 50, true}, {19, 50, false}} {
		if got := percentileSupported(c.n, c.p); got != c.want {
			t.Errorf("percentileSupported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestParseScrapeFixture(t *testing.T) {
	f, err := os.Open("testdata/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := parseScrape(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.get("crowdrankd_breaker_trips_total"); got != 2 {
		t.Errorf("breaker trips = %v, want 2", got)
	}
	// Label order in the query does not matter.
	if got := s.get("crowdrankd_http_requests_total", "route", "rank", "code", "400"); got != 1 {
		t.Errorf("rank 400s = %v, want 1", got)
	}
	if mean, n := s.histMean("crowdrankd_infer_stage_seconds", "stage", "search"); n != 4 || !near(mean, 0.03125) {
		t.Errorf("search stage mean, count = %v, %v; want 0.03125, 4", mean, n)
	}
	if mean, n := s.histMean("crowdrankd_journal_fsync_seconds"); n != 8 || !near(mean, 0.0004) {
		t.Errorf("fsync mean, count = %v, %v; want 0.0004, 8", mean, n)
	}
	if got := s.get("crowdrankd_infer_stage_seconds_bucket", "stage", "search", "le", "+Inf"); got != 4 {
		t.Errorf("+Inf bucket = %v, want 4", got)
	}
	if mean, n := s.histMean("crowdrankd_snapshot_write_seconds"); mean != 0 || n != 0 {
		t.Errorf("absent histogram = %v, %v; want 0, 0", mean, n)
	}
}

func TestParseScrapeRejectsMalformed(t *testing.T) {
	for _, text := range []string{
		"metric_without_value\n",
		`metric{label="x" 1` + "\n",
		`metric{label=x} 1` + "\n",
		"metric notanumber\n",
	} {
		if _, err := parseScrape(strings.NewReader(text)); err == nil {
			t.Errorf("parseScrape(%q) accepted malformed input", text)
		}
	}
	s, err := parseScrape(strings.NewReader(`m{a="q\"uo\\te"} 3 1700000000` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.get("m", "a", `q"uo\te`); got != 3 {
		t.Errorf("escaped label value: got %v, want 3 (parsed %v)", got, s)
	}
}

// TestDeltaOnLiveDaemon scrapes a real in-memory daemon's exposition
// before and after some traffic, so the parser tracks the format the
// daemon actually serves.
func TestDeltaOnLiveDaemon(t *testing.T) {
	cfg := serve.DefaultConfig(20, 3)
	cfg.Seed = 7
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	read := func() scrape {
		var b strings.Builder
		if err := srv.Metrics().WriteText(&b); err != nil {
			t.Fatal(err)
		}
		s, err := parseScrape(strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	before := read()
	var votes []crowd.Vote
	for w := 0; w < 3; w++ {
		for i := 0; i < 20; i++ {
			for j := i + 1; j < 20; j++ {
				votes = append(votes, crowd.Vote{Worker: w, I: i, J: j, PrefersI: (i+j+w)%5 != 0})
			}
		}
	}
	if _, err := srv.Ingest(votes); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := srv.Rank(); err != nil {
			t.Fatal(err)
		}
	}
	d := delta(before, read())
	if got := d.get("crowdrankd_ingest_votes_total", "result", "accepted"); got != float64(len(votes)) {
		t.Errorf("accepted delta = %v, want %d", got, len(votes))
	}
	if _, n := d.histMean("crowdrankd_rank_seconds"); n != 3 {
		t.Errorf("rank count delta = %v, want 3", n)
	}
	if _, n := d.histMean("crowdrankd_infer_stage_seconds", "stage", "truth"); n != 1 {
		t.Errorf("closure rebuilds = %v, want 1 (two of three ranks hit the cache)", n)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Req: 1, Name: "root", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Req: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		// b and c overlap: the root's covered time is their union.
		{ID: 3, Parent: 1, Req: 1, Name: "b", Start: 50 * ms, End: 80 * ms},
		{ID: 4, Parent: 1, Req: 1, Name: "c", Start: 70 * ms, End: 90 * ms},
		{ID: 5, Parent: 3, Req: 1, Name: "leaf", Start: 55 * ms, End: 60 * ms},
		// A child running past its parent's end counts only inside it.
		{ID: 6, Req: 2, Name: "root", Start: 200 * ms, End: 210 * ms},
		{ID: 7, Parent: 6, Req: 2, Name: "a", Start: 205 * ms, End: 230 * ms},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 30 * ms, 2: 30 * ms, 3: 25 * ms, 4: 20 * ms, 5: 5 * ms, 6: 5 * ms, 7: 25 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	byName := selfByName(spans)
	if len(byName["root"]) != 2 || len(byName["a"]) != 2 {
		t.Errorf("selfByName grouped %v", byName)
	}
}

func TestTracerRecordsAndNilIsInert(t *testing.T) {
	var off *tracer
	id, end := off.begin(1, 0, "x")
	end()
	if id != 0 || off.finished() != nil {
		t.Error("a nil tracer recorded a span")
	}

	tr := newTracer()
	root, endRoot := tr.begin(9, 0, "root")
	_, endChild := tr.begin(9, root, "child")
	_, _ = tr.begin(9, root, "never-closed")
	endChild()
	endRoot()
	got := tr.finished()
	if len(got) != 2 || got[0].Name != "root" || got[1].Parent != root || got[1].Req != 9 {
		t.Fatalf("finished spans = %+v", got)
	}
	path := t.TempDir() + "/trace.jsonl"
	if err := tr.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 {
		t.Fatalf("trace file has %d lines, want 2", len(lines))
	}
	var s span
	if err := json.Unmarshal([]byte(lines[1]), &s); err != nil || s.Name != "child" {
		t.Errorf("second line %q decodes to %+v, %v", lines[1], s, err)
	}
}

func TestOpenLoopSchedule(t *testing.T) {
	var calls atomic.Int64
	loop := openLoop{rate: 200, count: 20, conns: 2}
	run := loop.run(func(i int) error {
		calls.Add(1)
		if i == 3 {
			return errors.New("boom")
		}
		return nil
	})
	if calls.Load() != 20 {
		t.Fatalf("ran %d operations, want 20", calls.Load())
	}
	for i := 1; i < loop.count; i++ {
		if gap := run.due[i].Sub(run.due[i-1]); gap < 4*time.Millisecond || gap > 6*time.Millisecond {
			t.Errorf("due gap %d = %v, want 5ms", i, gap)
		}
		if run.latency(i) < 0 {
			t.Errorf("operation %d finished before it was due", i)
		}
	}
	if run.errs[3] == nil || run.errs[4] != nil {
		t.Error("errors not recorded per operation")
	}
	if want := run.start.Add(100 * time.Millisecond); !run.windowEnd.Equal(want) {
		t.Errorf("window end = %v after start, want 100ms", run.windowEnd.Sub(run.start))
	}
	if reason := validity(loop.rate, run); reason != "" {
		t.Errorf("an idle system invalidated the run: %s", reason)
	}
}

func TestOpenLoopFlagsBacklog(t *testing.T) {
	// One connection, operations slower than the schedule: the queue
	// grows and the run must be flagged.
	loop := openLoop{rate: 100, count: 200, conns: 1}
	run := loop.run(func(int) error { time.Sleep(30 * time.Millisecond); return nil })
	if run.unsentAtEnd() <= 100 {
		t.Fatalf("unsent at end = %d, want a backlog above one second of load", run.unsentAtEnd())
	}
	if validity(loop.rate, run) == "" {
		t.Error("a growing backlog was not flagged")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// tables the binary reports from drifting apart.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, binary reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), binary %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	// Every listed workload must exist.
	if len(spec.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json lists %d workloads, want at least 2", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q in BENCHMARK.json is unknown to the binary", w.Name)
		}
	}
}

// TestReferenceRatesMatchSource keeps the offered rates recorded in
// reference.json equal to the constants the open loops run at.
func TestReferenceRatesMatchSource(t *testing.T) {
	raw, err := os.ReadFile("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	var ref struct {
		HeldoutSeed  uint64             `json:"heldout_seed"`
		OfferedRates map[string]float64 `json:"offered_rates"`
	}
	if err := json.Unmarshal(raw, &ref); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"daemon-rank.ranks_per_s":  rankRate,
		"daemon-rank.writes_per_s": rankWriterRate,
	}
	if len(ref.OfferedRates) != len(want) {
		t.Errorf("reference.json has rates %v, want %v", ref.OfferedRates, want)
	}
	for k, v := range want {
		if ref.OfferedRates[k] != v {
			t.Errorf("reference.json %s = %v, source runs at %v", k, ref.OfferedRates[k], v)
		}
	}
	if ref.HeldoutSeed == 0 {
		t.Error("reference.json names no held-out seed")
	}
}
