// Command perfbench is crowdrank's benchmark: one seeded workload per
// run, measured end to end with tracing off, or layer by layer with
// tracing on.
//
//	perfbench --workload infer-offline|daemon-rank \
//	          --seed N --seconds S --trace 0|1
//
// It prints one line per named metric (name, value, unit, sample count)
// and, last, one JSON object with the keys correct, attempted, failed
// and metrics. Any correctness oracle that fails, or an open-loop run
// whose generator fell behind or whose backlog grew, ends the run with a
// non-zero exit status and no JSON result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, whatever the
// workload; each workload gives them the meaning README.md tabulates.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_ms", "ms"},
	{"tail_ms", "ms"},
	{"votes_per_s", "1/s"},
	{"accuracy", "ratio"},
	{"heap_peak_mb", "MB"},
	{"ok_share", "ratio"},
}

// perLayer are the metrics every traced run reports. A layer the
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"core.self_s", "s"},
	{"truth.discover_s", "s"},
	{"truth.iterations", "count"},
	{"smooth.smooth_s", "s"},
	{"smooth.one_edges", "count"},
	{"propagate.closure_s", "s"},
	{"propagate.alloc_mb", "MB"},
	{"propagate.uninformed_pairs", "count"},
	{"search.saps_s", "s"},
	{"search.branchbound_s", "s"},
	{"search.branchbound_ok_ratio", "ratio"},
	{"search.greedy_s", "s"},
	{"serve.stage_truth_s", "s"},
	{"serve.stage_smooth_s", "s"},
	{"serve.stage_propagate_s", "s"},
	{"serve.stage_search_s", "s"},
	{"serve.closure_rebuilds", "count"},
	{"serve.closure_hit_ratio", "ratio"},
	{"serve.rank_by_rung.exact", "count"},
	{"serve.rank_by_rung.saps", "count"},
	{"serve.rank_by_rung.greedy", "count"},
	{"serve.degraded_ratio", "ratio"},
	{"serve.breaker_trips", "count"},
	{"serve.http_votes_s", "s"},
	{"serve.http_rank_s", "s"},
	{"serve.accept_ratio", "ratio"},
	{"serve.replayed_acks", "count"},
	{"serve.recover_s", "s"},
	{"journal.append_s", "s"},
	{"journal.fsync_s", "s"},
	{"journal.appends", "count"},
	{"journal.rotations", "count"},
	{"snapshot.write_s", "s"},
	{"snapshot.load_s", "s"},
	{"snapshot.count", "count"},
	{"replica.applied", "count"},
	{"replica.lag_max_records", "count"},
	{"replica.catchup_s", "s"},
	{"client.transport_s", "s"},
	{"client.attempts", "count"},
	{"client.retries", "count"},
	{"load.late_p99_ms", "ms"},
	{"load.unsent_at_end", "count"},
	{"trace.overhead_share", "ratio"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	workdir string // scratch space for journals and the span dump
}

// subSeed derives the seed of one stream of a run (the daemon, a client,
// a shuffle) from the run's seed and the stream's name: splitmix64 of
// their mix, never 0, because a 0 seed makes the daemon and the client
// draw a time-derived one.
func subSeed(seed uint64, stream string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	z := seed ^ h.Sum64()
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return max(z, 1)
}

// report is what a workload run produced.
type report struct {
	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64
	// named are the workload's metrics under their specific names
	// (infer_s, rank_cold_max_ms, ...), printed for the reader.
	named []namedValue
	spans *tracer
}

type namedValue struct {
	name      string
	value     float64
	unit      string
	samples   int
	q1, q3    float64
	quartiles bool // q1 and q3 are set: value is a sample's median
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *report) note(name string, value float64, unit string, samples int) {
	r.named = append(r.named, namedValue{name: name, value: value, unit: unit, samples: samples})
}

// noteSample notes the median of a sample, with its quartiles.
func (r *report) noteSample(name string, xs []float64, unit string) {
	v := namedValue{name: name, value: median(xs), unit: unit, samples: len(xs)}
	v.q1, _, v.q3, v.quartiles = quartiles(xs)
	r.named = append(r.named, v)
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, so one slow set-up does not decide the metric.
const setupRepeats = 9

// repeatSetup runs setup setupRepeats times, tearing down all but the
// last result, and records the median set-up time as setup_s. A forced
// collection before each set-up and after the last gives every repetition
// and the measured window the same clean heap.
func repeatSetup[T any](rep *report, setup func(i int) (T, error), teardown func(T) error) (T, error) {
	var last T
	var took []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		start := time.Now()
		v, err := setup(i)
		if err != nil {
			return last, err
		}
		took = append(took, time.Since(start).Seconds())
		if i < setupRepeats-1 && teardown != nil {
			if err := teardown(v); err != nil {
				return last, err
			}
		}
		last = v
	}
	rep.e2e["setup_s"] = median(took)
	rep.noteSample("setup_s", took, "s")
	runtime.GC()
	return last, nil
}

// invalidRunError marks an open-loop run whose load was not what was
// offered; its numbers are not reported.
type invalidRunError struct{ reason string }

func (e *invalidRunError) Error() string { return "invalid run: " + e.reason }

var workloads = map[string]func(runConfig) (*report, error){
	"infer-offline": runInferOffline,
	"daemon-rank":   runDaemonRank,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name: infer-offline or daemon-rank")
	seed := fs.Uint64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 30, "measured time per run")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "scratch directory for journals and trace output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: dir}
	rep, err := fn(cfg)
	if err != nil {
		var invalid *invalidRunError
		var wrong *oracleError
		if errors.As(err, &wrong) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
			fmt.Println(`{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`)
			return 1
		}
		if errors.As(err, &invalid) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v; numbers withheld\n", *workload, err)
			return 3
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if _, set := rep.e2e["heap_peak_mb"]; !set {
		rep.e2e["heap_peak_mb"] = peakRSSMB()
	}
	rep.e2e["ok_share"] = 1 - float64(rep.failed)/float64(rep.attempted)
	rep.note("heap_peak_mb", rep.e2e["heap_peak_mb"], "MB", 1)
	rep.note("failed_share", float64(rep.failed)/float64(rep.attempted), "ratio", rep.attempted)

	for _, v := range rep.named {
		fmt.Printf("%-14s %-28s %14.6g %-6s n=%d", *workload, v.name, v.value, v.unit, v.samples)
		if v.quartiles {
			fmt.Printf(" q1=%.6g q3=%.6g", v.q1, v.q3)
		}
		fmt.Println()
	}
	if cfg.trace {
		for _, d := range perLayer {
			fmt.Printf("%-14s %-28s %14.6g %s\n", *workload, d.name, rep.layer[d.name], d.unit)
		}
		path := filepath.Join(*workdir, fmt.Sprintf("trace-%s-%d.jsonl", *workload, *seed))
		if err := rep.spans.writeJSONL(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Printf("%-14s spans written to %s\n", *workload, path)
	}

	defs, values := endToEnd, rep.e2e
	if cfg.trace {
		defs, values = perLayer, rep.layer
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s is %v\n", *workload, d.name, v)
			return 1
		}
		metrics[d.name] = struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{v, d.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]any `json:"metrics"`
	}{true, rep.attempted, rep.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
