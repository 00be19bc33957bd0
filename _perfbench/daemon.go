package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"crowdrank/internal/client"
	"crowdrank/internal/crowd"
	"crowdrank/internal/replica"
	"crowdrank/internal/serve"
	"crowdrank/internal/snapshot"
)

// node is one in-process daemon: a replication node behind its own
// loopback HTTP server.
type node struct {
	*replica.Node
	url string
	hs  *http.Server
	// served is closed when the HTTP server's Serve loop has returned.
	served chan struct{}
}

// daemonConfig is serve.DefaultConfig with only the journal directory and
// the seed changed, so later changes to the defaults show in the numbers.
func daemonConfig(n, m int, dir string, seed uint64) serve.Config {
	cfg := serve.DefaultConfig(n, m)
	cfg.JournalPath = dir
	cfg.Seed = seed
	return cfg
}

// startNode opens a replication node (a leader when leaderURL is empty,
// else a warm standby following it) and serves it on a loopback port.
func startNode(scfg serve.Config, leaderURL string) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	url := "http://" + ln.Addr().String()
	rn, err := replica.Open(context.Background(), replica.Config{Self: url, Leader: leaderURL}, scfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	n := &node{
		Node: rn,
		url:  url,
		hs: &http.Server{
			Handler:           rn.Handler(),
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       60 * time.Second,
		},
		served: make(chan struct{}),
	}
	go func() {
		defer close(n.served)
		if err := n.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: serving %s: %v\n", url, err)
		}
	}()
	return n, nil
}

// stop closes the HTTP server (ending any replication stream it serves)
// and then the node, waiting for both.
func (n *node) stop() error {
	herr := n.hs.Close()
	<-n.served
	nerr := n.Node.Close()
	return errors.Join(herr, nerr)
}

// startPair opens a leader in dir/leader and a warm standby following it
// in dir/follower, and waits for the standby's stream to attach.
func startPair(n, m int, dir string, seed uint64) (leader, follower *node, err error) {
	leaderDir, followerDir := filepath.Join(dir, "leader"), filepath.Join(dir, "follower")
	for _, d := range []string{leaderDir, followerDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, nil, err
		}
	}
	if leader, err = startNode(daemonConfig(n, m, leaderDir, seed), ""); err != nil {
		return nil, nil, err
	}
	if follower, err = startNode(daemonConfig(n, m, followerDir, seed), leader.url); err != nil {
		leader.stop()
		return nil, nil, err
	}
	deadline := time.Now().Add(10 * time.Second)
	for !follower.Status().Connected {
		if time.Now().After(deadline) {
			follower.stop()
			leader.stop()
			return nil, nil, fmt.Errorf("standby did not attach to the leader's stream")
		}
		time.Sleep(time.Millisecond)
	}
	return leader, follower, nil
}

// awaitStandby waits until the standby holds every vote the leader does
// and reports no lag, and returns how long that took.
func awaitStandby(leader, follower *node) (time.Duration, error) {
	start := time.Now()
	for follower.Server().VoteCount() != leader.Server().VoteCount() || follower.Lag() != 0 {
		if time.Since(start) > time.Minute {
			return 0, fmt.Errorf("standby did not catch up within a minute")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return time.Since(start), nil
}

// recoverLeader reopens a stopped leader's journal directory with
// serve.New, as a restart would, and returns the recovered state and the
// time recovery took.
func recoverLeader(cfg serve.Config) (snapshot.State, time.Duration, error) {
	// Drop the stopped nodes' state before recovery builds its own.
	runtime.GC()
	start := time.Now()
	srv, err := serve.New(cfg)
	if err != nil {
		return snapshot.State{}, 0, fmt.Errorf("recovering the leader's journal: %w", err)
	}
	took := time.Since(start)
	state := srv.StateSnapshot()
	if err := srv.Close(); err != nil {
		return snapshot.State{}, 0, err
	}
	return state, took, nil
}

// writePathLayers fills the journal, snapshot and standby metrics from
// the leader's and the standby's /metrics deltas.
func writePathLayers(L map[string]float64, leader, follower scrape) {
	L["serve.http_votes_s"], _ = leader.histMean("crowdrankd_http_request_seconds", "route", "votes")
	L["serve.replayed_acks"] = leader.get("crowdrankd_ingest_idempotent_replays_total")
	L["journal.append_s"], _ = leader.histMean("crowdrankd_journal_append_seconds")
	L["journal.fsync_s"], _ = leader.histMean("crowdrankd_journal_fsync_seconds")
	L["journal.appends"] = leader.get("crowdrankd_journal_appends_total")
	L["journal.rotations"] = leader.get("crowdrankd_journal_rotations_total")
	L["snapshot.write_s"], _ = leader.histMean("crowdrankd_snapshot_write_seconds")
	L["snapshot.load_s"], _ = leader.histMean("crowdrankd_snapshot_load_seconds")
	L["snapshot.count"] = leader.get("crowdrankd_snapshots_total", "result", "ok")
	L["replica.applied"] = follower.get("crowdrankd_replica_records_applied_total")
}

// meanSeconds is the mean of ds in seconds, 0 for none.
func meanSeconds(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return (sum / time.Duration(len(ds))).Seconds()
}

// newBenchClient is an internal/client.Client limited to conns
// connections to base, seeded from the run's seed.
func newBenchClient(base string, seed uint64, conns int) (*client.Client, *http.Transport, error) {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}
	c, err := client.New(client.Config{BaseURL: base, Seed: seed, HTTPClient: &http.Client{Transport: tr}})
	if err != nil {
		return nil, nil, err
	}
	return c, tr, nil
}

// scrapeURL fetches and parses a daemon's GET /metrics.
func scrapeURL(base string) (scrape, error) {
	hc := &http.Client{Timeout: 10 * time.Second}
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: status %d", base, resp.StatusCode)
	}
	return parseScrape(resp.Body)
}

// clientCounters reads a client's own registry: attempts and retries.
func clientCounters(c *client.Client) (scrape, error) {
	var b strings.Builder
	if err := c.Metrics().WriteText(&b); err != nil {
		return nil, err
	}
	return parseScrape(strings.NewReader(b.String()))
}

// batchKeys draws n idempotency keys from the run's seed, so a batch's
// key is a function of the seed and its index alone.
func batchKeys(n int, rng *rand.Rand) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%016x%016x", rng.Uint64(), rng.Uint64())
	}
	return keys
}

// chunk splits votes into consecutive batches of at most size votes.
func chunk(votes []crowd.Vote, size int) [][]crowd.Vote {
	var out [][]crowd.Vote
	for len(votes) > 0 {
		k := min(size, len(votes))
		out = append(out, votes[:k:k])
		votes = votes[k:]
	}
	return out
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB, or the Go
// runtime's obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return runtimeSysMB()
}

func runtimeSysMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
