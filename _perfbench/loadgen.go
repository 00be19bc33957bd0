package main

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// openLoop sends count operations on a fixed schedule, operation i due at
// start + i/rate, whatever the system's response times: independent
// users, not callers waiting on replies. Operations wait in an unbounded
// queue for one of conns senders (client connections), so a slow system
// shows as latency measured from the due time, not as a slower offered
// rate.
type openLoop struct {
	rate  float64 // operations per second
	count int
	conns int
}

// loadRun is what one open-loop phase observed.
type loadRun struct {
	start     time.Time
	windowEnd time.Time       // due time of a hypothetical next operation
	due       []time.Time     // per operation
	late      []time.Duration // dispatch minus due, on the generator's own clock
	sent      []time.Time     // when a sender picked the operation up
	done      []time.Time
	errs      []error
}

// run executes the phase; do performs operation i and is called from the
// sender goroutines. It returns once every operation has finished.
func (o openLoop) run(do func(i int) error) *loadRun {
	r := &loadRun{
		due:  make([]time.Time, o.count),
		late: make([]time.Duration, o.count),
		sent: make([]time.Time, o.count),
		done: make([]time.Time, o.count),
		errs: make([]error, o.count),
	}
	// Sized to the number of sends, so the dispatcher never blocks on a
	// backlogged system: its lateness measures only its own scheduling.
	queue := make(chan int, o.count)
	var wg sync.WaitGroup
	for c := 0; c < o.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r.sent[i] = time.Now()
				r.errs[i] = do(i)
				r.done[i] = time.Now()
			}
		}()
	}
	r.start = time.Now()
	interval := float64(time.Second) / o.rate
	for i := 0; i < o.count; i++ {
		due := r.start.Add(time.Duration(math.Round(float64(i) * interval)))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		r.due[i] = due
		r.late[i] = time.Since(due)
		queue <- i
	}
	r.windowEnd = r.start.Add(time.Duration(math.Round(float64(o.count) * interval)))
	close(queue)
	wg.Wait()
	return r
}

// latency is operation i's time from due to completion.
func (r *loadRun) latency(i int) time.Duration { return r.done[i].Sub(r.due[i]) }

// unsentAtEnd counts operations still queued, unsent, when the schedule's
// window closed: the backlog the system left behind.
func (r *loadRun) unsentAtEnd() int {
	n := 0
	for _, s := range r.sent {
		if s.After(r.windowEnd) {
			n++
		}
	}
	return n
}

// latenessP99 is the generators' own 99th-percentile dispatch lateness
// over all operations of the given runs.
func latenessP99(runs ...*loadRun) time.Duration {
	var late []time.Duration
	for _, r := range runs {
		late = append(late, r.late...)
	}
	return time.Duration(quantile(durationsS(late), 0.99) * float64(time.Second))
}

// Limits past which an open-loop phase is invalid rather than slow: the
// generator itself stalled (its dispatch lateness p99 passed
// maxGeneratorLateP99; a late dispatch still counts in the latency, which
// runs from the due time, so only a stall of the generator invalidates),
// or the phase ended its windows with more than maxBacklogSeconds of
// offered operations still queued.
const (
	maxGeneratorLateP99 = 100 * time.Millisecond
	maxBacklogSeconds   = 1.0
)

// validity explains why an open-loop phase, run as one or more windows
// at the same rate, must not be reported, or returns "".
func validity(rate float64, runs ...*loadRun) string {
	if p99 := latenessP99(runs...); p99 > maxGeneratorLateP99 {
		return "generator fell behind its schedule: dispatch lateness p99 " + p99.String()
	}
	unsent := 0
	for _, r := range runs {
		unsent += r.unsentAtEnd()
	}
	if float64(unsent) > rate*maxBacklogSeconds {
		return fmt.Sprintf("backlog grew: %d operations unsent at window end, more than %.0f s of offered load", unsent, maxBacklogSeconds)
	}
	return ""
}
