package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clock is the generator's view of time; tests substitute a fake one.
type clock struct {
	now   func() time.Time
	sleep func(time.Duration)
}

// wallClock sleeps in nanosleep(2) rather than time.Sleep: a Go timer on an
// idle runtime fires from epoll_wait, whose timeout has millisecond
// granularity, which would put up to a millisecond of generator lateness
// into every paced latency. It first sets the calling thread's timer slack
// (50 µs by default) to the minimum. Even so a virtual machine wakes a
// sleeper 20–50 µs late, by an amount that drifts from second to second with
// the host — a third of a warm request's latency, and the largest part of its
// run-to-run spread. So it sleeps only until spinMargin before the deadline
// and spins through the rest: a few percent of one core per connection.
var wallClock = clock{now: time.Now, sleep: func(d time.Duration) {
	deadline := time.Now().Add(d)
	if d > spinMargin {
		ts := syscall.NsecToTimespec(int64(d - spinMargin))
		syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
		//lint:ignore droppederr an early wake-up (EINTR) only lengthens the spin below
		_ = syscall.Nanosleep(&ts, nil)
	}
	for time.Now().Before(deadline) {
	}
}}

const (
	prSetTimerSlack = 29 // PR_SET_TIMERSLACK, in nanoseconds
	spinMargin      = 100 * time.Microsecond
)

// pacedLog holds the raw timings of one open-loop phase, preallocated and
// written by index so the issuing goroutines share nothing. Times are
// nanoseconds since the phase started.
type pacedLog struct {
	due, sent, done []int64
	ok              []bool
	// waited marks the requests whose connection was free before they were
	// due: only their lateness is the generator's own. A request claimed
	// after its due time was held up by the response before it.
	waited []bool
}

func newPacedLog(n int) *pacedLog {
	return &pacedLog{due: make([]int64, n), sent: make([]int64, n), done: make([]int64, n), ok: make([]bool, n), waited: make([]bool, n)}
}

// latencyMS is request i's latency from the moment it was due, so a stall
// charges the requests queued behind it too.
func (l *pacedLog) latencyMS(i int) float64 { return float64(l.done[i]-l.due[i]) / 1e6 }

// lateMS is how long after its due time request i was actually sent.
func (l *pacedLog) lateMS(i int) float64 { return float64(l.sent[i]-l.due[i]) / 1e6 }

// generatorLateMS lists the lateness of the requests the generator slept
// for: how far behind schedule its own wake-ups ran.
func (l *pacedLog) generatorLateMS() []float64 {
	var out []float64
	for i, w := range l.waited {
		if w {
			out = append(out, l.lateMS(i))
		}
	}
	return out
}

// runPaced issues requests 0..n-1 on a fixed schedule — request i is due at
// start + i/rate — from `workers` goroutines that each hold one connection.
// A worker claims the next request, sleeps until it is due (or sends at once
// if the schedule has run ahead of it), and records due, sent and done
// times. It returns when every request has completed.
func runPaced(clk clock, rate float64, n, workers int, issue func(worker, i int) bool) *pacedLog {
	log := newPacedLog(n)
	interval := float64(time.Second) / rate
	start := clk.now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(float64(i) * interval)
				if wait := due - clk.now().Sub(start); wait > 0 {
					log.waited[i] = true
					clk.sleep(wait)
				}
				log.due[i] = int64(due)
				log.sent[i] = int64(clk.now().Sub(start))
				log.ok[i] = issue(w, i)
				log.done[i] = int64(clk.now().Sub(start))
			}
		}(w)
	}
	wg.Wait()
	return log
}

// Both phases are summarized as a median over windows: the paced schedule is
// cut into windows of windowRequests requests and the closed loop into
// windows of closedWindow. On a shared host a neighbour's burst slows a
// second or two at a time, and a stall that piles up requests adds its whole
// backlog to the slow side of one pooled distribution; over windows either
// is a few slow windows of many, and the median does not move. A paced
// window is a quarter of a second at the warm workloads' rate; dash_cold
// schedules fewer requests than one window in its whole phase, so its few,
// widely differing samples are pooled.
const (
	windowRequests = 2000
	closedWindow   = 500 * time.Millisecond
)

// windowMedian cuts samples 0..n-1 into consecutive windows of per samples
// and returns the median over windows of each window's median of value(i),
// skipping samples for which keep(i) is false. A last window that is not
// full is dropped, unless it is the only one.
func windowMedian(n, per int, keep func(i int) bool, value func(i int) float64) float64 {
	var medians []float64
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			if lo > 0 {
				break
			}
			hi = n
		}
		var in []float64
		for i := lo; i < hi; i++ {
			if keep(i) {
				in = append(in, value(i))
			}
		}
		if len(in) > 0 {
			medians = append(medians, percentile(in, 0.5))
		}
	}
	return median(medians)
}

// runClosed runs one closed loop per worker until the deadline: each sends
// its next request as soon as the previous one completes. It returns the
// number of successful requests, the elapsed seconds, and the successes that
// completed in each full window of the run.
func runClosed(clk clock, d time.Duration, workers int, issue func(worker, i int) bool) (int, float64, []int) {
	start := clk.now()
	perWorker := make([][]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		perWorker[w] = make([]int, int(d/closedWindow)+1) // the last slot takes what ends after the last full window
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; clk.now().Sub(start) < d; i++ {
				if issue(w, i) {
					perWorker[w][min(int(clk.now().Sub(start)/closedWindow), len(perWorker[w])-1)]++
				}
			}
		}(w)
	}
	wg.Wait()
	total, windows := 0, make([]int, int(d/closedWindow))
	for _, counts := range perWorker {
		for k, c := range counts {
			total += c
			if k < len(windows) {
				windows[k] += c
			}
		}
	}
	return total, clk.now().Sub(start).Seconds(), windows
}
