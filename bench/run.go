package main

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// facts are the exact counts of a run. They repeat bit for bit for one seed
// on one commit, so two runs that disagree on any of them did not measure
// the same work.
type facts struct {
	CubeBytes        int64  `json:"cube_bytes"`
	Cells            int    `json:"cells"`
	IcebergCells     int    `json:"iceberg_cells"`
	PersistedSamples int    `json:"persisted_samples"`
	PairsTested      int64  `json:"samgraph_pairs_tested"`
	InputsSHA256     string `json:"inputs_sha256"`
}

// result is what one run of one workload produced.
type result struct {
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string
	facts     facts
	// generatorBound marks a run whose sends ran more than 1 ms behind
	// schedule at the 99th percentile: its latencies describe the load
	// generator, not the server.
	generatorBound bool
}

func (r *result) set(name string, value float64, unit string) {
	if _, dup := r.metrics[name]; dup {
		panic("metric reported twice: " + name)
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
}

func (r *result) count(attempted, failed int, firstErr string) {
	r.attempted += attempted
	r.failed += failed
	if firstErr != "" {
		r.problems = append(r.problems, firstErr)
	}
}

// setUp brings one system from nothing to ready: inputs, DB and server, and
// for workloads that serve a cube built beforehand, the build, the
// classification of Q and the warm-up pass. It returns the set-up time and,
// when a build was part of it, the build's round trip.
func setUp(w *workload, seed int64, sz scale, serveSeconds float64, alwaysBuild bool) (e *env, setupS, buildS float64, err error) {
	start := time.Now()
	if e, err = newEnv(w, seed, sz); err != nil {
		return nil, 0, 0, err
	}
	if w.buildShare == 0 || alwaysBuild {
		if buildS, err = e.build(); err == nil {
			err = e.prepareServe(serveSeconds)
		}
		if err != nil {
			return nil, 0, 0, closeAfter(e, err)
		}
	}
	return e, time.Since(start).Seconds(), buildS, nil
}

// closeAfter closes e on an error path, keeping the original error.
func closeAfter(e *env, err error) error {
	if cerr := e.close(); cerr != nil {
		return fmt.Errorf("%w (and closing the server: %v)", err, cerr)
	}
	return err
}

// serveOutcome is the raw material of one serving phase.
type serveOutcome struct {
	latency  [numKinds][]float64 // paced phase, ms from due time
	p50      [numKinds]float64   // their median over windows of the schedule
	lateMS   []float64           // generator wake-up lateness, ms
	sent     int                 // paced requests issued
	closedOK int                 // successful closed-loop requests
	satRPS   float64             // median over windows of the closed loop
	appendMS []float64           // /v1/append round trips
	acks     []appendAck
}

// serve runs the paced open-loop phase and then the closed-loop phase, both
// over the two dashboard connections. When the workload appends, the
// connection that claims a read falling on the append schedule posts the
// batch first: the other connection carries the reads meanwhile, and that one
// read waits behind the append.
func (e *env) serve(serveSeconds float64, ih *inputHasher) (*serveOutcome, error) {
	w := e.w
	out := &serveOutcome{}
	paced := e.traffic.paced
	closedDur := time.Duration(serveSeconds * (1 - w.pacedShare) * float64(time.Second))

	var appendBodies [][]byte
	appendEvery := 0 // paced requests from one append to the next
	if w.appendRate > 0 {
		appendEvery = int(w.rate / w.appendRate)
		for i := 0; i*appendEvery < len(paced); i++ {
			b, err := appendBody(e.seed, i, e.preds.domains)
			if err != nil {
				return nil, err
			}
			ih.bytes(b)
			appendBodies = append(appendBodies, b)
		}
		out.acks = make([]appendAck, len(appendBodies))
	}

	log := runPaced(wallClock, w.rate, len(paced), len(e.conns), func(worker, i int) bool {
		if appendEvery > 0 && i%appendEvery == 0 {
			out.acks[i/appendEvery], _ = e.conns[worker].postAppend(appendBodies[i/appendEvery])
		}
		return e.conns[worker].read(paced[i])
	})
	out.lateMS = log.generatorLateMS()
	for i, r := range paced {
		if log.ok[i] {
			out.latency[r.kind] = append(out.latency[r.kind], log.latencyMS(i))
		}
	}
	for kind := range out.p50 {
		out.p50[kind] = windowMedian(len(paced), windowRequests,
			func(i int) bool { return log.ok[i] && int(paced[i].kind) == kind }, log.latencyMS)
	}
	out.sent = len(paced)
	for _, a := range out.acks {
		if a.RowsAppended > 0 {
			out.appendMS = append(out.appendMS, a.roundTripMS)
		}
	}

	closedOK, closedS, windows := runClosed(wallClock, closedDur, len(e.conns), func(worker, i int) bool {
		seq := e.traffic.closed[worker]
		return e.conns[worker].read(seq[i%len(seq)])
	})
	out.closedOK, out.satRPS = closedOK, float64(closedOK)/closedS
	if len(windows) > 0 {
		perWindow := make([]float64, len(windows))
		for k, c := range windows {
			perWindow[k] = float64(c)
		}
		out.satRPS = median(perWindow) / closedWindow.Seconds()
	}
	return out, nil
}

func (o *serveOutcome) ackedAppends() int {
	n := 0
	for _, a := range o.acks {
		if a.RowsAppended > 0 {
			n++
		}
	}
	return n
}

// runEndToEnd is the untraced run: repeated set-ups, the timed phases over
// real sockets, and the correctness checks.
func runEndToEnd(w *workload, seed int64, seconds float64, sz scale) (*result, error) {
	res := &result{metrics: make(map[string]metric)}
	serveSeconds := seconds * (1 - w.buildShare)

	var e *env
	var setups, builds []float64
	for spent := time.Duration(0); len(setups) < minSetups || (spent < sz.setupBudget && len(setups) < maxSetups); {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		var s, b float64
		var err error
		if e, s, b, err = setUp(w, seed, sz, serveSeconds, false); err != nil {
			return nil, err
		}
		setups = append(setups, s)
		if b > 0 {
			builds = append(builds, b)
		}
		spent += time.Duration(s * float64(time.Second))
	}

	ih := newInputHasher()
	ih.table(e.table)
	if w.buildShare > 0 {
		budget := time.Duration(seconds * w.buildShare * float64(time.Second))
		for start := time.Now(); len(builds) == 0 || time.Since(start) < budget; {
			b, err := e.build()
			if err != nil {
				return nil, closeAfter(e, err)
			}
			builds = append(builds, b)
		}
		if err := e.prepareServe(serveSeconds); err != nil {
			return nil, closeAfter(e, err)
		}
	}
	ih.traffic(e.preds, e.traffic)

	out, err := e.serve(serveSeconds, ih)
	if err != nil {
		return nil, closeAfter(e, err)
	}
	res.facts = e.facts(ih)

	res.set("setup_s", median(setups), "s")
	res.set("build_s", median(builds), "s")
	res.set("cube_bytes", float64(e.stats.TotalBytes), "bytes")
	res.set("query_p50_ms", out.p50[kQuery], "ms")
	res.set("viewport_p50_ms", out.p50[kViewport], "ms")
	res.set("sat_rps", out.satRPS, "req/s")
	res.generatorBound = percentile(out.lateMS, 0.99) > 1

	e.check(res, out.ackedAppends(), sz.checkCells)
	if err := e.close(); err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.set("rss_peak_mb", rss, "MB")
	return res, nil
}

// facts collects the exact counts of the built cube.
func (e *env) facts(ih *inputHasher) facts {
	f := facts{
		CubeBytes:        e.stats.TotalBytes,
		Cells:            e.stats.Cells,
		IcebergCells:     e.stats.IcebergCells,
		PersistedSamples: e.stats.PersistedSamples,
		InputsSHA256:     ih.sum(),
	}
	if cube, ok := e.db.CubeByName(cubeName); ok {
		f.PairsTested = cube.Stats().SamGraphPairsTested
	}
	return f
}

// check runs the correctness checks, given how many appends the cube
// acknowledged, and folds their counts and every connection's into the
// result. It returns the cube's final version.
func (e *env) check(res *result, ackedAppends, cells int) uint64 {
	k := &checker{e: e}
	k.checkGuarantee(cells, rand.New(rand.NewSource(e.seed^0xc4ec)))
	k.checkViewports()
	version := k.checkVersion(ackedAppends)
	res.count(k.attempted, k.failed, k.firstErr)
	for _, c := range e.conns {
		res.count(c.attempted, c.failed, c.firstErr)
	}
	return version
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
