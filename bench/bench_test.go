package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"
)

func TestPercentileIsNearestRank(t *testing.T) {
	samples := []float64{50, 10, 40, 20, 30} // arrival order, not sorted
	for _, tc := range []struct{ q, want float64 }{
		{0.01, 10}, {0.2, 10}, {0.21, 20}, {0.5, 30}, {0.8, 40}, {0.81, 50}, {0.99, 50}, {1, 50},
	} {
		if got := percentile(samples, tc.q); got != tc.want {
			t.Errorf("percentile(q=%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if samples[0] != 50 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %g, want 2.5", got)
	}
}

// fakeClock advances only when the generator sleeps or a request "runs".
type fakeClock struct{ t time.Time }

func (f *fakeClock) clock() clock {
	return clock{now: func() time.Time { return f.t }, sleep: func(d time.Duration) { f.t = f.t.Add(d) }}
}

func TestPacedLatencyCountsFromDueTime(t *testing.T) {
	fc := &fakeClock{t: time.Unix(1000, 0)}
	// 100 req/s: request i is due at i·10 ms. Request 1 stalls for 35 ms;
	// every other request takes 1 ms. One worker, so the stall delays the
	// sends of requests 2, 3 and 4, and their latencies must include the
	// time they waited behind it.
	cost := func(i int) time.Duration {
		if i == 1 {
			return 35 * time.Millisecond
		}
		return time.Millisecond
	}
	log := runPaced(fc.clock(), 100, 6, 1, func(_, i int) bool {
		fc.t = fc.t.Add(cost(i))
		return i != 3
	})
	wantDue := []float64{0, 10, 20, 30, 40, 50}
	wantLate := []float64{0, 0, 25, 16, 7, 0}
	wantLatency := []float64{1, 35, 26, 17, 8, 1}
	for i := range wantDue {
		if got := float64(log.due[i]) / 1e6; got != wantDue[i] {
			t.Errorf("request %d due at %g ms, want %g", i, got, wantDue[i])
		}
		if got := log.lateMS(i); got != wantLate[i] {
			t.Errorf("request %d sent %g ms late, want %g", i, got, wantLate[i])
		}
		if got := log.latencyMS(i); got != wantLatency[i] {
			t.Errorf("request %d latency %g ms, want %g", i, got, wantLatency[i])
		}
		if log.ok[i] != (i != 3) {
			t.Errorf("request %d ok = %v", i, log.ok[i])
		}
	}
	// Only for requests 1 and 5 did the generator sleep until the due time;
	// the lateness of 2, 3 and 4 is the stall's, not the generator's.
	if got := log.generatorLateMS(); len(got) != 2 || got[0] != 0 || got[1] != 0 {
		t.Errorf("generator lateness = %v, want two zeros", got)
	}
}

func TestClosedLoopStopsAtDeadline(t *testing.T) {
	fc := &fakeClock{t: time.Unix(1000, 0)}
	ok, elapsed, windows := runClosed(fc.clock(), 10*time.Millisecond, 1, func(_, i int) bool {
		fc.t = fc.t.Add(3 * time.Millisecond)
		return i%2 == 0
	})
	// Requests start at 0, 3, 6 and 9 ms; the one at 9 ms ends at 12 ms.
	if ok != 2 || elapsed != 0.012 || len(windows) != 0 {
		t.Errorf("closed loop: %d ok in %g s over %d full windows, want 2 in 0.012 over none", ok, elapsed, len(windows))
	}

	// 1.2 s of requests that take 100 ms each, every fourth one failing: two
	// full windows of 5 requests each, and the rest counted in the total only.
	fc = &fakeClock{t: time.Unix(1000, 0)}
	ok, _, windows = runClosed(fc.clock(), 1200*time.Millisecond, 1, func(_, i int) bool {
		fc.t = fc.t.Add(100 * time.Millisecond)
		return i%4 != 3
	})
	if ok != 9 || len(windows) != 2 || windows[0] != 3 || windows[1] != 4 {
		t.Errorf("closed loop: %d ok, windows %v, want 9 ok, windows [3 4]", ok, windows)
	}
}

func TestWindowMedian(t *testing.T) {
	// Windows of 4: medians 2 (of 1 2 3, the 100 skipped), 50, 7; the last,
	// partial window (9) is dropped. A stall's backlog (the 50s) is one
	// window of three, not four samples of eleven.
	v := []float64{1, 2, 3, 100, 50, 50, 50, 50, 6, 7, 8, 9, 9}
	got := windowMedian(len(v), 4, func(i int) bool { return v[i] != 100 }, func(i int) float64 { return v[i] })
	if got != 7 {
		t.Errorf("windowMedian = %v, want 7", got)
	}
	if got := windowMedian(3, 4, func(int) bool { return true }, func(i int) float64 { return v[i] }); got != 2 {
		t.Errorf("windowMedian of one partial window = %v, want 2", got)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},  // overlaps a: parallel work
		{Name: "c", Parent: 0, Start: 90, End: 120}, // outlives the root: clipped
		{Name: "a1", Parent: 1, Start: 15, End: 20},
	}
	want := []int64{40, 25, 30, 30, 5} // root: 100 − [10,60] − [90,100]
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	var tr *tracer // the disabled tracer must be callable
	tr.end(tr.start("x", -1, -1))
}

// hashOf hashes everything a hot workload derives from the seed without
// building a cube: the table, Q and the read schedule.
func hashOf(t *testing.T, seed int64) string {
	t.Helper()
	w, err := workloadByName("dash_warm")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := w.makeTable(fullScale)
	if err != nil {
		t.Fatal(err)
	}
	preds, err := makePredicates(tbl)
	if err != nil {
		t.Fatal(err)
	}
	pool := make([]int32, len(preds.where))
	for i := range pool {
		pool[i] = int32(i)
	}
	tr, err := makeTraffic(w, preds, pool, 1000, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	body, err := appendBody(seed, 0, preds.domains)
	if err != nil {
		t.Fatal(err)
	}
	ih := newInputHasher()
	ih.table(tbl)
	ih.traffic(preds, tr)
	ih.bytes(body)
	if got, want := len(preds.where), 6720; got != want {
		t.Errorf("Q has %d predicates, want %d", got, want)
	}
	return ih.sum()
}

func TestInputsDoNotDependOnCoreCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	one := hashOf(t, 7)
	runtime.GOMAXPROCS(2)
	two := hashOf(t, 7)
	if one != two {
		t.Errorf("inputs_sha256 differs between GOMAXPROCS 1 and 2: %s vs %s", one, two)
	}
	if other := hashOf(t, 8); other == one {
		t.Error("inputs_sha256 does not change with the seed")
	}
}

// declared reads the metric names BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, bf.Workloads[i].Name, w.name)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func checkMetrics(t *testing.T, mode string, got map[string]metric, want map[string]string, nonZero bool) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: declared metric %s was not reported", mode, name)
		case m.Unit != unit:
			t.Errorf("%s: %s reported in %q, declared in %q", mode, name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", mode, name, m.Value)
		case nonZero && m.Value == 0:
			t.Errorf("%s: end-to-end metric %s is 0", mode, name)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: reported metric %s is not declared in BENCHMARK.json", mode, name)
		}
	}
}

// TestSmokeEveryWorkload runs all five workloads, both modes, at 2 000 rows
// and half-second phases, and holds the output to BENCHMARK.json: every
// declared metric exactly once (result.set panics on a second report), in
// its declared unit, finite, and no failed operation.
func TestSmokeEveryWorkload(t *testing.T) {
	endToEnd, perLayer := declared(t)
	small := scale{smallRows: 2000, pieceRows: 1000, pieces: 2, checkCells: 20}
	for _, w := range workloads() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, err := runEndToEnd(w, 3, 0.5, small)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, "-trace 0", res.metrics, endToEnd, true)
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("-trace 0: %d of %d operations failed: %v", res.failed, res.attempted, res.problems)
			}
			tr := newTracer()
			res, err = runTraced(w, 3, 0.5, small, tr)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, "-trace 1", res.metrics, perLayer, false)
			if res.failed != 0 {
				t.Errorf("-trace 1: %d of %d operations failed: %v", res.failed, res.attempted, res.problems)
			}
			if len(tr.spans) == 0 {
				t.Error("-trace 1 recorded no spans")
			}
		})
	}
}
