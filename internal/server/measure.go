package server

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"github.com/tabula-db/tabula/internal/harness"
)

// The measurement loop behind BENCH_append.json (measure_append.go):
// timed passes reduced by min, with allocation deltas per operation.

const (
	passDuration = 350 * time.Millisecond
	passMinIters = 30
	passCount    = 3
)

// onePass times op for at least passDuration (and passMinIters
// iterations), reporting wall-clock and allocation deltas per operation.
func onePass(name string, op func(i int) error) (harness.ServeRow, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	n := 0
	for time.Since(start) < passDuration || n < passMinIters {
		if err := op(n); err != nil {
			return harness.ServeRow{}, err
		}
		n++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	perOp := float64(elapsed.Nanoseconds()) / float64(n)
	return harness.ServeRow{
		Name:        name,
		ReqPerSec:   1e9 / perOp,
		NsPerOp:     perOp,
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(n),
		Iterations:  n,
	}, nil
}

func warmup(op func(i int) error) error {
	for i := 0; i < 5; i++ { // prime pools and every rotating cell
		if err := op(i); err != nil {
			return err
		}
	}
	return nil
}

func minRow(best, row harness.ServeRow, first bool) harness.ServeRow {
	if first || row.NsPerOp < best.NsPerOp {
		return row
	}
	return best
}

// measureOp times op in passCount independent passes and reports the
// fastest — a dependency-free analogue of testing.B with `-count 3`
// reduced by min, so one pass hit by CPU-frequency ramp-up or a noisy
// neighbor can't skew the report. Allocation numbers come from the same
// pass as the timing.
func measureOp(name string, op func(i int) error) (harness.ServeRow, error) {
	if err := warmup(op); err != nil {
		return harness.ServeRow{}, err
	}
	var best harness.ServeRow
	for pass := 0; pass < passCount; pass++ {
		row, err := onePass(name, op)
		if err != nil {
			return harness.ServeRow{}, err
		}
		best = minRow(best, row, pass == 0)
	}
	return best, nil
}

// discardResponseWriter drops bodies so measurements see the serving
// path, not a response buffer.
type discardResponseWriter struct {
	h      http.Header
	status int
}

func (w *discardResponseWriter) Header() http.Header         { return w.h }
func (w *discardResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardResponseWriter) WriteHeader(s int)           { w.status = s }

func fprintf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}
