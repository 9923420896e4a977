package loss

import (
	"math"
	"testing"

	"github.com/tabula-db/tabula/internal/engine"
)

// slopeState is the regression state of the points (0, 0) and (1, t),
// whose slope is exactly t.
func slopeState(t float64) *engine.RegressionState {
	st := &engine.RegressionState{}
	st.AddXY(0, 0)
	st.AddXY(1, t)
	return st
}

// nearby returns x and the floats up to four steps either side of it.
func nearby(x float64) []float64 {
	out := []float64{x}
	lo, hi := x, x
	for i := 0; i < 4; i++ {
		lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
		out = append(out, lo, hi)
	}
	return out
}

// checkKeyRange fails when st's finite key lies outside kr's range although
// its loss is within theta — the one thing a KeyRange may never do.
func checkKeyRange(t *testing.T, kr KeyRanger, st CellState, theta float64) {
	t.Helper()
	lo, hi := kr.KeyRange(theta)
	if math.IsNaN(lo) || math.IsNaN(hi) {
		t.Fatalf("KeyRange(%g) = [%g, %g]", theta, lo, hi)
	}
	k := kr.Key(st)
	if math.IsNaN(k) || math.IsInf(k, 0) || (lo <= k && k <= hi) {
		return
	}
	if l := kr.Loss(st); l <= theta {
		t.Fatalf("key %g (%x) outside KeyRange(%g) = [%g, %g], yet loss %g is within it", k, math.Float64bits(k), theta, lo, hi, l)
	}
}

// FuzzKeyRange checks the KeyRanger contract of the mean and regression
// evaluators on fuzzed sums, counts, slopes and thresholds: for the fuzzed
// raw state, and for raw states whose key is within four ulps of either
// end of the range and of the ends before widening.
func FuzzKeyRange(f *testing.F) {
	f.Add(10.0, uint16(2), 9.0, uint16(1), 0.05, 1.0, 1.1)
	f.Add(-3.0, uint16(3), -2.0, uint16(2), 0.999999, -0.5, -0.4)
	f.Add(0.0, uint16(2), 1e-12, uint16(1), 1e-12, 0.0, 1e-14)
	f.Add(1.0, uint16(0), 0.0, uint16(0), 0.0, math.Inf(1), math.NaN())
	f.Add(5e-300, uint16(1), 4e-300, uint16(1), 2.0, 1e300, -1e300)
	f.Add(7.0, uint16(1), 7.0, uint16(1), 1.0, 0.0013, -0.0011)
	f.Fuzz(func(t *testing.T, rawSum float64, rawN uint16, samSum float64, samN uint16, theta, rawSlope, samSlope float64) {
		mean := &meanCellEvaluator{samSum: samSum, samN: int64(samN)}
		checkKeyRange(t, mean, &meanCellState{sum: rawSum, n: int64(rawN)}, theta)
		lo, hi := mean.KeyRange(theta)
		ends := []float64{lo, hi}
		if samN > 0 {
			b := samSum / float64(samN)
			ends = append(ends, b/(1+theta), b/(1-theta))
		}
		for _, e := range ends {
			for _, a := range nearby(e) {
				checkKeyRange(t, mean, &meanCellState{sum: a, n: 1}, theta)
			}
		}

		reg := &regCellEvaluator{sam: slopeState(samSlope)}
		checkKeyRange(t, reg, slopeState(rawSlope), theta)
		s := reg.sam.Angle()
		lo, hi = reg.KeyRange(theta)
		for _, e := range []float64{lo, hi, s - theta, s + theta} {
			if !(math.Abs(e) < 90) {
				continue
			}
			// Slopes a few ulps from tan(e) have angles an ulp or two apart
			// around e.
			for _, slope := range nearby(math.Tan(e * math.Pi / 180)) {
				checkKeyRange(t, reg, slopeState(slope), theta)
			}
		}
	})
}
