package samgraph

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/engine"
	"github.com/tabula-db/tabula/internal/loss"
)

// keyRangeThetas are the thresholds the ranged join is checked at: exact
// equality, a relative error far below any margin, the benchmark's, just
// under the mean's two-ray limit, at it and past it.
var keyRangeThetas = []float64{0, 1e-12, 0.05, 0.999999, 1, 2}

// ulpsAround returns x and the floats up to k steps below and above it.
func ulpsAround(x float64, k int) []float64 {
	out := []float64{x}
	lo, hi := x, x
	for i := 0; i < k; i++ {
		lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
		out = append(out, lo, hi)
	}
	return out
}

// meanKeyTable builds single-column cells for the mean loss whose raw
// averages sit within four ulps of b/(1+θ) and b/(1−θ) for each sample
// average b, beside cells the key cannot bound: zero averages, NaN and
// ±Inf values, an empty cell, and samples that are empty or not finite.
func meanKeyTable(r *rand.Rand, theta float64) (*dataset.Table, []Vertex) {
	tbl := dataset.NewTable(dataset.Schema{{Name: "v", Type: dataset.Float64}})
	row := func(vals ...float64) []int32 {
		var rows []int32
		for _, v := range vals {
			rows = append(rows, int32(tbl.NumRows()))
			tbl.MustAppendRow(dataset.FloatValue(v))
		}
		return rows
	}
	var vertices []Vertex
	cell := func(rows, sample []int32) { vertices = append(vertices, Vertex{Rows: rows, SampleRows: sample}) }
	bs := []float64{1, 37.25, -2.5, 1 + r.Float64()*100, -r.Float64() * 1e6, 3e-7, 0, theta / 2, -theta / 3}
	for _, b := range bs {
		sam := row(b)
		cell(sam, sam)
		ends := []float64{b / (1 + theta)}
		if theta < 1 {
			ends = append(ends, b/(1-theta))
		}
		for _, e := range ends {
			for _, a := range ulpsAround(e, 4) {
				rows := row(a)
				cell(rows, rows)
			}
		}
	}
	for i := 0; i < 12; i++ { // mixed signs, averages of either sign
		rows := row(r.Float64()*20-10, r.Float64()*20-10, r.Float64()*20-10)
		cell(rows, rows[:1+r.Intn(3)])
	}
	zero := row(3, -3)
	cell(zero, zero[:1])
	cell(row(-0.5, 0.5, 1, -1), zero)
	cell(row(math.NaN()), nil)
	cell(row(math.Inf(1)), row(2))
	cell(row(1, math.Inf(-1)), row(-4))
	cell(nil, nil)
	cell(row(5), row(math.NaN()))
	cell(row(6), row(math.Inf(1)))
	cell(row(7, 8), nil)
	return tbl, vertices
}

// angle is the regression angle of the two points (0, 0) and (1, t), as
// the loss computes it from their sufficient statistics.
func angle(t float64) float64 {
	st := engine.RegressionState{}
	st.AddXY(0, 0)
	st.AddXY(1, t)
	return st.Angle()
}

// regKeyTable builds two-point cells for the regression loss whose raw
// angles straddle s−θ and s+θ for each sample angle s, beside cells whose
// line is undefined and samples without a line.
func regKeyTable(r *rand.Rand, theta float64) (*dataset.Table, []Vertex) {
	tbl := dataset.NewTable(dataset.Schema{{Name: "x", Type: dataset.Float64}, {Name: "y", Type: dataset.Float64}})
	add := func(x, y float64) int32 {
		tbl.MustAppendRow(dataset.FloatValue(x), dataset.FloatValue(y))
		return int32(tbl.NumRows() - 1)
	}
	origin := add(0, 0)
	line := func(t float64) []int32 { return []int32{origin, add(1, t)} }
	var vertices []Vertex
	cell := func(rows, sample []int32) { vertices = append(vertices, Vertex{Rows: rows, SampleRows: sample}) }
	// Sample angles near ±θ put one end of the range near 0, where its
	// ulps are far finer than θ's.
	slopes := []float64{1, -0.3, 2.7, r.NormFloat64(), 1e6, -1e300, 0}
	for _, near := range []float64{-0.8 * theta, 0.7 * theta} {
		slopes = append(slopes, math.Tan(near*math.Pi/180))
	}
	for _, ts := range slopes {
		sam := line(ts)
		cell(sam, sam)
		s := angle(ts)
		for _, end := range []float64{s - theta, s + theta} {
			if math.Abs(end) >= 90 {
				continue
			}
			// Slopes a few ulps either side of tan(end) give angles within
			// an ulp or two of end, on both sides of it.
			for _, t := range ulpsAround(math.Tan(end*math.Pi/180), 6) {
				rows := line(t)
				cell(rows, rows)
			}
		}
	}
	for i := 0; i < 8; i++ {
		rows := line(r.NormFloat64() * 3)
		cell(rows, rows)
	}
	one := []int32{add(1, 2)}
	cell(one, one)                           // one point: no line, loss 0
	cell([]int32{add(1, 1), add(1, 5)}, nil) // constant x: no line
	cell(line(math.Inf(1)), line(1))         // an infinite statistic: no line
	cell(line(0.5), one)                     // a sample without a line
	cell(nil, line(2))
	return tbl, vertices
}

// The ranged join must give exactly the edges and pair counts of the
// sequential join that folds and scores every pair, on keys placed where
// rounding decides, for both losses with the capability — and it must
// actually prune.
func TestKeyRangeNeverDropsAnEdge(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	for _, tc := range []struct {
		name  string
		f     loss.Func
		table func(*rand.Rand, float64) (*dataset.Table, []Vertex)
	}{
		{"mean", loss.NewMean("v"), meanKeyTable},
		{"regression", loss.NewRegression("x", "y"), regKeyTable},
	} {
		for _, theta := range keyRangeThetas {
			tbl, vertices := tc.table(r, theta)
			m := lossMatrix(tbl, vertices, tc.f)
			for _, maxCand := range []int{0, 3} {
				opts := BuildOptions{MaxCandidates: maxCand}
				want, err := buildSequential(tbl, vertices, tc.f, theta, opts)
				if err != nil {
					t.Fatal(err)
				}
				wantOut, wantPairs := wantGraph(vertices, m, theta, maxCand)
				if want.PairsTested != wantPairs || !reflect.DeepEqual(want.Out, wantOut) {
					t.Fatalf("%s theta=%g cap=%d: the sequential fold disagrees with the loss definition", tc.name, theta, maxCand)
				}
				for _, workers := range []int{1, 4} {
					label := fmt.Sprintf("%s theta=%g cap=%d workers=%d", tc.name, theta, maxCand, workers)
					opts.Workers = workers
					g, err := Build(context.Background(), tbl, vertices, tc.f, theta, opts)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					graphsEqual(t, label, g, want)
					for v, out := range g.Out {
						if cap(out) != len(out) {
							t.Fatalf("%s: Out[%d] has capacity %d for %d edges", label, v, cap(out), len(out))
						}
					}
					if g.PairsPruned < 0 || g.PairsPruned > g.PairsTested {
						t.Fatalf("%s: PairsPruned = %d of %d pairs", label, g.PairsPruned, g.PairsTested)
					}
					if maxCand == 0 && theta > 0 && theta < 1 && g.PairsPruned == 0 {
						t.Fatalf("%s: no pair was pruned", label)
					}
				}
			}
		}
	}
}

// Losses without the capability prune nothing.
func TestKeyRangeOnlyForKeyRangers(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	tbl, vertices := mixedTable(r, "uniform", 200, 20)
	for _, f := range []loss.Func{loss.NewDistinct("s"), loss.NewTopK("y", 3), opaque{loss.NewMean("x")}} {
		g, err := Build(context.Background(), tbl, vertices, f, 0.5, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if g.PairsPruned != 0 {
			t.Errorf("%s: PairsPruned = %d without the capability", f.Name(), g.PairsPruned)
		}
	}
}
