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
	"github.com/tabula-db/tabula/internal/geo"
	"github.com/tabula-db/tabula/internal/loss"
)

func compileDSL(t testing.TB, body string, targets ...string) loss.Func {
	t.Helper()
	st, err := engine.Parse("CREATE AGGREGATE l(Raw, Sam) RETURN decimal AS BEGIN " + body + " END")
	if err != nil {
		t.Fatal(err)
	}
	f, err := loss.Compile(st.(*engine.CreateAggregate), targets, geo.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// mixedTable builds a table with two Float64 columns "x" and "y", a String
// column "s" and an Int64 column "k" in a shape that is awkward for the
// losses whose cell states are raw summaries, plus overlapping vertices.
// Whatever the shape, vertex 0 is a single-row cell sampled by that row,
// vertex 1 a single-row cell with an empty sample, and vertex 2 holds every
// one of its rows twice.
func mixedTable(r *rand.Rand, shape string, nRows, nVertices int) (*dataset.Table, []Vertex) {
	tbl := dataset.NewTable(dataset.Schema{
		{Name: "x", Type: dataset.Float64}, {Name: "y", Type: dataset.Float64},
		{Name: "s", Type: dataset.String}, {Name: "k", Type: dataset.Int64},
	})
	cats := []string{"a", "b", "c", "d", "e", "f"}
	for i := 0; i < nRows; i++ {
		var x, y float64
		switch shape {
		case "zero-mean":
			// Signs alternate by row, so a stride-1 or stride-3 cell of even
			// size sums to exactly zero: relMeanLoss' absolute branch.
			x = float64(1 - 2*(i%2))
			y = 2*x + r.NormFloat64()
		case "constant-x": // no regression line, in any cell or sample
			x, y = 5, r.Float64()*10
		case "duplicates":
			x, y = float64(r.Intn(4)), float64(r.Intn(3))
		default: // uniform
			x = r.Float64() * 40
			y = 0.5*x + r.NormFloat64()
		}
		tbl.MustAppendRow(dataset.FloatValue(x), dataset.FloatValue(y),
			dataset.StringValue(cats[r.Intn(len(cats))]), dataset.IntValue(int64(r.Intn(9))))
	}
	vertices := overlappingVertices(r, nRows, nVertices)
	vertices[0].Rows = vertices[0].Rows[:1]
	vertices[0].SampleRows = vertices[0].Rows
	vertices[1].Rows = vertices[1].Rows[:1]
	vertices[1].SampleRows = nil
	var twice []int32
	for _, row := range vertices[2].Rows {
		twice = append(twice, row, row)
	}
	vertices[2].Rows = twice
	return tbl, vertices
}

// The join must produce exactly the edges the loss definition gives on the
// raw rows, and those of the reference join that folds every pair — for
// every loss whose states are raw summaries, on degenerate data, at any
// candidate cap and worker count — folding each target once, and only for
// losses that offer the capability.
func TestSummaryJoinMatchesLossDefinition(t *testing.T) {
	const meanBody = "ABS(AVG(Raw) - AVG(Sam)) / AVG(Raw)"
	losses := []struct {
		name    string
		f       loss.Func
		summary bool
	}{
		{"mean", loss.NewMean("x"), true},
		{"mean-int64", loss.NewMean("k"), true},
		{"regression", loss.NewRegression("x", "y"), true},
		{"distinct-string", loss.NewDistinct("s"), true},
		{"distinct-int64", loss.NewDistinct("k"), true},
		{"topk", loss.NewTopK("y", 3), true},
		{"dsl-mean", compileDSL(t, meanBody, "y"), true},
		{"dsl-avgmindist", compileDSL(t, "AVGMINDIST(Raw, Sam)", "y"), false},
	}
	r := rand.New(rand.NewSource(15))
	for _, shape := range []string{"uniform", "zero-mean", "constant-x", "duplicates"} {
		tbl, vertices := mixedTable(r, shape, 120+r.Intn(200), 14+r.Intn(10))
		if shape == "zero-mean" {
			zero := false
			for _, v := range vertices {
				var sum float64
				for _, row := range v.Rows {
					sum += tbl.Floats(0)[row]
				}
				zero = zero || sum == 0
			}
			if !zero {
				t.Fatal("zero-mean shape has no cell whose raw mean is exactly zero")
			}
		}
		for _, tc := range losses {
			m := lossMatrix(tbl, vertices, tc.f)
			for _, q := range []float64{0.1, 0.5, 0.9} {
				theta := splitTheta(m, q)
				for _, maxCand := range []int{0, 3} {
					wantOut, wantPairs := wantGraph(vertices, m, theta, maxCand)
					opts := BuildOptions{MaxCandidates: maxCand}
					folded, err := buildSequential(tbl, vertices, tc.f, theta, opts)
					if err != nil {
						t.Fatal(err)
					}
					for _, workers := range []int{1, 4} {
						label := fmt.Sprintf("%s/%s theta=%g cap=%d workers=%d", shape, tc.name, theta, maxCand, workers)
						opts.Workers = workers
						g, err := Build(context.Background(), tbl, vertices, tc.f, theta, opts)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if g.PairsTested != wantPairs {
							t.Fatalf("%s: PairsTested = %d, want %d", label, g.PairsTested, wantPairs)
						}
						for v := range wantOut {
							if !reflect.DeepEqual(g.Out[v], wantOut[v]) {
								t.Fatalf("%s: Out[%d] = %v, loss definition gives %v", label, v, g.Out[v], wantOut[v])
							}
						}
						graphsEqual(t, label, g, folded)
						if want := int64(len(vertices)); tc.summary && g.Summaries != want || !tc.summary && g.Summaries != 0 {
							t.Fatalf("%s: Summaries = %d (summary-capable: %v, %d vertices)", label, g.Summaries, tc.summary, want)
						}
						if g.RowCosts != 0 {
							t.Fatalf("%s: RowCosts = %d for a loss without row costs", label, g.RowCosts)
						}
					}
				}
			}
		}
	}
}

// nanLoss is a loss made to reach each pair test of the join: the mean of
// the raw rows' "v" values, plus 0·Σ of the sample's — which is 0, or NaN
// when the sample holds a NaN. nanLoss is a bare loss.Func; nanBound adds
// loss.DryRunner and nanCosted per-row costs.
type nanLoss struct{}

func (nanLoss) Name() string { return "nan" }
func (nanLoss) Unit() string { return "v" }
func (nanLoss) Loss(raw, sam dataset.View) float64 {
	ev := nanEval{vals: raw.Table.Floats(0), sam: samTerm(sam)}
	st := ev.NewState()
	for i := 0; i < raw.Len(); i++ {
		ev.Add(st, raw.RowID(i))
	}
	return ev.Loss(st)
}

func samTerm(sam dataset.View) float64 {
	var s float64
	for _, v := range sam.FloatsOf(0) {
		s += v
	}
	return 0 * s
}

type nanBound struct{ nanLoss }

func (nanBound) BindSample(tbl *dataset.Table, sam dataset.View) (loss.CellEvaluator, error) {
	return nanEval{vals: tbl.Floats(0), sam: samTerm(sam)}, nil
}

type nanCosted struct{ nanLoss }

func (nanCosted) BindSample(tbl *dataset.Table, sam dataset.View) (loss.CellEvaluator, error) {
	return nanCoster{nanEval{vals: tbl.Floats(0), sam: samTerm(sam)}}, nil
}

type nanState struct {
	sum float64
	n   int
}

type nanEval struct {
	vals []float64
	sam  float64
}

func (e nanEval) NewState() loss.CellState { return &nanState{} }
func (e nanEval) Add(st loss.CellState, row int32) {
	s := st.(*nanState)
	s.sum += e.vals[row] + e.sam
	s.n++
}
func (e nanEval) Merge(dst, src loss.CellState) {
	d, s := dst.(*nanState), src.(*nanState)
	d.sum += s.sum
	d.n += s.n
}
func (e nanEval) Loss(st loss.CellState) float64 {
	s := st.(*nanState)
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}
func (e nanEval) StateBytes() int64 { return 16 }

type nanCoster struct{ nanEval }

func (e nanCoster) RowCost(row int32) float64 { return e.vals[row] + e.sam }

// A NaN loss — a NaN in a target's rows or in a candidate's sample, or a
// DSL body that comes to 0/0 — bounds nothing, so it is never an edge, on
// any of the join's three pair tests or in the cover pass. Only the
// self-edges remain.
func TestNaNLossIsNeverAnEdge(t *testing.T) {
	tbl := dataset.NewTable(dataset.Schema{{Name: "v", Type: dataset.Float64}})
	var vertices []Vertex
	for c := 0; c < 6; c++ {
		var rows []int32
		for i := 0; i < 8; i++ {
			rows = append(rows, int32(tbl.NumRows()))
			tbl.MustAppendRow(dataset.FloatValue(10 + float64(i%3)))
		}
		vertices = append(vertices, Vertex{Rows: rows, SampleRows: rows[:3]})
	}
	nan := int32(tbl.NumRows())
	tbl.MustAppendRow(dataset.FloatValue(math.NaN()))
	const nanCell, nanSam = 2, 4
	// The NaN sits in the middle of nanCell's rows, not in its sample; and
	// in nanSam's sample, not in its rows.
	vertices[nanCell].Rows = append(append(append([]int32(nil), vertices[nanCell].Rows[:4]...), nan), vertices[nanCell].Rows[4:]...)
	vertices[nanSam].SampleRows = append([]int32{nan}, vertices[nanSam].SampleRows...)

	losses := map[string]loss.Func{
		"summary (mean)":   loss.NewMean("v"),
		"Func.Loss (mean)": opaque{loss.NewMean("v")},
		"Func.Loss":        nanLoss{},
		"fold":             nanBound{},
	}
	for name, f := range losses {
		for _, workers := range []int{1, 3} {
			g, err := Build(context.Background(), tbl, vertices, f, 100, BuildOptions{Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for v, out := range g.Out {
				var want []int
				for u := range vertices {
					if u == v || (v != nanSam && u != nanCell) {
						want = append(want, u)
					}
				}
				if !reflect.DeepEqual(out, want) {
					t.Errorf("%s workers=%d: Out[%d] = %v, want %v (cell %d holds a NaN, sample %d holds a NaN)",
						name, workers, v, out, want, nanCell, nanSam)
				}
			}
			if err := Verify(g, Select(g)); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}

	// The cover pass tests a cell only against earlier representatives, so
	// each NaN must meet one: two healthy rows make nanSam the first cell
	// visited, whose sample then covers nothing; or cell 0 the first, whose
	// sample covers every cell but nanCell.
	for _, tc := range []struct {
		first int
		want  [][]int
	}{
		{nanSam, [][]int{{0}, {1}, {0, 1, 2, 3, 5}, {3}, {4}, {5}}},
		{0, [][]int{{0, 1, 3, 4, 5}, {1}, {2}, {3}, {4}, {5}}},
	} {
		cv := append([]Vertex(nil), vertices...)
		cv[tc.first].Rows = append(append([]int32(nil), cv[tc.first].Rows...), vertices[5].Rows[:2]...)
		m := lossMatrix(tbl, cv, nanCosted{})
		for _, workers := range []int{1, 3} {
			label := fmt.Sprintf("row costs, cell %d first, workers=%d", tc.first, workers)
			g, err := Build(context.Background(), tbl, cv, nanCosted{}, 100, BuildOptions{Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !reflect.DeepEqual(g.Out, tc.want) {
				t.Errorf("%s: Out = %v, want %v (cell %d holds a NaN, sample %d holds a NaN)", label, g.Out, tc.want, nanCell, nanSam)
			}
			checkCover(t, label, g, cv, m, 100, 0)
		}
	}

	// Function 1 as a DSL body is 0/0 when raw and sample means are both
	// zero — where the built-in loss switches to the absolute difference —
	// and x/0 towards a zero-mean cell from any other sample.
	zt := dataset.NewTable(dataset.Schema{{Name: "v", Type: dataset.Float64}})
	for _, v := range []float64{1, -1, 2, -2, 3, -3, 5, 5} {
		zt.MustAppendRow(dataset.FloatValue(v))
	}
	zv := []Vertex{
		{Rows: []int32{0, 1}, SampleRows: []int32{0, 1}},
		{Rows: []int32{2, 3, 4, 5}, SampleRows: []int32{2, 3}},
		{Rows: []int32{6, 7}, SampleRows: []int32{6}},
	}
	for _, tc := range []struct {
		f    loss.Func
		want [][]int
	}{
		{loss.NewMean("v"), [][]int{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}}},
		{compileDSL(t, "ABS(AVG(Raw) - AVG(Sam)) / AVG(Raw)", "v"), [][]int{{0, 2}, {1, 2}, {2}}},
	} {
		g, err := Build(context.Background(), zt, zv, tc.f, 100, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g.Out, tc.want) {
			t.Errorf("%s on zero-mean cells: Out = %v, want %v", tc.f.Name(), g.Out, tc.want)
		}
	}
}

// The pair test of the row-cost path must reject on a NaN cost wherever it
// falls among the rows, including last.
func TestCostMemoRejectsNaN(t *testing.T) {
	vals := []float64{1, 2, math.NaN(), 3}
	m := newCostMemo()
	m.bind(nanCoster{nanEval{vals: vals}}, 0)
	for _, rows := range [][]int32{{2}, {0, 2, 1}, {0, 1, 3, 2}} {
		if !m.exceeds(rows, 1e9) {
			t.Errorf("rows %v hold a NaN cost, yet the pair was accepted", rows)
		}
	}
	if m.exceeds([]int32{0, 1, 3}, 2) || !m.exceeds([]int32{0, 1, 3}, 1.9) {
		t.Error("mean cost of rows 0, 1, 3 is 2")
	}
}

// joinBench runs the exhaustive join of f on BenchmarkSamGraphJoinHeatmap's
// input.
func joinBench(b *testing.B, f loss.Func, theta float64) {
	tbl, vertices := joinBenchInput()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := Build(context.Background(), tbl, vertices, f, theta, BuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(g.PairsTested), "pairs")
			b.ReportMetric(float64(g.Summaries), "summaries")
			b.ReportMetric(float64(g.PairsPruned), "pruned")
		}
	}
}

func BenchmarkSamGraphJoinMean(b *testing.B) { joinBench(b, loss.NewMean("v"), 0.05) }

// The regression benchmark fits "v" on itself: the table shape has one
// numeric column, and the join's cost does not depend on the fitted values.
func BenchmarkSamGraphJoinRegression(b *testing.B) {
	joinBench(b, loss.NewRegression("v", "v"), 5)
}
