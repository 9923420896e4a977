package samgraph

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/geo"
	"github.com/tabula-db/tabula/internal/loss"
)

// geoTable builds a table with a POINT column "p" and a numeric column "v"
// in one of several awkward shapes, plus overlapping vertices over it —
// cells of different cuboids share raw rows, which is what the join's cost
// memo feeds on. Samples are subsets of their vertex's rows of size 0
// (empty), 1 or a few.
func geoTable(r *rand.Rand, shape string, nRows, nVertices int) (*dataset.Table, []Vertex) {
	tbl := dataset.NewTable(dataset.Schema{{Name: "p", Type: dataset.Point}, {Name: "v", Type: dataset.Float64}})
	for i := 0; i < nRows; i++ {
		var x, y, v float64
		switch shape {
		case "clustered":
			c := float64(r.Intn(4))
			x, y = 20+c*0.2+r.NormFloat64()*0.01, 50+c*0.1+r.NormFloat64()*0.01
			v = c*10 + r.Float64()
		case "duplicates":
			x, y = 20+float64(r.Intn(5))*0.05, 50+float64(r.Intn(5))*0.05
			v = float64(r.Intn(6))
		case "all-equal":
			x, y, v = 20.5, 50.5, 7
		default: // uniform
			x, y = 20+r.Float64(), 50+r.Float64()
			v = r.Float64() * 40
		}
		tbl.MustAppendRow(dataset.PointValue(geo.Point{X: x, Y: y}), dataset.FloatValue(v))
	}
	return tbl, overlappingVertices(r, nRows, nVertices)
}

// overlappingVertices draws vertices over a table of nRows rows: each a
// contiguous-ish stride of rows, so neighbours overlap heavily, with a
// sample that is a subset of its rows of size 0 (empty), 1 or a few.
func overlappingVertices(r *rand.Rand, nRows, nVertices int) []Vertex {
	vertices := make([]Vertex, nVertices)
	for i := range vertices {
		size := 1 + r.Intn(nRows/2)
		start := r.Intn(nRows)
		step := 1 + r.Intn(3)
		seen := make(map[int32]bool)
		for k := 0; k < size; k++ {
			row := int32((start + k*step) % nRows)
			if !seen[row] {
				seen[row] = true
				vertices[i].Rows = append(vertices[i].Rows, row)
			}
		}
		sort.Slice(vertices[i].Rows, func(a, b int) bool { return vertices[i].Rows[a] < vertices[i].Rows[b] })
		var k int
		switch r.Intn(5) {
		case 0:
			k = 0 // empty-sample vertex
		case 1:
			k = 1
		default:
			k = 1 + r.Intn(6)
		}
		for _, j := range r.Perm(len(vertices[i].Rows)) {
			if len(vertices[i].SampleRows) == k {
				break
			}
			vertices[i].SampleRows = append(vertices[i].SampleRows, vertices[i].Rows[j])
		}
	}
	return vertices
}

// lossMatrix evaluates the definition, loss(u.Rows, v.SampleRows), for every
// ordered pair straight from the raw rows.
func lossMatrix(tbl *dataset.Table, vertices []Vertex, f loss.Func) [][]float64 {
	m := make([][]float64, len(vertices))
	for v := range vertices {
		m[v] = make([]float64, len(vertices))
		sam := dataset.NewView(tbl, vertices[v].SampleRows)
		for u := range vertices {
			m[v][u] = f.Loss(dataset.NewView(tbl, vertices[u].Rows), sam)
		}
	}
	return m
}

// splitTheta picks a threshold strictly between two distinct loss values
// near the q-quantile of the off-diagonal losses, so some pairs are edges,
// some are not, and none sits on the threshold itself.
func splitTheta(m [][]float64, q float64) float64 {
	var vals []float64
	for v := range m {
		for u, l := range m[v] {
			if u != v && !math.IsInf(l, 0) {
				vals = append(vals, l)
			}
		}
	}
	sort.Float64s(vals)
	if len(vals) == 0 {
		return 1
	}
	for i := int(q * float64(len(vals)-1)); i+1 < len(vals); i++ {
		if vals[i+1] > vals[i] {
			return (vals[i] + vals[i+1]) / 2
		}
	}
	return vals[len(vals)-1] + 1
}

// wantGraph derives the expected join output from the loss matrix alone:
// the MaxCandidates admission rule applied to the candidate order, and an
// edge wherever the definition says loss ≤ theta.
func wantGraph(vertices []Vertex, m [][]float64, theta float64, maxCand int) ([][]int, int64) {
	n := len(vertices)
	out := make([][]int, n)
	for v := range out {
		out[v] = []int{v}
	}
	var pairs int64
	order := buildOrder(vertices)
	for u := 0; u < n; u++ {
		tested := 0
		for _, v := range order {
			if v == u || (maxCand > 0 && tested >= maxCand) {
				continue
			}
			tested++
			pairs++
			if m[v][u] <= theta {
				out[v] = append(out[v], u)
			}
		}
	}
	for v := range out {
		sort.Ints(out[v])
	}
	return out, pairs
}

// wantCover derives the cover pass's output from the loss matrix alone, by
// the online pass: visit the cells by descending population (index
// ascending among ties) and test each against the representatives chosen
// so far, in the order they were chosen and at most maxCand of them (0: all),
// until one's loss is within theta; a cell none covers becomes a
// representative. It returns the cover edges (each representative with the
// cells assigned to it, ascending), the representatives in creation order
// and the tests made.
func wantCover(vertices []Vertex, m [][]float64, theta float64, maxCand int) ([][]int, []int, int64) {
	n := len(vertices)
	visit := make([]int, n)
	for i := range visit {
		visit[i] = i
	}
	sort.SliceStable(visit, func(a, b int) bool { return len(vertices[visit[a]].Rows) > len(vertices[visit[b]].Rows) })
	out := make([][]int, n)
	for v := range out {
		out[v] = []int{v}
	}
	var reps []int
	var tests int64
	for _, u := range visit {
		covered := false
		for k, r := range reps {
			if maxCand > 0 && k == maxCand {
				break
			}
			tests++
			if m[r][u] <= theta {
				out[r] = append(out[r], u)
				covered = true
				break
			}
		}
		if !covered {
			reps = append(reps, u)
		}
	}
	for v := range out {
		sort.Ints(out[v])
	}
	return out, reps, tests
}

// checkCover requires g to be the cover wantCover derives from the loss
// matrix, with every edge within theta by the definition, and Select on it
// to keep exactly the cover's representatives as a verified dominating set.
func checkCover(t *testing.T, label string, g *Graph, vertices []Vertex, m [][]float64, theta float64, maxCand int) {
	t.Helper()
	wantOut, wantReps, wantTests := wantCover(vertices, m, theta, maxCand)
	if g.PairsTested != wantTests || g.CoverTests != wantTests {
		t.Fatalf("%s: PairsTested = %d, CoverTests = %d, the online cover makes %d tests", label, g.PairsTested, g.CoverTests, wantTests)
	}
	if !reflect.DeepEqual(g.Out, wantOut) {
		t.Fatalf("%s: Out = %v, the online cover over the loss definition gives %v", label, g.Out, wantOut)
	}
	for v, out := range g.Out {
		for _, u := range out {
			if u != v && !(m[v][u] <= theta) {
				t.Fatalf("%s: edge %d→%d has loss %v > theta %v", label, v, u, m[v][u], theta)
			}
		}
	}
	sel := Select(g)
	if err := Verify(g, sel); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	got := append([]int(nil), sel.Representatives...)
	want := append([]int(nil), wantReps...)
	sort.Ints(got)
	sort.Ints(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Select keeps %v, the cover's representatives are %v", label, got, want)
	}
}

// For losses with per-row costs Build runs the cover pass. It must give
// exactly the online cover the loss definition yields on the raw rows — on
// degenerate data, at any candidate cap — and the same edges and counters
// at every worker count; reusing row costs within a block must not change
// how many pairs it reports testing.
func TestRowCostJoinMatchesLossDefinition(t *testing.T) {
	losses := map[string]loss.Func{
		"heatmap-euclidean": loss.NewHeatmap("p", geo.Euclidean),
		"heatmap-manhattan": loss.NewHeatmap("p", geo.Manhattan),
		"heatmap-haversine": loss.NewHeatmap("p", geo.Haversine),
		"histogram":         loss.NewHistogram("v"),
	}
	r := rand.New(rand.NewSource(13))
	for _, shape := range []string{"uniform", "clustered", "duplicates", "all-equal"} {
		tbl, vertices := geoTable(r, shape, 120+r.Intn(200), 14+r.Intn(10))
		for name, f := range losses {
			m := lossMatrix(tbl, vertices, f)
			var reused int64
			for _, q := range []float64{0.1, 0.5, 0.9} {
				theta := splitTheta(m, q)
				for _, maxCand := range []int{0, 3} {
					var first *Graph
					for _, workers := range []int{1, 4} {
						label := fmt.Sprintf("%s/%s theta=%g cap=%d workers=%d", shape, name, theta, maxCand, workers)
						g, err := Build(context.Background(), tbl, vertices, f, theta, BuildOptions{MaxCandidates: maxCand, Workers: workers})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						checkCover(t, label, g, vertices, m, theta, maxCand)
						if g.RowCosts <= 0 || g.RowCostsReused < 0 || g.RowCostsReused > g.RowCosts {
							t.Fatalf("%s: RowCosts = %d, RowCostsReused = %d", label, g.RowCosts, g.RowCostsReused)
						}
						if first == nil {
							first = g
						} else if g.RowCosts != first.RowCosts || g.RowCostsReused != first.RowCostsReused {
							t.Fatalf("%s: cost counters %d/%d differ from workers=1's %d/%d", label,
								g.RowCosts, g.RowCostsReused, first.RowCosts, first.RowCostsReused)
						}
						reused += g.RowCostsReused
					}
				}
			}
			if reused == 0 {
				t.Fatalf("%s/%s: overlapping vertices never reused a row cost", shape, name)
			}
		}
	}
}

// Counters and edges must not depend on how a representative's targets
// are dealt to workers even when they span many blocks.
func TestRowCostCoverBlocksWorkerIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	tbl, vertices := geoTable(r, "clustered", 600, 5*coverBlock/2)
	f := loss.NewHeatmap("p", geo.Euclidean)
	m := lossMatrix(tbl, vertices, f)
	theta := splitTheta(m, 0.3)
	var first *Graph
	for _, workers := range []int{1, 2, 4} {
		label := fmt.Sprintf("workers=%d", workers)
		g, err := Build(context.Background(), tbl, vertices, f, theta, BuildOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		checkCover(t, label, g, vertices, m, theta, 0)
		if first == nil {
			first = g
		} else if g.RowCosts != first.RowCosts || g.RowCostsReused != first.RowCostsReused {
			t.Fatalf("%s: cost counters %d/%d differ from workers=1's %d/%d", label,
				g.RowCosts, g.RowCostsReused, first.RowCosts, first.RowCostsReused)
		}
	}
	if first.PairsTested <= coverBlock {
		t.Fatalf("%d cover tests never span a second block", first.PairsTested)
	}
}

// Rows whose ids collide in the memo (equal modulo its size) evict each
// other; that may only cost a recomputation, never a wrong sum.
func TestRowCostMemoCollisions(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	tbl := dataset.NewTable(dataset.Schema{{Name: "p", Type: dataset.Point}})
	n := memoSlots + 400
	for i := 0; i < n; i++ {
		tbl.MustAppendRow(dataset.PointValue(geo.Point{X: r.Float64(), Y: r.Float64()}))
	}
	vertices := make([]Vertex, 6)
	for i := range vertices {
		for k := 0; k < 150; k++ {
			low := int32(r.Intn(400))
			vertices[i].Rows = append(vertices[i].Rows, low, low+memoSlots)
		}
		vertices[i].SampleRows = vertices[i].Rows[:4+i]
	}
	f := loss.NewHeatmap("p", geo.Euclidean)
	m := lossMatrix(tbl, vertices, f)
	for _, q := range []float64{0.2, 0.5, 0.8} {
		theta := splitTheta(m, q)
		g, err := Build(context.Background(), tbl, vertices, f, theta, BuildOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		checkCover(t, fmt.Sprintf("colliding rows, theta=%g", theta), g, vertices, m, theta, 0)
	}
}

// cancellingLoss is a heatmap whose evaluators cancel a context after a
// given number of row costs, to stop a cover pass in the middle.
type cancellingLoss struct {
	*loss.Heatmap
	calls  *atomic.Int64
	after  int64
	cancel context.CancelFunc
}

func (l cancellingLoss) BindSample(tbl *dataset.Table, sam dataset.View) (loss.CellEvaluator, error) {
	ev, err := l.Heatmap.BindSample(tbl, sam)
	if err != nil {
		return nil, err
	}
	return cancellingCoster{ev.(loss.RowCoster), l}, nil
}

type cancellingCoster struct {
	loss.RowCoster
	l cancellingLoss
}

func (c cancellingCoster) RowCost(row int32) float64 {
	if c.l.calls.Add(1) == c.l.after {
		c.l.cancel()
	}
	return c.RowCoster.RowCost(row)
}

// A context cancelled in the middle of the cover pass aborts it with
// ctx.Err(), at any worker count.
func TestRowCostCoverCancelled(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	tbl, vertices := geoTable(r, "uniform", 400, 3*coverBlock)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		f := cancellingLoss{Heatmap: loss.NewHeatmap("p", geo.Euclidean), calls: new(atomic.Int64), after: 500, cancel: cancel}
		g, err := Build(ctx, tbl, vertices, f, 1e-9, BuildOptions{Workers: workers})
		cancel()
		if err != context.Canceled {
			t.Fatalf("workers=%d: Build = %v, %v after a cancel at row cost %d of %d, want context.Canceled",
				workers, g, err, f.after, f.calls.Load())
		}
	}
}

// joinBenchInput is the shape the repository benchmark builds (many small
// overlapping cells, samples of a few dozen tuples) at reduced size, shared
// by the join benchmarks so they are comparable.
func joinBenchInput() (*dataset.Table, []Vertex) {
	r := rand.New(rand.NewSource(41))
	tbl, vertices := geoTable(r, "clustered", 12000, 300)
	for i := range vertices {
		if len(vertices[i].Rows) > 600 {
			vertices[i].Rows = vertices[i].Rows[:600]
			vertices[i].SampleRows = vertices[i].Rows[:1+i%40]
		}
	}
	return tbl, vertices
}

// BenchmarkSamGraphJoinHeatmap runs the heatmap cover pass.
func BenchmarkSamGraphJoinHeatmap(b *testing.B) {
	tbl, vertices := joinBenchInput()
	f := loss.NewHeatmap("p", geo.Euclidean)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := Build(context.Background(), tbl, vertices, f, 0.002, BuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(g.PairsTested), "pairs")
			b.ReportMetric(float64(g.RowCostsReused)/float64(g.RowCosts), "reuse-ratio")
		}
	}
}
