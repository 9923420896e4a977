package samgraph

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/geo"
	"github.com/tabula-db/tabula/internal/loss"
)

// buildFareTable returns a table whose rows are grouped into nCells
// populations with distinct fare levels; cells i and i+1 have close means
// so some cross-representation exists.
func buildFareTable(nCells, perCell int, seed int64) (*dataset.Table, []Vertex) {
	schema := dataset.Schema{{Name: "fare", Type: dataset.Float64}}
	tbl := dataset.NewTable(schema)
	r := rand.New(rand.NewSource(seed))
	vertices := make([]Vertex, nCells)
	for c := 0; c < nCells; c++ {
		level := 10 + float64(c/2)*10 // pairs of cells share a level
		for i := 0; i < perCell; i++ {
			row := int32(tbl.NumRows())
			tbl.MustAppendRow(dataset.FloatValue(level + r.Float64()))
			vertices[c].Rows = append(vertices[c].Rows, row)
		}
		// A small "sample": first 3 rows of the cell.
		vertices[c].SampleRows = append([]int32(nil), vertices[c].Rows[:3]...)
	}
	return tbl, vertices
}

func TestBuildGraphEdgesMatchDirectLoss(t *testing.T) {
	tbl, vertices := buildFareTable(8, 50, 71)
	f := loss.NewMean("fare")
	theta := 0.05
	g, err := Build(context.Background(), tbl, vertices, f, theta, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 8 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	// Verify every edge and non-edge against the direct definition.
	for v := 0; v < 8; v++ {
		edge := make(map[int]bool)
		for _, u := range g.Out[v] {
			edge[u] = true
		}
		if !edge[v] {
			t.Fatalf("missing self-edge at %d", v)
		}
		for u := 0; u < 8; u++ {
			if u == v {
				continue
			}
			want := f.Loss(dataset.NewView(tbl, vertices[u].Rows), dataset.NewView(tbl, vertices[v].SampleRows)) <= theta
			if edge[u] != want {
				t.Fatalf("edge %d->%d = %v, direct says %v", v, u, edge[u], want)
			}
		}
	}
	if g.PairsTested != 8*7 {
		t.Fatalf("PairsTested = %d, want 56", g.PairsTested)
	}
}

// Algebraic and generic join paths must build the same graph.
type opaque struct{ inner loss.Func }

func (o opaque) Name() string                       { return "opaque" }
func (o opaque) Unit() string                       { return o.inner.Unit() }
func (o opaque) Loss(raw, sam dataset.View) float64 { return o.inner.Loss(raw, sam) }

func TestBuildGraphGenericMatchesAlgebraic(t *testing.T) {
	tbl, vertices := buildFareTable(6, 40, 72)
	fa := loss.NewMean("fare")
	theta := 0.05
	ga, err := Build(context.Background(), tbl, vertices, fa, theta, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gg, err := Build(context.Background(), tbl, vertices, opaque{fa}, theta, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range ga.Out {
		if len(ga.Out[v]) != len(gg.Out[v]) {
			t.Fatalf("vertex %d: %v vs %v", v, ga.Out[v], gg.Out[v])
		}
		for i := range ga.Out[v] {
			if ga.Out[v][i] != gg.Out[v][i] {
				t.Fatalf("vertex %d: %v vs %v", v, ga.Out[v], gg.Out[v])
			}
		}
	}
}

func TestBuildGraphHeatmapLoss(t *testing.T) {
	schema := dataset.Schema{{Name: "pickup", Type: dataset.Point}}
	tbl := dataset.NewTable(schema)
	r := rand.New(rand.NewSource(73))
	var vertices []Vertex
	for c := 0; c < 5; c++ {
		var v Vertex
		cx, cy := -74+float64(c%2)*0.001, 40.6+float64(c%2)*0.001 // two tight clusters
		for i := 0; i < 30; i++ {
			row := int32(tbl.NumRows())
			tbl.MustAppendRow(dataset.PointValue(geo.Point{X: cx + r.Float64()*1e-4, Y: cy + r.Float64()*1e-4}))
			v.Rows = append(v.Rows, row)
		}
		v.SampleRows = v.Rows[:4]
		vertices = append(vertices, v)
	}
	f := loss.NewHeatmap("pickup", geo.Euclidean)
	g, err := Build(context.Background(), tbl, vertices, f, 0.001, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Cells 0, 2, 4 share one cluster and 1, 3 the other. The cover pass
	// visits the equal-sized cells in index order: 0 covers 2 and 4 but not
	// 1, which then covers 3 — one representative per cluster, after
	// 4 + 1 tests. The other cells keep their self-edges alone.
	want := [][]int{{0, 2, 4}, {1, 3}, {2}, {3}, {4}}
	if !reflect.DeepEqual(g.Out, want) {
		t.Fatalf("Out = %v, want %v", g.Out, want)
	}
	if g.PairsTested != 5 || g.CoverTests != 5 {
		t.Fatalf("PairsTested = %d, CoverTests = %d, want 5", g.PairsTested, g.CoverTests)
	}
	res := Select(g)
	if err := Verify(g, res); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Representatives, []int{0, 1}) {
		t.Fatalf("representatives = %v, want [0 1]", res.Representatives)
	}
}

func TestMaxCandidatesCapsJoin(t *testing.T) {
	tbl, vertices := buildFareTable(10, 30, 74)
	f := loss.NewMean("fare")
	g, err := Build(context.Background(), tbl, vertices, f, 0.05, BuildOptions{MaxCandidates: 3})
	if err != nil {
		t.Fatal(err)
	}
	if g.PairsTested > 10*3 {
		t.Fatalf("PairsTested = %d with cap 3", g.PairsTested)
	}
	// Even capped, the selection must still cover everything.
	res := Select(g)
	if err := Verify(g, res); err != nil {
		t.Fatal(err)
	}
}

func TestSelectPaperExample(t *testing.T) {
	// Figure 7's SamGraph: 8 samples; Sample2 represents {1,2,3,6,7},
	// Sample8 {3,7,8}, Sample5 {5,6}, Sample4 {4}. (1-indexed in the
	// paper; 0-indexed here.)
	g := &Graph{Out: [][]int{
		{0, 1},          // Sample1 -> 2
		{0, 1, 2, 5, 6}, // Sample2 -> 1,3,6,7 + self
		{1, 2},          // Sample3 -> 2 + self
		{3},             // Sample4
		{4, 5},          // Sample5 -> 6 + self
		{4, 5},          // Sample6 -> 5 + self
		{6, 7},          // Sample7 -> 8 + self
		{2, 6, 7},       // Sample8 -> 3,7 + self
	}}
	res := Select(g)
	if err := Verify(g, res); err != nil {
		t.Fatal(err)
	}
	// Greedy picks Sample2 (degree 5) first; the remaining uncovered
	// vertices {4, 5, 8} each need their own representative, all tied at
	// live degree 1 — the same four-sample set {2, 4, 5, 8} the paper
	// reports (order within ties is implementation-defined).
	if res.Representatives[0] != 1 {
		t.Fatalf("first pick = %d, want Sample2 (index 1)", res.Representatives[0])
	}
	got := make(map[int]bool)
	for _, v := range res.Representatives {
		got[v] = true
	}
	want := map[int]bool{1: true, 3: true, 4: true, 7: true}
	if len(got) != len(want) {
		t.Fatalf("representatives = %v, want set {1,3,4,7}", res.Representatives)
	}
	for v := range want {
		if !got[v] {
			t.Fatalf("representatives = %v, want set {1,3,4,7}", res.Representatives)
		}
	}
}

func TestSelectSingleton(t *testing.T) {
	g := &Graph{Out: [][]int{{0}}}
	res := Select(g)
	if len(res.Representatives) != 1 || res.AssignedTo[0] != 0 {
		t.Fatalf("%+v", res)
	}
}

func TestSelectNoEdgesKeepsAll(t *testing.T) {
	g := &Graph{Out: [][]int{{0}, {1}, {2}}}
	res := Select(g)
	if len(res.Representatives) != 3 {
		t.Fatalf("representatives = %v", res.Representatives)
	}
	if err := Verify(g, res); err != nil {
		t.Fatal(err)
	}
}

func TestSelectStarGraph(t *testing.T) {
	// Vertex 0 represents everyone: one representative suffices.
	out := [][]int{{0, 1, 2, 3, 4}}
	for v := 1; v < 5; v++ {
		out = append(out, []int{v})
	}
	g := &Graph{Out: out}
	res := Select(g)
	if len(res.Representatives) != 1 || res.Representatives[0] != 0 {
		t.Fatalf("%+v", res)
	}
}

// Property: on random graphs with self-edges, Select always yields a
// verified dominating set, and its size never exceeds the vertex count.
func TestSelectRandomGraphsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		g := &Graph{Out: make([][]int, n)}
		for v := 0; v < n; v++ {
			g.Out[v] = []int{v}
			for u := 0; u < n; u++ {
				if u != v && r.Float64() < 0.15 {
					g.Out[v] = append(g.Out[v], u)
				}
			}
		}
		res := Select(g)
		return Verify(g, res) == nil && len(res.Representatives) <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// End-to-end: selection over a real loss graph reduces persisted samples
// and every assignment satisfies the threshold.
func TestSelectionPreservesGuarantee(t *testing.T) {
	tbl, vertices := buildFareTable(12, 60, 75)
	f := loss.NewMean("fare")
	theta := 0.05
	g, err := Build(context.Background(), tbl, vertices, f, theta, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := Select(g)
	if err := Verify(g, res); err != nil {
		t.Fatal(err)
	}
	if len(res.Representatives) >= 12 {
		t.Fatalf("no sharing achieved: %d representatives", len(res.Representatives))
	}
	for u, rep := range res.AssignedTo {
		got := f.Loss(dataset.NewView(tbl, vertices[u].Rows), dataset.NewView(tbl, vertices[rep].SampleRows))
		if got > theta {
			t.Fatalf("cell %d assigned rep %d with loss %v > %v", u, rep, got, theta)
		}
	}
}
