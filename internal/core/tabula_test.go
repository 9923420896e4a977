package core

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/engine"
	"github.com/tabula-db/tabula/internal/geo"
	"github.com/tabula-db/tabula/internal/loss"
)

// taxiTable builds a miniature running-example table: 3 categorical
// attributes with a heavily skewed sub-population so iceberg cells exist.
func taxiTable(n int, seed int64) *dataset.Table {
	schema := dataset.Schema{
		{Name: "distance", Type: dataset.String},
		{Name: "passengers", Type: dataset.Int64},
		{Name: "payment", Type: dataset.String},
		{Name: "fare", Type: dataset.Float64},
		{Name: "tip", Type: dataset.Float64},
		{Name: "pickup", Type: dataset.Point},
	}
	t := dataset.NewTable(schema)
	r := rand.New(rand.NewSource(seed))
	dists := []string{"[0,5)", "[5,10)", "[10,15)"}
	pays := []string{"cash", "credit", "dispute"}
	for i := 0; i < n; i++ {
		d := dists[r.Intn(3)]
		p := pays[r.Intn(3)]
		c := int64(1 + r.Intn(3))
		fare := 10 + r.Float64()*5
		x, y := -74+r.Float64()*0.2, 40.6+r.Float64()*0.2
		if p == "dispute" && d == "[10,15)" {
			fare = 200 + r.Float64()*100
			x, y = -73.78+r.Float64()*0.01, 40.64+r.Float64()*0.01 // airport-ish cluster
		}
		t.MustAppendRow(
			dataset.StringValue(d),
			dataset.IntValue(c),
			dataset.StringValue(p),
			dataset.FloatValue(fare),
			dataset.FloatValue(0.15*fare+r.NormFloat64()*0.3),
			dataset.PointValue(geo.Point{X: x, Y: y}),
		)
	}
	return t
}

func buildTabula(t *testing.T, tbl *dataset.Table, f loss.Func, theta float64) *Tabula {
	t.Helper()
	tab, err := Build(context.Background(), tbl, DefaultParams(f, theta, "distance", "passengers", "payment"))
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// The paper's headline guarantee, end to end: for EVERY possible cube
// query, the loss of the returned sample against the raw query answer is
// within theta, with 100% confidence.
func TestEndToEndGuaranteeAllCells(t *testing.T) {
	tbl := taxiTable(4000, 91)
	for _, tc := range []struct {
		f     loss.Func
		theta float64
	}{
		{loss.NewMean("fare"), 0.10},
		{loss.NewHistogram("fare"), 1.0},
		{loss.NewHeatmap("pickup", geo.Euclidean), 0.02},
		{loss.NewRegression("fare", "tip"), 5.0},
	} {
		tab := buildTabula(t, tbl, tc.f, tc.theta)
		checkAllCells(t, tbl, tab, tc.f, tc.theta)
	}
}

// checkAllCells enumerates every combination of attribute values
// (including unconstrained attributes) and verifies the guarantee.
func checkAllCells(t *testing.T, tbl *dataset.Table, tab *Tabula, f loss.Func, theta float64) {
	t.Helper()
	attrs := tab.CubedAttrs()
	domains := make([][]dataset.Value, len(attrs))
	for ai, name := range attrs {
		col := tbl.Schema().ColumnIndex(name)
		seen := make(map[string]bool)
		for r := 0; r < tbl.NumRows(); r++ {
			v := tbl.Value(r, col)
			if !seen[v.String()] {
				seen[v.String()] = true
				domains[ai] = append(domains[ai], v)
			}
		}
	}
	var conds []Condition
	var rec func(ai int)
	checked := 0
	rec = func(ai int) {
		if ai == len(attrs) {
			res, err := tab.Query(context.Background(), conds)
			if err != nil {
				t.Fatalf("%s: query %v: %v", f.Name(), conds, err)
			}
			raw := rawAnswer(tbl, attrs, conds)
			if raw.Len() == 0 {
				return
			}
			got := f.Loss(raw, dataset.FullView(res.Sample))
			if got > theta {
				t.Fatalf("%s: query %v: loss %v > theta %v (fromGlobal=%v)", f.Name(), conds, got, theta, res.FromGlobal)
			}
			checked++
			return
		}
		rec(ai + 1) // leave this attribute unconstrained ("*")
		for _, v := range domains[ai] {
			conds = append(conds, Condition{Attr: attrs[ai], Value: v})
			rec(ai + 1)
			conds = conds[:len(conds)-1]
		}
	}
	rec(0)
	if checked < 10 {
		t.Fatalf("%s: only %d cells checked", f.Name(), checked)
	}
}

// rawAnswer computes the true query answer by filtering the raw table.
func rawAnswer(tbl *dataset.Table, attrs []string, conds []Condition) dataset.View {
	var rows []int32
	cols := make(map[string]int)
	for _, a := range attrs {
		cols[a] = tbl.Schema().ColumnIndex(a)
	}
	for r := 0; r < tbl.NumRows(); r++ {
		ok := true
		for _, c := range conds {
			if !tbl.Value(r, cols[c.Attr]).Equal(c.Value) {
				ok = false
				break
			}
		}
		if ok {
			rows = append(rows, int32(r))
		}
	}
	return dataset.NewView(tbl, rows)
}

func TestBuildValidation(t *testing.T) {
	tbl := taxiTable(100, 92)
	cases := map[string]Params{
		"nil loss":       {Theta: 0.1, CubedAttrs: []string{"payment"}},
		"negative theta": DefaultParams(loss.NewMean("fare"), -1, "payment"),
		"no attrs":       {Loss: loss.NewMean("fare"), Theta: 0.1},
		"bad attr":       DefaultParams(loss.NewMean("fare"), 0.1, "nope"),
		"non-cubeable":   DefaultParams(loss.NewMean("fare"), 0.1, "fare"),
	}
	for name, p := range cases {
		if _, err := Build(context.Background(), tbl, p); err == nil {
			t.Errorf("%s: Build should fail", name)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	tbl := taxiTable(3000, 93)
	tab := buildTabula(t, tbl, loss.NewMean("fare"), 0.08)
	s := tab.Stats()
	if s.NumCuboids != 8 {
		t.Fatalf("NumCuboids = %d", s.NumCuboids)
	}
	if s.NumCells <= 0 || s.NumIcebergCells <= 0 {
		t.Fatalf("cells=%d icebergs=%d", s.NumCells, s.NumIcebergCells)
	}
	if s.GlobalSampleSize < 1000 || s.GlobalSampleSize > 1100 {
		t.Fatalf("GlobalSampleSize = %d", s.GlobalSampleSize)
	}
	if s.InitTime <= 0 || s.DryRunTime <= 0 {
		t.Fatalf("timings: %+v", s)
	}
	if s.GlobalSampleBytes <= 0 || s.SampleTableBytes <= 0 || s.CubeTableBytes <= 0 {
		t.Fatalf("footprints: %+v", s)
	}
	if s.TotalBytes() != s.GlobalSampleBytes+s.CubeTableBytes+s.SampleTableBytes {
		t.Fatal("TotalBytes mismatch")
	}
	// Which path and pair test answered: the mean loss takes the join,
	// scores one raw summary per iceberg cell and decides some pairs by its
	// key alone; a heatmap sums row costs in the cover pass.
	if s.SamGraphSummaries != int64(s.NumIcebergCells) || s.SamGraphRowCosts != 0 || s.SamGraphCoverTests != 0 {
		t.Fatalf("mean join: %d summaries over %d iceberg cells, %d row costs, %d cover tests",
			s.SamGraphSummaries, s.NumIcebergCells, s.SamGraphRowCosts, s.SamGraphCoverTests)
	}
	if s.SamGraphPairsPruned < 1 || s.SamGraphPairsPruned > s.SamGraphPairsTested {
		t.Fatalf("mean join: %d of %d pairs pruned", s.SamGraphPairsPruned, s.SamGraphPairsTested)
	}
	h := buildTabula(t, tbl, loss.NewHeatmap("pickup", geo.Euclidean), 0.002).Stats()
	if h.SamGraphSummaries != 0 || h.SamGraphRowCosts == 0 || h.SamGraphPairsPruned != 0 ||
		h.SamGraphCoverTests == 0 || h.SamGraphCoverTests != h.SamGraphPairsTested {
		t.Fatalf("heatmap cover: %d summaries, %d row costs, %d pruned pairs, %d of %d tests by the cover pass over %d iceberg cells",
			h.SamGraphSummaries, h.SamGraphRowCosts, h.SamGraphPairsPruned, h.SamGraphCoverTests, h.SamGraphPairsTested, h.NumIcebergCells)
	}
}

// Sample selection must persist fewer (or equal) samples than Tabula*,
// never more, and both must uphold the guarantee.
func TestSampleSelectionReducesSamples(t *testing.T) {
	tbl := taxiTable(4000, 94)
	f := loss.NewMean("fare")
	theta := 0.08
	withSel := buildTabula(t, tbl, f, theta)
	pNoSel := DefaultParams(f, theta, "distance", "passengers", "payment")
	pNoSel.SampleSelection = false
	noSel, err := Build(context.Background(), tbl, pNoSel)
	if err != nil {
		t.Fatal(err)
	}
	if withSel.Stats().NumIcebergCells != noSel.Stats().NumIcebergCells {
		t.Fatal("iceberg counts differ between Tabula and Tabula*")
	}
	if withSel.NumPersistedSamples() > noSel.NumPersistedSamples() {
		t.Fatalf("selection persisted MORE samples: %d vs %d",
			withSel.NumPersistedSamples(), noSel.NumPersistedSamples())
	}
	if noSel.NumPersistedSamples() != noSel.Stats().NumIcebergCells {
		t.Fatal("Tabula* must persist one sample per iceberg cell")
	}
	if withSel.Stats().SampleTableBytes > noSel.Stats().SampleTableBytes {
		t.Fatal("selection increased the sample table footprint")
	}
}

func TestQueryErrors(t *testing.T) {
	tbl := taxiTable(500, 95)
	tab := buildTabula(t, tbl, loss.NewMean("fare"), 0.1)
	if _, err := tab.Query(context.Background(), []Condition{{Attr: "fare", Value: dataset.FloatValue(1)}}); err == nil {
		t.Fatal("non-cubed attribute should error")
	}
	if _, err := tab.Query(context.Background(), []Condition{
		{Attr: "payment", Value: dataset.StringValue("cash")},
		{Attr: "payment", Value: dataset.StringValue("credit")},
	}); err == nil {
		t.Fatal("duplicate attribute should error")
	}
}

func TestQueryUnknownValueReturnsEmpty(t *testing.T) {
	tbl := taxiTable(500, 96)
	tab := buildTabula(t, tbl, loss.NewMean("fare"), 0.1)
	res, err := tab.Query(context.Background(), []Condition{{Attr: "payment", Value: dataset.StringValue("bitcoin")}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sample.NumRows() != 0 || res.FromGlobal {
		t.Fatalf("unknown value: %d rows, fromGlobal=%v", res.Sample.NumRows(), res.FromGlobal)
	}
}

func TestQueryNoConditionsReturnsApex(t *testing.T) {
	tbl := taxiTable(2000, 97)
	tab := buildTabula(t, tbl, loss.NewMean("fare"), 0.1)
	res, err := tab.Query(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sample.NumRows() == 0 {
		t.Fatal("apex query returned empty sample")
	}
}

func TestQueryByValues(t *testing.T) {
	tbl := taxiTable(2000, 98)
	tab := buildTabula(t, tbl, loss.NewMean("fare"), 0.1)
	res, err := tab.QueryByValues(context.Background(), map[string]string{"payment": "dispute", "distance": "[10,15)"})
	if err != nil {
		t.Fatal(err)
	}
	// The skewed cell must be served by a local sample, not the global.
	if res.FromGlobal {
		t.Fatal("skewed cell served from global sample")
	}
	if _, err := tab.QueryByValues(context.Background(), map[string]string{"passengers": "not-a-number"}); err == nil {
		t.Fatal("bad int literal should error")
	}
	if _, err := tab.QueryByValues(context.Background(), map[string]string{"ghost": "1"}); err == nil {
		t.Fatal("unknown attribute should error")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tbl := taxiTable(3000, 99)
	f := loss.NewMean("fare")
	theta := 0.08
	tab := buildTabula(t, tbl, f, theta)
	var buf bytes.Buffer
	if err := tab.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Theta() != theta || loaded.LossName() != "mean" {
		t.Fatalf("theta=%v loss=%q", loaded.Theta(), loaded.LossName())
	}
	if loaded.NumPersistedSamples() != tab.NumPersistedSamples() {
		t.Fatal("sample counts differ after reload")
	}
	// Every query must return identical samples before and after reload.
	queries := [][]Condition{
		nil,
		{{Attr: "payment", Value: dataset.StringValue("cash")}},
		{{Attr: "payment", Value: dataset.StringValue("dispute")}, {Attr: "distance", Value: dataset.StringValue("[10,15)")}},
		{{Attr: "passengers", Value: dataset.IntValue(2)}},
	}
	for _, q := range queries {
		a, err := tab.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if a.FromGlobal != b.FromGlobal || a.Sample.NumRows() != b.Sample.NumRows() {
			t.Fatalf("query %v differs after reload: %v/%d vs %v/%d",
				q, a.FromGlobal, a.Sample.NumRows(), b.FromGlobal, b.Sample.NumRows())
		}
		for r := 0; r < a.Sample.NumRows(); r++ {
			for c := 0; c < a.Sample.NumCols(); c++ {
				if !a.Sample.Value(r, c).Equal(b.Sample.Value(r, c)) {
					t.Fatalf("sample cell (%d,%d) differs after reload", r, c)
				}
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("XXXXGARBAGE"))); err == nil {
		t.Fatal("want error for bad magic")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("want error for empty stream")
	}
}

func TestTabulaWithDSLLoss(t *testing.T) {
	tbl := taxiTable(2000, 100)
	st, err := engine.Parse(`CREATE AGGREGATE myloss(Raw, Sam) RETURN decimal AS
		BEGIN ABS(AVG(Raw) - AVG(Sam)) / AVG(Raw) END`)
	if err != nil {
		t.Fatal(err)
	}
	f, err := loss.Compile(st.(*engine.CreateAggregate), []string{"fare"}, geo.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	tab := buildTabula(t, tbl, f, 0.1)
	checkAllCells(t, tbl, tab, f, 0.1)
}

func TestCalibrateTheta(t *testing.T) {
	tbl := taxiTable(3000, 101)
	p := DefaultParams(loss.NewMean("fare"), 0, "distance", "passengers", "payment")
	// A generous budget must calibrate to something tighter than hiTheta.
	res, err := CalibrateTheta(context.Background(), tbl, p, 0.01, 0.5, 1<<24, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cube == nil || res.Theta >= 0.5 {
		t.Fatalf("calibration did not tighten: theta=%v", res.Theta)
	}
	if len(res.Trials) != 5 {
		t.Fatalf("trials = %d", len(res.Trials))
	}
	if res.Cube.Stats().TotalBytes() > 1<<24 {
		t.Fatal("calibrated cube exceeds budget")
	}
	// An impossible budget fails cleanly.
	if _, err := CalibrateTheta(context.Background(), tbl, p, 0.01, 0.5, 10, 3); err == nil {
		t.Fatal("tiny budget should fail")
	}
	// Bad ranges fail.
	if _, err := CalibrateTheta(context.Background(), tbl, p, 0.5, 0.1, 1<<24, 3); err == nil {
		t.Fatal("inverted range should fail")
	}
}

// QueryIn union answers must satisfy the guarantee for merge-safe losses
// on every combination of IN lists.
func TestQueryInGuarantee(t *testing.T) {
	tbl := taxiTable(4000, 121)
	f := loss.NewHistogram("fare")
	theta := 1.0
	tab := buildTabula(t, tbl, f, theta)
	cases := [][]ConditionIn{
		{{Attr: "payment", Values: []dataset.Value{dataset.StringValue("cash"), dataset.StringValue("dispute")}}},
		{{Attr: "payment", Values: []dataset.Value{dataset.StringValue("credit"), dataset.StringValue("dispute")}},
			{Attr: "distance", Values: []dataset.Value{dataset.StringValue("[0,5)"), dataset.StringValue("[10,15)")}}},
		{{Attr: "passengers", Values: []dataset.Value{dataset.IntValue(1), dataset.IntValue(2), dataset.IntValue(3)}}},
	}
	for _, conds := range cases {
		res, err := tab.QueryIn(context.Background(), conds)
		if err != nil {
			t.Fatalf("%v: %v", conds, err)
		}
		raw := rawAnswerIn(tbl, conds)
		if raw.Len() == 0 {
			continue
		}
		got := f.Loss(raw, dataset.FullView(res.Sample))
		if got > theta {
			t.Fatalf("%v: union loss %v > theta %v", conds, got, theta)
		}
	}
}

func rawAnswerIn(tbl *dataset.Table, conds []ConditionIn) dataset.View {
	var rows []int32
	for r := 0; r < tbl.NumRows(); r++ {
		ok := true
		for _, c := range conds {
			col := tbl.Schema().ColumnIndex(c.Attr)
			match := false
			for _, v := range c.Values {
				if tbl.Value(r, col).Equal(v) {
					match = true
					break
				}
			}
			if !match {
				ok = false
				break
			}
		}
		if ok {
			rows = append(rows, int32(r))
		}
	}
	return dataset.NewView(tbl, rows)
}

func TestQueryInRejectsNonMergeSafeLoss(t *testing.T) {
	tbl := taxiTable(800, 122)
	tab := buildTabula(t, tbl, loss.NewMean("fare"), 0.1)
	_, err := tab.QueryIn(context.Background(), []ConditionIn{{Attr: "payment", Values: []dataset.Value{dataset.StringValue("cash")}}})
	if err == nil {
		t.Fatal("mean loss must reject IN queries")
	}
}

func TestQueryInEdgeCases(t *testing.T) {
	tbl := taxiTable(800, 123)
	tab := buildTabula(t, tbl, loss.NewHistogram("fare"), 1.0)
	// Unknown values only: empty answer.
	res, err := tab.QueryIn(context.Background(), []ConditionIn{{Attr: "payment", Values: []dataset.Value{dataset.StringValue("doge")}}})
	if err != nil || res.Sample.NumRows() != 0 {
		t.Fatalf("unknown-only IN: rows=%d err=%v", res.Sample.NumRows(), err)
	}
	// Errors: unknown attribute, duplicate attribute, empty list.
	if _, err := tab.QueryIn(context.Background(), []ConditionIn{{Attr: "ghost", Values: []dataset.Value{dataset.IntValue(1)}}}); err == nil {
		t.Fatal("unknown attribute should error")
	}
	if _, err := tab.QueryIn(context.Background(), []ConditionIn{
		{Attr: "payment", Values: []dataset.Value{dataset.StringValue("cash")}},
		{Attr: "payment", Values: []dataset.Value{dataset.StringValue("credit")}},
	}); err == nil {
		t.Fatal("duplicate attribute should error")
	}
	if _, err := tab.QueryIn(context.Background(), []ConditionIn{{Attr: "payment", Values: nil}}); err == nil {
		t.Fatal("empty IN list should error")
	}
}

// The end-to-end guarantee also holds for the TopK and Distinct losses.
func TestEndToEndGuaranteeTopKDistinct(t *testing.T) {
	tbl := taxiTable(3000, 141)
	for _, tc := range []struct {
		f     loss.Func
		theta float64
	}{
		{loss.NewTopK("fare", 5), 0.25},
		{loss.NewDistinct("distance"), 0.30},
	} {
		tab := buildTabula(t, tbl, tc.f, tc.theta)
		checkAllCells(t, tbl, tab, tc.f, tc.theta)
	}
}
