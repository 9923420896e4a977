package loss

import (
	"math"
	"math/rand"
	"testing"

	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/geo"
)

func lossSchema() dataset.Schema {
	return dataset.Schema{
		{Name: "fare", Type: dataset.Float64},
		{Name: "tip", Type: dataset.Float64},
		{Name: "pickup", Type: dataset.Point},
	}
}

// buildLossTable makes a table with fares ~ U(2,50), tip = 0.2*fare+noise,
// pickups in a city-scale box.
func buildLossTable(n int, seed int64) *dataset.Table {
	t := dataset.NewTable(lossSchema())
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		fare := 2 + r.Float64()*48
		t.MustAppendRow(
			dataset.FloatValue(fare),
			dataset.FloatValue(0.2*fare+r.NormFloat64()*0.5),
			dataset.PointValue(geo.Point{X: -74 + r.Float64()*0.3, Y: 40.6 + r.Float64()*0.3}),
		)
	}
	return t
}

func viewOf(t *dataset.Table, rows ...int32) dataset.View {
	if rows == nil {
		return dataset.FullView(t)
	}
	return dataset.NewView(t, rows)
}

func firstK(t *dataset.Table, k int) dataset.View {
	rows := make([]int32, k)
	for i := range rows {
		rows[i] = int32(i)
	}
	return dataset.NewView(t, rows)
}

// --- invariants shared by all built-in losses -----------------------------

func allLosses() []Func {
	return []Func{
		NewMean("fare"),
		NewHeatmap("pickup", geo.Euclidean),
		NewRegression("fare", "tip"),
		NewHistogram("fare"),
	}
}

func TestLossOfIdenticalDataIsZero(t *testing.T) {
	tbl := buildLossTable(500, 1)
	full := viewOf(tbl)
	for _, f := range allLosses() {
		if got := f.Loss(full, full); got != 0 {
			t.Errorf("%s: loss(T, T) = %v, want 0", f.Name(), got)
		}
	}
}

func TestLossOfEmptySampleIsInf(t *testing.T) {
	tbl := buildLossTable(100, 2)
	full := viewOf(tbl)
	empty := dataset.NewView(tbl, nil)
	for _, f := range allLosses() {
		if got := f.Loss(full, empty); !math.IsInf(got, 1) {
			t.Errorf("%s: loss(T, ∅) = %v, want +Inf", f.Name(), got)
		}
	}
}

func TestLossOfEmptyRawIsZero(t *testing.T) {
	tbl := buildLossTable(100, 3)
	empty := dataset.NewView(tbl, nil)
	some := firstK(tbl, 5)
	for _, f := range allLosses() {
		if got := f.Loss(empty, some); got != 0 {
			t.Errorf("%s: loss(∅, s) = %v, want 0", f.Name(), got)
		}
	}
}

func TestLossNonNegative(t *testing.T) {
	tbl := buildLossTable(300, 4)
	r := rand.New(rand.NewSource(5))
	full := viewOf(tbl)
	for trial := 0; trial < 20; trial++ {
		k := 1 + r.Intn(100)
		rows := make([]int32, k)
		for i := range rows {
			rows[i] = int32(r.Intn(300))
		}
		sam := dataset.NewView(tbl, rows)
		for _, f := range allLosses() {
			if got := f.Loss(full, sam); got < 0 || math.IsNaN(got) {
				t.Errorf("%s: loss = %v on random sample", f.Name(), got)
			}
		}
	}
}

// Dry-run invariant: for any split of the rows, merged states give the
// same loss as a state built from all rows, and both match Func.Loss.
func TestCellEvaluatorMergeMatchesDirect(t *testing.T) {
	tbl := buildLossTable(400, 6)
	sam := firstK(tbl, 30)
	full := viewOf(tbl)
	for _, f := range allLosses() {
		dr, ok := f.(DryRunner)
		if !ok {
			t.Fatalf("%s must implement DryRunner", f.Name())
		}
		ev, err := dr.BindSample(tbl, sam)
		if err != nil {
			t.Fatal(err)
		}
		whole := ev.NewState()
		a, b := ev.NewState(), ev.NewState()
		for i := int32(0); i < 400; i++ {
			ev.Add(whole, i)
			if i%3 == 0 {
				ev.Add(a, i)
			} else {
				ev.Add(b, i)
			}
		}
		merged := ev.NewState()
		ev.Merge(merged, a)
		ev.Merge(merged, b)
		lw, lm := ev.Loss(whole), ev.Loss(merged)
		if math.Abs(lw-lm) > 1e-9*(1+math.Abs(lw)) {
			t.Errorf("%s: whole %v != merged %v", f.Name(), lw, lm)
		}
		direct := f.Loss(full, sam)
		if math.Abs(lw-direct) > 1e-9*(1+math.Abs(direct)) {
			t.Errorf("%s: evaluator %v != direct %v", f.Name(), lw, direct)
		}
		if ev.StateBytes() <= 0 {
			t.Errorf("%s: StateBytes = %d", f.Name(), ev.StateBytes())
		}
	}
}

// Greedy invariant: LossWith(i) equals the loss actually observed after
// Add(i), and both match Func.Loss on the implied sample.
func TestGreedyEvaluatorConsistency(t *testing.T) {
	tbl := buildLossTable(120, 7)
	full := viewOf(tbl)
	r := rand.New(rand.NewSource(8))
	for _, f := range allLosses() {
		gc, ok := f.(GreedyCapable)
		if !ok {
			t.Fatalf("%s must implement GreedyCapable", f.Name())
		}
		g, err := gc.NewGreedy(full)
		if err != nil {
			t.Fatal(err)
		}
		if g.Len() != 120 {
			t.Fatalf("%s: Len = %d", f.Name(), g.Len())
		}
		var sampleRows []int32
		for round := 0; round < 15; round++ {
			i := r.Intn(120)
			predicted := g.LossWith(i)
			g.Add(i)
			sampleRows = append(sampleRows, int32(i))
			observed := g.CurrentLoss()
			if !closeOrBothInf(predicted, observed, 1e-9) {
				t.Fatalf("%s round %d: LossWith=%v, after Add=%v", f.Name(), round, predicted, observed)
			}
			direct := f.Loss(full, dataset.NewView(tbl, sampleRows))
			if !closeOrBothInf(observed, direct, 1e-9) {
				t.Fatalf("%s round %d: greedy=%v, direct=%v", f.Name(), round, observed, direct)
			}
		}
	}
}

func closeOrBothInf(a, b, tol float64) bool {
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(b))
}

// --- loss-specific behaviour ----------------------------------------------

func TestMeanKnownValues(t *testing.T) {
	tbl := dataset.NewTable(lossSchema())
	for _, fare := range []float64{10, 20, 30, 40} { // mean 25
		tbl.MustAppendRow(dataset.FloatValue(fare), dataset.FloatValue(0), dataset.PointValue(geo.Point{}))
	}
	m := NewMean("fare")
	full := viewOf(tbl)
	// Sample {10, 40}: mean 25, loss 0.
	if got := m.Loss(full, viewOf(tbl, 0, 3)); got != 0 {
		t.Fatalf("loss = %v, want 0", got)
	}
	// Sample {10}: |25-10|/25 = 0.6.
	if got := m.Loss(full, viewOf(tbl, 0)); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("loss = %v, want 0.6", got)
	}
}

func TestMeanZeroRawMeanUsesAbsolute(t *testing.T) {
	tbl := dataset.NewTable(lossSchema())
	for _, fare := range []float64{-5, 5} {
		tbl.MustAppendRow(dataset.FloatValue(fare), dataset.FloatValue(0), dataset.PointValue(geo.Point{}))
	}
	m := NewMean("fare")
	got := m.Loss(viewOf(tbl), viewOf(tbl, 1))
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("zero-mean raw should stay finite, got %v", got)
	}
	if math.Abs(got-5) > 1e-12 {
		t.Fatalf("got %v, want 5 (absolute fallback)", got)
	}
}

func TestMeanUnknownColumnPanics(t *testing.T) {
	tbl := buildLossTable(5, 9)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for unknown column")
		}
	}()
	NewMean("nope").Loss(viewOf(tbl), viewOf(tbl))
}

func TestHeatmapMatchesBruteForce(t *testing.T) {
	tbl := buildLossTable(200, 10)
	h := NewHeatmap("pickup", geo.Euclidean)
	full := viewOf(tbl)
	sam := firstK(tbl, 20)
	got := h.Loss(full, sam)
	// Brute force.
	pts := full.PointsOf(2)
	samPts := sam.PointsOf(2)
	var sum float64
	for _, p := range pts {
		best := math.Inf(1)
		for _, s := range samPts {
			if d := geo.Distance(geo.Euclidean, p, s); d < best {
				best = d
			}
		}
		sum += best
	}
	want := sum / float64(len(pts))
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("heatmap loss %v, want %v", got, want)
	}
}

func TestHeatmapLossDecreasesWithBiggerSamples(t *testing.T) {
	tbl := buildLossTable(300, 11)
	h := NewHeatmap("pickup", geo.Euclidean)
	full := viewOf(tbl)
	prev := math.Inf(1)
	for _, k := range []int{1, 5, 25, 100, 300} {
		cur := h.Loss(full, firstK(tbl, k))
		if cur > prev+1e-12 {
			t.Fatalf("loss increased from %v to %v at k=%d", prev, cur, k)
		}
		prev = cur
	}
	if prev != 0 {
		t.Fatalf("loss with full sample = %v, want 0", prev)
	}
}

func TestRegressionKnownAngle(t *testing.T) {
	tbl := dataset.NewTable(lossSchema())
	// Raw: y = x (45°). Sample rows will pick the y = 2x pair.
	pts := [][2]float64{{1, 1}, {2, 2}, {3, 3}, {1, 2}, {2, 4}}
	for _, p := range pts {
		tbl.MustAppendRow(dataset.FloatValue(p[0]), dataset.FloatValue(p[1]), dataset.PointValue(geo.Point{}))
	}
	r := NewRegression("fare", "tip")
	raw := viewOf(tbl, 0, 1, 2) // slope 1 → 45°
	sam := viewOf(tbl, 3, 4)    // slope 2 → 63.43°
	want := math.Atan(2)*180/math.Pi - 45
	if got := r.Loss(raw, sam); math.Abs(got-want) > 1e-9 {
		t.Fatalf("regression loss = %v, want %v", got, want)
	}
}

func TestRegressionDegenerateRawIsZero(t *testing.T) {
	tbl := dataset.NewTable(lossSchema())
	tbl.MustAppendRow(dataset.FloatValue(1), dataset.FloatValue(1), dataset.PointValue(geo.Point{}))
	r := NewRegression("fare", "tip")
	if got := r.Loss(viewOf(tbl), viewOf(tbl, 0)); got != 0 {
		t.Fatalf("degenerate raw loss = %v, want 0", got)
	}
}

func TestHistogramKnownValues(t *testing.T) {
	tbl := dataset.NewTable(lossSchema())
	for _, fare := range []float64{1, 2, 3, 10} {
		tbl.MustAppendRow(dataset.FloatValue(fare), dataset.FloatValue(0), dataset.PointValue(geo.Point{}))
	}
	h := NewHistogram("fare")
	// Sample {2}: distances 1,0,1,8 → avg 2.5.
	if got := h.Loss(viewOf(tbl), viewOf(tbl, 1)); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("loss = %v, want 2.5", got)
	}
	// Sample {2, 10}: distances 1,0,1,0 → avg 0.5.
	if got := h.Loss(viewOf(tbl), viewOf(tbl, 1, 3)); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("loss = %v, want 0.5", got)
	}
}

func TestNearest1D(t *testing.T) {
	vals := []float64{1, 3, 7}
	cases := map[float64]float64{0: 1, 1: 0, 2: 1, 3: 0, 4: 1, 5: 2, 7: 0, 9: 2}
	for x, want := range cases {
		if got := nearest1D(vals, x); got != want {
			t.Errorf("nearest1D(%v) = %v, want %v", x, got, want)
		}
	}
}

// The radius-bounded heatmap LossWith must equal the brute-force
// evaluation for every candidate at every sample size, across metrics.
func TestHeatmapGreedyRadiusBoundExact(t *testing.T) {
	tbl := buildLossTable(400, 31)
	full := viewOf(tbl)
	for _, metric := range []geo.Metric{geo.Euclidean, geo.Manhattan, geo.Haversine} {
		h := NewHeatmap("pickup", metric)
		g, err := h.NewGreedy(full)
		if err != nil {
			t.Fatal(err)
		}
		gi := g.(*heatmapGreedy)
		r := rand.New(rand.NewSource(32))
		for round := 0; round < 25; round++ {
			cand := r.Intn(400)
			got := g.LossWith(cand)
			// Brute force from the same minDist state, which is kept in
			// the index's cell order: view point j's is at position pos[j].
			var sum float64
			c := gi.pts[cand]
			for j, p := range gi.pts {
				d := geo.Distance(metric, p, c)
				if m := gi.minDist[gi.idx.pos[j]]; m < d {
					d = m
				}
				sum += d
			}
			want := sum / float64(len(gi.pts))
			if !closeOrBothInf(got, want, 1e-9) {
				t.Fatalf("metric %v round %d: radius-bounded %v != brute %v", metric, round, got, want)
			}
			g.Add(r.Intn(400))
		}
	}
}

func BenchmarkHeatmapGreedyLossWith(b *testing.B) {
	tbl := buildLossTable(20000, 33)
	h := NewHeatmap("pickup", geo.Euclidean)
	g, err := h.NewGreedy(dataset.FullView(tbl))
	if err != nil {
		b.Fatal(err)
	}
	// Warm up with 50 adds so maxMin has shrunk.
	for i := 0; i < 50; i++ {
		g.Add(i * 397 % 20000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.LossWith(i % 20000)
	}
}
