package loss

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/geo"
)

// summaryTable has a target of every column type the losses read: two
// Float64 columns, a POINT, a String category and an Int64 count. Row i is
// the same for every n > i, so a sample of the first rows is the same
// sample in a larger table.
func summaryTable(n int) *dataset.Table {
	t := dataset.NewTable(dataset.Schema{
		{Name: "fare", Type: dataset.Float64},
		{Name: "tip", Type: dataset.Float64},
		{Name: "pickup", Type: dataset.Point},
		{Name: "cat", Type: dataset.String},
		{Name: "n", Type: dataset.Int64},
	})
	r := rand.New(rand.NewSource(77))
	cats := []string{"a", "b", "c", "d", "e", "f", "g"}
	for i := 0; i < n; i++ {
		fare := 2 + r.Float64()*48
		t.MustAppendRow(
			dataset.FloatValue(fare),
			dataset.FloatValue(0.2*fare+r.NormFloat64()*0.5),
			dataset.PointValue(geo.Point{X: -74 + r.Float64()*0.3, Y: 40.6 + r.Float64()*0.3}),
			dataset.StringValue(cats[r.Intn(len(cats))]),
			dataset.IntValue(int64(r.Intn(9))),
		)
	}
	return t
}

// capabilityLosses lists every built-in loss shape with whether its bound
// evaluator must offer RawSummarizer: all but those whose per-row fold
// measures a distance to the sample.
func capabilityLosses(t *testing.T) []struct {
	name    string
	f       Func
	summary bool
} {
	return []struct {
		name    string
		f       Func
		summary bool
	}{
		{"mean", NewMean("fare"), true},
		{"mean-int64", NewMean("n"), true},
		{"regression", NewRegression("fare", "tip"), true},
		{"distinct-string", NewDistinct("cat"), true},
		{"distinct-int64", NewDistinct("n"), true},
		{"topk", NewTopK("fare", 5), true},
		{"dsl-mean", compileLoss(t, meanDSL, "fare"), true},
		{"dsl-angle", compileLoss(t, regDSL, "fare", "tip"), true},
		{"heatmap", NewHeatmap("pickup", geo.Euclidean), false},
		{"histogram", NewHistogram("fare"), false},
		{"dsl-avgmindist", compileLoss(t, histDSL, "fare"), false},
	}
}

func sameFloat(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

// A state folded under one sample, scored by an evaluator rebound to another
// sample, is bit-for-bit the other sample's own fold — also through a chain
// of rebinds, for empty cells and empty samples, and however often Loss is
// asked. Evaluators whose fold reads the sample must not offer Rebind.
func TestRawSummarizerConformance(t *testing.T) {
	tbl := summaryTable(500)
	r := rand.New(rand.NewSource(3))
	samples := [][]int32{{4, 9, 17, 100, 250, 251, 499}, {0}, {}, {30, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40}}
	cells := [][]int32{{}, {7}, {7, 7, 7}}
	for i := 0; i < 6; i++ {
		var rows []int32
		for _, j := range r.Perm(500)[:1+r.Intn(200)] {
			rows = append(rows, int32(j))
		}
		cells = append(cells, rows)
	}
	for _, tc := range capabilityLosses(t) {
		bind := func(sam []int32) CellEvaluator {
			ev, err := tc.f.(DryRunner).BindSample(tbl, dataset.NewView(tbl, sam))
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return ev
		}
		evA := bind(samples[0])
		sum, ok := evA.(RawSummarizer)
		if ok != tc.summary {
			t.Fatalf("%s: offers RawSummarizer = %v, want %v", tc.name, ok, tc.summary)
		}
		if !ok {
			continue
		}
		for si, sam := range samples {
			own := bind(sam)
			rebound, err := sum.Rebind(dataset.NewView(tbl, sam))
			if err != nil {
				t.Fatalf("%s: Rebind: %v", tc.name, err)
			}
			// Rebind again from the rebound evaluator, via the first sample.
			back, err := rebound.(RawSummarizer).Rebind(dataset.NewView(tbl, samples[0]))
			if err != nil {
				t.Fatalf("%s: Rebind of a rebound evaluator: %v", tc.name, err)
			}
			for ci, rows := range cells {
				stA, stOwn := evA.NewState(), own.NewState()
				for _, row := range rows {
					evA.Add(stA, row)
					own.Add(stOwn, row)
				}
				want := own.Loss(stOwn)
				for pass := 0; pass < 2; pass++ { // Loss must not change the state
					if got := rebound.Loss(stA); !sameFloat(got, want) {
						t.Fatalf("%s sample %d cell %d pass %d: rebound Loss = %v, own fold = %v", tc.name, si, ci, pass, got, want)
					}
				}
				if got, want := back.Loss(stA), evA.Loss(stA); !sameFloat(got, want) {
					t.Fatalf("%s sample %d cell %d: rebound back to the first sample = %v, first evaluator = %v", tc.name, si, ci, got, want)
				}
			}
		}
	}
}

// allocBytes reports the heap bytes one call of f allocates: the least of a
// few measurements, since the runtime's own background allocations land in
// the same counter.
func allocBytes(f func()) uint64 {
	const runs = 20
	least := uint64(math.MaxUint64)
	for attempt := 0; attempt < 3; attempt++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return least
}

// Rebinding costs the sample, not the table: on a table ten times larger the
// same sample allocates the same objects and (copying a column would be
// 16 KB against 160 KB) the same bytes, give or take the runtime's noise. So
// does a first bind whose targets are Float64 columns, which it aliases
// rather than copies.
func TestRebindCostIndependentOfTableSize(t *testing.T) {
	small, large := summaryTable(2000), summaryTable(20000)
	sam := []int32{3, 50, 51, 400, 900, 1500, 1999}
	sameBytes := func(a, b uint64) bool { return a <= b+b/4+256 && b <= a+a/4+256 }
	for _, tc := range capabilityLosses(t) {
		if !tc.summary {
			continue
		}
		measure := func(tbl *dataset.Table) (rebindObjs float64, rebindBytes, bindBytes uint64) {
			view := dataset.NewView(tbl, sam)
			dr := tc.f.(DryRunner)
			ev, err := dr.BindSample(tbl, view)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			rebind := func() {
				if _, err := ev.(RawSummarizer).Rebind(view); err != nil {
					t.Fatal(err)
				}
			}
			bind := func() {
				if _, err := dr.BindSample(tbl, view); err != nil {
					t.Fatal(err)
				}
			}
			return testing.AllocsPerRun(20, rebind), allocBytes(rebind), allocBytes(bind)
		}
		so, sb, sBind := measure(small)
		lo, lb, lBind := measure(large)
		if so != lo || !sameBytes(sb, lb) {
			t.Errorf("%s: Rebind allocates %v objects / %d bytes on 2 000 rows but %v / %d on 20 000", tc.name, so, sb, lo, lb)
		}
		if sb > 4096 {
			t.Errorf("%s: Rebind of a 7-row sample allocates %d bytes", tc.name, sb)
		}
		switch tc.name {
		case "mean", "regression", "topk", "dsl-mean", "dsl-angle", "distinct-string":
			if !sameBytes(sBind, lBind) {
				t.Errorf("%s: BindSample allocates %d bytes on 2 000 rows but %d on 20 000", tc.name, sBind, lBind)
			}
		}
	}
}

// Evaluators alias the table's columns, so one bound before the table grew
// must not be used afterwards. It cannot be used silently: it sees none of
// the appended rows, and folding one panics.
func TestEvaluatorBoundBeforeAppendRejectsNewRows(t *testing.T) {
	for _, tc := range capabilityLosses(t) {
		tbl := summaryTable(300)
		sam := dataset.NewView(tbl, []int32{1, 2, 3})
		stale, err := tc.f.(DryRunner).BindSample(tbl, sam)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := tbl.AppendTable(summaryTable(5000)); err != nil {
			t.Fatal(err)
		}
		last := int32(tbl.NumRows() - 1)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: an evaluator bound before the append folded appended row %d", tc.name, last)
				}
			}()
			stale.Add(stale.NewState(), last)
		}()
		fresh, err := tc.f.(DryRunner).BindSample(tbl, sam)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fresh.Add(fresh.NewState(), last) // must not panic
	}
}
