package core

import (
	"context"
	"testing"

	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/geo"
	"github.com/tabula-db/tabula/internal/loss"
	"github.com/tabula-db/tabula/internal/obs"
	"github.com/tabula-db/tabula/internal/wire"
)

// serveAll answers every viewport cell and fills the cell of each sample
// it is handed, the way a serving layer would: with a segment made from
// the sample, once. It returns how many fills ran.
func serveAll(t *testing.T, tab *Tabula) (fills int) {
	t.Helper()
	results, err := tab.QueryBatchByValues(context.Background(), viewportQueries())
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Wire == nil {
			t.Fatalf("a cell answer carries no wire cell: %+v", res)
		}
		if _, err := res.Wire.Get(func() (*wire.Segment, error) {
			fills++
			return wire.Compress([]byte(tableFingerprint(res.Sample)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	return fills
}

// A wire cell belongs to its sample: across Appends a surviving sample
// keeps its cell and bytes whatever happens to the generations of the
// shards it is reachable from, a rebuilt sample starts with an empty
// one, and what the gauge reports resident is exactly what the live
// snapshot's samples hold — bytes of samples no snapshot references any
// more are not counted anywhere.
func TestWireCellsFollowSamplesAcrossAppends(t *testing.T) {
	reg := obs.NewRegistry()
	tab := buildAppendable(t, taxiTable(600, 301), loss.NewHistogram("fare"), 1.0)
	tab.RegisterMetrics(reg, "c")
	gauge := func(name string) float64 {
		v, ok := reg.Value(name, obs.Label{Name: "cube", Value: "c"})
		if !ok {
			t.Fatalf("gauge %s is not registered", name)
		}
		return v
	}
	if st := tab.WireStats(); st != (WireStats{}) || gauge("tabula_wire_resident_bytes") != 0 {
		t.Fatalf("a fresh cube holds %+v", st)
	}
	if serveAll(t, tab) == 0 {
		t.Fatal("the first pass filled nothing")
	}
	if again := serveAll(t, tab); again != 0 {
		t.Fatalf("a second pass over an unchanged cube ran %d fills", again)
	}

	var kept, rebuilt int
	for round := 0; round < 50; round++ {
		held := make(map[*dataset.Table]*wire.Segment)
		before := tab.snap.Load()
		for _, sam := range append(before.distinctSamples(), before.global, before.empty) {
			held[sam.tbl] = sam.wire.Filled()
		}
		// Ordinary rows, plus a few disputes whose fares drift further out
		// every round so that some sample stops satisfying θ and is rebuilt.
		batch := taxiTable(10, int64(400+round))
		for i := 0; i < 2; i++ {
			batch.MustAppendRow(
				dataset.StringValue("[0,5)"), dataset.IntValue(1), dataset.StringValue("dispute"),
				dataset.FloatValue(float64(300+40*round+i)), dataset.FloatValue(0),
				dataset.PointValue(geo.Point{X: -73.95, Y: 40.75}))
		}
		st, err := tab.Append(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		after := tab.snap.Load()
		for _, sam := range append(after.distinctSamples(), after.global, after.empty) {
			seg, survived := held[sam.tbl]
			switch {
			case survived && sam.wire.Filled() != seg:
				t.Fatalf("round %d: a sample that survived the append lost or changed its bytes", round)
			case survived && seg != nil:
				kept++
			case !survived && sam.wire.Filled() != nil:
				t.Fatalf("round %d: a sample built by the append was born with bytes", round)
			case !survived:
				rebuilt++
			}
		}
		if fills := serveAll(t, tab); fills > st.SamplesRebuilt {
			t.Fatalf("round %d: %d fills after an append that rebuilt %d samples", round, fills, st.SamplesRebuilt)
		}

		var want WireStats
		for _, sam := range append(after.distinctSamples(), after.global, after.empty) {
			if seg := sam.wire.Filled(); seg != nil {
				want.CellsFilled++
				want.Bytes += int64(len(seg.Deflate))
			}
		}
		if got := tab.WireStats(); got != want {
			t.Fatalf("round %d: WireStats %+v, the snapshot's samples hold %+v", round, got, want)
		}
		if gauge("tabula_wire_resident_bytes") != float64(want.Bytes) || gauge("tabula_wire_cells") != float64(want.CellsFilled) {
			t.Fatalf("round %d: gauges report %v bytes in %v cells, the snapshot's samples hold %+v",
				round, gauge("tabula_wire_resident_bytes"), gauge("tabula_wire_cells"), want)
		}
	}
	t.Logf("%d surviving filled samples and %d rebuilt ones over 50 appends", kept, rebuilt)
	if kept == 0 || rebuilt == 0 {
		t.Fatalf("degenerate run: %d surviving filled samples, %d rebuilt ones", kept, rebuilt)
	}
}
