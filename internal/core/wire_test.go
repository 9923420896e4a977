package core

import (
	"bytes"
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

// Every batch answer carries its sample's wire cell — iceberg, global
// and empty answers, fast and slow resolution paths alike — and the
// cell follows the sample one to one: two answers share a cell exactly
// when they share a sample, through any shard. Serving layers dedup a
// viewport's payloads on the cell, so this must hold after Build,
// after Load (which re-links shared samples from the persisted pool)
// and after an Append (which may rebuild a shared sample per cell, so
// only the global sample is sure to stay shared).
func TestBatchResultsCarryTheirSampleCell(t *testing.T) {
	built := buildAppendable(t, taxiTable(2000, 301), loss.NewHistogram("fare"), 0.1)
	var file bytes.Buffer
	if err := built.Save(&file); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&file)
	if err != nil {
		t.Fatal(err)
	}
	appended := buildAppendable(t, taxiTable(2000, 301), loss.NewHistogram("fare"), 0.1)
	if _, err := appended.Append(context.Background(), taxiTable(60, 302)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		tab       *Tabula
		minShared int
	}{{"built", built, 2}, {"loaded", loaded, 2}, {"appended", appended, 1}} {
		results, err := tc.tab.QueryBatchByValues(context.Background(), viewportQueries())
		if err != nil {
			t.Fatal(err)
		}
		cellOf := make(map[*dataset.Table]*wire.Cell)
		sampleOf := make(map[*wire.Cell]*dataset.Table)
		shardsOf := make(map[*wire.Cell]map[int]bool)
		var global, iceberg, empty int
		for _, res := range results {
			switch {
			case res.Wire == nil:
				t.Fatalf("%s: an answer carries no wire cell: %+v", tc.name, res)
			case res.FromGlobal:
				global++
			case res.Shard < 0:
				empty++
			default:
				iceberg++
			}
			if c, ok := cellOf[res.Sample]; ok && c != res.Wire {
				t.Fatalf("%s: one sample answered with two cells", tc.name)
			}
			if s, ok := sampleOf[res.Wire]; ok && s != res.Sample {
				t.Fatalf("%s: one cell answered for two samples", tc.name)
			}
			cellOf[res.Sample], sampleOf[res.Wire] = res.Wire, res.Sample
			if shardsOf[res.Wire] == nil {
				shardsOf[res.Wire] = make(map[int]bool)
			}
			shardsOf[res.Wire][res.Shard] = true
		}
		if global == 0 || iceberg == 0 || empty == 0 {
			t.Fatalf("%s: degenerate viewport: %d global, %d iceberg, %d empty answers", tc.name, global, iceberg, empty)
		}
		shared := 0
		for _, shards := range shardsOf {
			if len(shards) > 1 {
				shared++
			}
		}
		if shared < tc.minShared {
			t.Fatalf("%s: %d samples reached through more than one shard, want at least %d", tc.name, shared, tc.minShared)
		}
	}
}
