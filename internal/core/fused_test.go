package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/tabula-db/tabula/internal/geo"
	"github.com/tabula-db/tabula/internal/loss"
	"github.com/tabula-db/tabula/internal/nyctaxi"
	"github.com/tabula-db/tabula/internal/sampling"
)

func saveBytes(t *testing.T, tab *Tabula) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tab.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// For losses with per-row costs Build samples only the cells the cover pass
// keeps. The cube must be byte-identical to the one sampling every cell
// first builds (RealRun → samgraph.Build → Select), with the same selection
// counters, at any worker count; only the greedy-run counts differ.
func TestBuildFusedMatchesSampleAll(t *testing.T) {
	tbl := nyctaxi.Generate(6000, 5)
	for _, f := range []loss.Func{loss.NewHeatmap(nyctaxi.ColPickup, geo.Euclidean), loss.NewHistogram(nyctaxi.ColFare)} {
		p := DefaultParams(f, 0.002, nyctaxi.CubedAttrs[:4]...)
		if f.Name() != "heatmap" {
			p.Theta = 0.5
		}
		p.Workers = 1
		sampleEveryCell = true
		ref, err := Build(context.Background(), tbl, p)
		sampleEveryCell = false
		if err != nil {
			t.Fatal(err)
		}
		want, wantSt := saveBytes(t, ref), ref.Stats()
		if wantSt.GreedyRunsKept != int64(wantSt.NumIcebergCells) || wantSt.GreedyRunsDiscarded != 0 {
			t.Fatalf("%s sampling every cell: %d greedy runs kept, %d discarded, over %d iceberg cells",
				f.Name(), wantSt.GreedyRunsKept, wantSt.GreedyRunsDiscarded, wantSt.NumIcebergCells)
		}
		if wantSt.NumPersistedSamples < 5 || wantSt.NumPersistedSamples >= wantSt.NumIcebergCells {
			t.Fatalf("%s: %d of %d cells persist a sample; the fixture should keep some and cover others",
				f.Name(), wantSt.NumPersistedSamples, wantSt.NumIcebergCells)
		}
		for _, workers := range []int{1, 2, 4} {
			label := fmt.Sprintf("%s workers=%d", f.Name(), workers)
			p.Workers = workers
			got, err := Build(context.Background(), tbl, p)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !bytes.Equal(saveBytes(t, got), want) {
				t.Fatalf("%s: the fused build saves different bytes from sampling every cell", label)
			}
			st := got.Stats()
			if st.NumPersistedSamples != wantSt.NumPersistedSamples || st.SampleTableBytes != wantSt.SampleTableBytes ||
				st.CubeTableBytes != wantSt.CubeTableBytes || st.SamGraphEdges != wantSt.SamGraphEdges ||
				st.SamGraphPairsTested != wantSt.SamGraphPairsTested || st.SamGraphCoverTests != wantSt.SamGraphCoverTests ||
				st.SamGraphRowCosts != wantSt.SamGraphRowCosts || st.SamGraphRowCostsReused != wantSt.SamGraphRowCostsReused {
				t.Fatalf("%s: stats %+v, sampling every cell gives %+v", label, st, wantSt)
			}
			if st.GreedyRunsKept != int64(st.NumPersistedSamples) || st.GreedyRunsDiscarded < 0 ||
				st.GreedyRunsKept+st.GreedyRunsDiscarded > int64(st.NumIcebergCells) {
				t.Fatalf("%s: %d greedy runs kept, %d discarded, for %d samples over %d iceberg cells", label,
					st.GreedyRunsKept, st.GreedyRunsDiscarded, st.NumPersistedSamples, st.NumIcebergCells)
			}
			if workers == 1 && st.GreedyRunsDiscarded != 0 {
				t.Fatalf("%s: %d greedy runs discarded with no worker to sample ahead", label, st.GreedyRunsDiscarded)
			}
		}
	}
}

// A greedy failure on a cell the fused build keeps fails the build and
// names the cell.
func TestBuildFusedSamplingErrorNamesCell(t *testing.T) {
	tbl := nyctaxi.Generate(6000, 6)
	p := DefaultParams(loss.NewHeatmap(nyctaxi.ColPickup, geo.Euclidean), 0.002, nyctaxi.CubedAttrs[:4]...)
	p.Greedy.MaxSize = 1
	for _, workers := range []int{1, 4} {
		p.Workers = workers
		_, err := Build(context.Background(), tbl, p)
		if !errors.Is(err, sampling.ErrBudgetExhausted) || !strings.Contains(err.Error(), "sampling cell") {
			t.Fatalf("workers=%d: Build = %v, want the budget error naming the cell", workers, err)
		}
	}
}
