package cube

import (
	"context"
	"reflect"
	"testing"

	"github.com/tabula-db/tabula/internal/geo"
	"github.com/tabula-db/tabula/internal/loss"
	"github.com/tabula-db/tabula/internal/sampling"
)

// The concurrent lattice derivation must produce the same per-cuboid
// inventories, state accounting, and retained states as a single-worker
// run at every worker count (including counts exceeding the cuboid
// fan-out).
func TestDryRunKeepWorkersEquivalent(t *testing.T) {
	tbl := taxiMini(4000, 91)
	enc, codec := setupCube(t, tbl)
	f := loss.NewMean("fare")
	ev, err := f.BindSample(tbl, globalSample(tbl, 200, 2))
	if err != nil {
		t.Fatal(err)
	}
	theta := 0.10
	ref, refKept, err := DryRunKeep(context.Background(), tbl, enc, codec, ev, theta, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		got, gotKept, err := DryRunKeep(context.Background(), tbl, enc, codec, ev, theta, true, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got.RowsScanned != ref.RowsScanned {
			t.Fatalf("workers=%d: RowsScanned = %d, want %d", workers, got.RowsScanned, ref.RowsScanned)
		}
		if got.StateBytes != ref.StateBytes {
			t.Fatalf("workers=%d: StateBytes = %d, want %d", workers, got.StateBytes, ref.StateBytes)
		}
		for mask := range ref.Cuboids {
			if got.Cuboids[mask].NumCells != ref.Cuboids[mask].NumCells {
				t.Fatalf("workers=%d: cuboid %b has %d cells, want %d",
					workers, mask, got.Cuboids[mask].NumCells, ref.Cuboids[mask].NumCells)
			}
			if !reflect.DeepEqual(got.Cuboids[mask].IcebergKeys, ref.Cuboids[mask].IcebergKeys) {
				t.Fatalf("workers=%d: cuboid %b iceberg keys %v, want %v",
					workers, mask, got.Cuboids[mask].IcebergKeys, ref.Cuboids[mask].IcebergKeys)
			}
		}
		if len(gotKept) != len(refKept) {
			t.Fatalf("workers=%d: kept %d states, want %d", workers, len(gotKept), len(refKept))
		}
		for key := range refKept {
			if _, ok := gotKept[key]; !ok {
				t.Fatalf("workers=%d: kept states missing key %d", workers, key)
			}
		}
	}
}

// Without keep, the derivation frees parent states as branches finish;
// the inventories must be unaffected.
func TestDryRunNoKeepMatchesKeep(t *testing.T) {
	tbl := taxiMini(3000, 92)
	enc, codec := setupCube(t, tbl)
	f := loss.NewMean("fare")
	ev, err := f.BindSample(tbl, globalSample(tbl, 150, 3))
	if err != nil {
		t.Fatal(err)
	}
	withKeep, _, err := DryRunKeep(context.Background(), tbl, enc, codec, ev, 0.08, true, 4)
	if err != nil {
		t.Fatal(err)
	}
	noKeep, kept, err := DryRunKeep(context.Background(), tbl, enc, codec, ev, 0.08, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	if kept != nil {
		t.Fatal("keep=false returned retained states")
	}
	if noKeep.TotalCells() != withKeep.TotalCells() || noKeep.TotalIcebergCells() != withKeep.TotalIcebergCells() {
		t.Fatalf("inventories diverge: %d/%d cells vs %d/%d",
			noKeep.TotalIcebergCells(), noKeep.TotalCells(),
			withKeep.TotalIcebergCells(), withKeep.TotalCells())
	}
}

// A pre-cancelled context aborts the dry run before scanning.
func TestDryRunCancelled(t *testing.T) {
	tbl := taxiMini(2000, 93)
	enc, codec := setupCube(t, tbl)
	f := loss.NewMean("fare")
	ev, err := f.BindSample(tbl, globalSample(tbl, 100, 4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DryRun(ctx, tbl, enc, codec, ev, 0.1); err != context.Canceled {
		t.Fatalf("DryRun err = %v, want context.Canceled", err)
	}
}

// A pre-cancelled context aborts the real run with context.Canceled.
func TestRealRunCancelled(t *testing.T) {
	tbl := taxiMini(2000, 94)
	enc, codec := setupCube(t, tbl)
	f := loss.NewMean("fare")
	ev, err := f.BindSample(tbl, globalSample(tbl, 100, 5))
	if err != nil {
		t.Fatal(err)
	}
	dry, err := DryRun(context.Background(), tbl, enc, codec, ev, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = RealRun(ctx, tbl, enc, codec, dry, f, 0.1, RealRunOptions{Greedy: sampling.DefaultGreedyOptions()})
	if err != context.Canceled {
		t.Fatalf("RealRun err = %v, want context.Canceled", err)
	}
}

// Workers are fed the largest cells first, but a cell's sample depends on
// its own rows alone: the cells, their order and every SampleRows must be
// identical at every worker count.
func TestRealRunWorkersEquivalent(t *testing.T) {
	tbl := taxiMini(1500, 95)
	enc, codec := setupCube(t, tbl)
	for _, tc := range []struct {
		f     loss.Func
		theta float64
	}{
		{loss.NewMean("fare"), 0.08},
		{loss.NewHeatmap("pickup", geo.Euclidean), 0.004},
	} {
		ev, err := tc.f.(loss.DryRunner).BindSample(tbl, globalSample(tbl, 150, 6))
		if err != nil {
			t.Fatal(err)
		}
		dry, err := DryRun(context.Background(), tbl, enc, codec, ev, tc.theta)
		if err != nil {
			t.Fatal(err)
		}
		if dry.TotalIcebergCells() < 4 {
			t.Fatalf("%s: %d iceberg cells, want several to deal out", tc.f.Name(), dry.TotalIcebergCells())
		}
		var ref *RealRunResult
		for _, workers := range []int{1, 2, 4} {
			got, err := RealRun(context.Background(), tbl, enc, codec, dry, tc.f, tc.theta, RealRunOptions{
				Greedy: sampling.DefaultGreedyOptions(), Workers: workers, KeepRawRows: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = got
				continue
			}
			if len(got.Cells) != len(ref.Cells) {
				t.Fatalf("%s workers=%d: %d cells, workers=1 has %d", tc.f.Name(), workers, len(got.Cells), len(ref.Cells))
			}
			for i, c := range got.Cells {
				r := ref.Cells[i]
				if c.Key != r.Key || c.Mask != r.Mask || !reflect.DeepEqual(c.SampleRows, r.SampleRows) {
					t.Fatalf("%s workers=%d: cell %d is (%b, %d) with sample %v, workers=1 has (%b, %d) with %v",
						tc.f.Name(), workers, i, c.Mask, c.Key, c.SampleRows, r.Mask, r.Key, r.SampleRows)
				}
			}
		}
	}
}
