package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/loss"
)

// appendRows copies every row of src into dst (schemas must match).
func appendRows(t *testing.T, dst, src *dataset.Table) {
	t.Helper()
	vals := make([]dataset.Value, src.NumCols())
	for r := 0; r < src.NumRows(); r++ {
		for c := 0; c < src.NumCols(); c++ {
			vals[c] = src.Value(r, c)
		}
		dst.MustAppendRow(vals...)
	}
}

// The tentpole invariant of the snapshot design: queries running
// concurrently with appends are (a) race-free, (b) always answered from
// SOME published snapshot — never from a half-updated cube — and
// (c) every returned sample still satisfies the deterministic loss
// guarantee against the raw data of whichever version it came from.
//
// The writer appends batches sequentially while reader goroutines
// hammer probe cells. Because each append swaps in a complete successor
// snapshot, a returned sample must be within theta of the raw answer at
// SOME version v in 0..K; a torn read (mixing versions) would fail every
// version's check. Run under -race to catch memory-level races too.
func TestConcurrentQueryDuringAppend(t *testing.T) {
	const (
		numAppends = 3
		numReaders = 8
		batchRows  = 400
	)
	f := loss.NewHistogram("fare")
	theta := 1.0

	initial := taxiTable(2000, 171)
	tab := buildAppendable(t, initial, f, theta)

	// Batches are generated up front; versions[v] is the full raw table
	// after v appends, rebuilt test-side for guarantee checking.
	// versions[0] must be a COPY of initial: a cube built with
	// EnableAppend owns its input table and grows it on Append, so
	// readers may not touch `initial` once the writer starts.
	batches := make([]*dataset.Table, numAppends)
	versions := make([]*dataset.Table, numAppends+1)
	versions[0] = dataset.NewTable(initial.Schema())
	appendRows(t, versions[0], initial)
	for v := 1; v <= numAppends; v++ {
		batches[v-1] = taxiTable(batchRows, 171+int64(v))
		cum := dataset.NewTable(initial.Schema())
		appendRows(t, cum, versions[v-1])
		appendRows(t, cum, batches[v-1])
		versions[v] = cum
	}

	attrs := tab.CubedAttrs()
	probes := [][]Condition{
		nil, // unconstrained: the apex cell
		{{Attr: "payment", Value: dataset.StringValue("cash")}},
		{{Attr: "payment", Value: dataset.StringValue("dispute")},
			{Attr: "distance", Value: dataset.StringValue("[10,15)")}}, // iceberg cluster
		{{Attr: "distance", Value: dataset.StringValue("[0,5)")},
			{Attr: "passengers", Value: dataset.IntValue(2)}},
	}
	// Raw answers per (version, probe), precomputed so readers do no
	// locking of their own.
	raws := make([][]dataset.View, numAppends+1)
	for v := range raws {
		raws[v] = make([]dataset.View, len(probes))
		for p, conds := range probes {
			raws[v][p] = rawAnswer(versions[v], attrs, conds)
		}
	}

	var (
		done    atomic.Bool
		queries atomic.Int64
		wg      sync.WaitGroup
	)
	errc := make(chan error, numReaders+1)
	ctx := context.Background()

	for r := 0; r < numReaders; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !done.Load() || i < 50; i++ {
				p := i % len(probes)
				res, err := tab.Query(ctx, probes[p])
				if err != nil {
					errc <- err
					return
				}
				queries.Add(1)
				sample := dataset.FullView(res.Sample)
				// The sample must satisfy the guarantee against the raw
				// answer of at least one published version. Empty raw
				// answers carry no guarantee obligation.
				ok, checked := false, false
				for v := 0; v <= numAppends && !ok; v++ {
					raw := raws[v][p]
					if raw.Len() == 0 {
						continue
					}
					checked = true
					ok = f.Loss(raw, sample) <= theta
				}
				if checked && !ok {
					errc <- &queryGuaranteeError{probe: p, rows: sample.Len()}
					return
				}
			}
		}()
	}

	// Writer: sequential appends; each must advance the snapshot pointer
	// (no stale snapshot may survive its swap).
	prev := tab.snap.Load()
	for v := 1; v <= numAppends; v++ {
		if _, err := tab.Append(ctx, batches[v-1]); err != nil {
			t.Fatalf("append %d: %v", v, err)
		}
		cur := tab.snap.Load()
		if cur == prev {
			t.Fatalf("append %d did not publish a new snapshot", v)
		}
		prev = cur
	}
	done.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if queries.Load() < numReaders*50 {
		t.Fatalf("readers only completed %d queries", queries.Load())
	}

	// After the dust settles the final snapshot must satisfy the
	// guarantee against the FINAL raw table for every cell — i.e. the
	// concurrent episode left the cube in the same state a quiet
	// sequence of appends would have.
	checkAllCells(t, versions[numAppends], tab, f, theta)
}

type queryGuaranteeError struct {
	probe int
	rows  int
}

func (e *queryGuaranteeError) Error() string {
	return "concurrent query returned a sample violating the loss guarantee for every published version"
}

// A query must not observe the cube mid-append: the snapshot a Query
// loads is immutable, so results obtained before an Append completes
// must match a pre-append raw version exactly. This pins the atomicity
// (readers see old state or new state, nothing in between) that the
// single-pointer swap is supposed to provide.
func TestSnapshotImmutableDuringAppend(t *testing.T) {
	f := loss.NewHistogram("fare")
	initial := taxiTable(1500, 191)
	tab := buildAppendable(t, initial, f, 1.0)

	sn := tab.snap.Load()
	statsBefore := tab.Stats()
	globalBefore := tab.GlobalSample()

	if _, err := tab.Append(context.Background(), taxiTable(500, 192)); err != nil {
		t.Fatal(err)
	}

	// The old snapshot object is untouched by the append.
	if tab.snap.Load() == sn {
		t.Fatal("append did not swap the snapshot")
	}
	if sn.global.tbl != globalBefore {
		t.Fatal("append mutated the retired snapshot's global sample pointer")
	}
	if sn.stats != statsBefore {
		t.Fatalf("append mutated the retired snapshot's stats: %+v vs %+v", sn.stats, statsBefore)
	}
}
