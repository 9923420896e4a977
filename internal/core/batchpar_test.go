package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/tabula-db/tabula/internal/loss"
)

// resFingerprint renders every observable field of a QueryResult; two
// results with identical fingerprints are byte-identical answers.
func resFingerprint(res *QueryResult) string {
	return fmt.Sprintf("global=%v key=%d shard=%d sample=%d gen=%d ver=%d\n%s",
		res.FromGlobal, res.CellKey, res.Shard, res.SampleID, res.Generation, res.Version,
		tableFingerprint(res.Sample))
}

// viewportQueries builds a deterministic batch mixing every resolution
// path: hot display-form hits, shared cells (payload dedup), rolled-up
// cells, unknown values (empty population), and non-canonical integer
// spellings ("01", "+2") that miss the display fast path but resolve.
func viewportQueries() []map[string]string {
	dists := []string{"", "[0,5)", "[5,10)", "[10,15)"}
	pass := []string{"", "1", "2", "3", "01", "+2"}
	pays := []string{"", "cash", "credit", "dispute", "barter"}
	var out []map[string]string
	for _, d := range dists {
		for _, c := range pass {
			for _, p := range pays {
				where := map[string]string{}
				if d != "" {
					where["distance"] = d
				}
				if c != "" {
					where["passengers"] = c
				}
				if p != "" {
					where["payment"] = p
				}
				out = append(out, where)
			}
		}
	}
	// Repeat the viewport so every cell appears several times.
	out = append(out, out...)
	return out
}

// A batch is the one-query path run over a viewport against one
// snapshot: at any shard count, QueryBatchByValues must produce
// byte-identical results to answering each query on its own — same
// samples, same identities, same versions, in the same order — and
// two runs of the same batch must agree.
func TestQueryBatchParallelDeterminism(t *testing.T) {
	queries := viewportQueries()
	for _, shards := range []int{1, 16} {
		p := DefaultParams(loss.NewHistogram("fare"), 1.0, "distance", "passengers", "payment")
		p.Seed = 11
		p.Shards = shards
		tab, err := Build(context.Background(), taxiTable(2500, 171), p)
		if err != nil {
			t.Fatal(err)
		}

		refPrints := make([]string, len(queries))
		for i, q := range queries {
			res, err := tab.QueryByValues(context.Background(), q)
			if err != nil {
				t.Fatalf("S=%d query %d: %v", shards, i, err)
			}
			refPrints[i] = resFingerprint(res)
		}
		for run := 0; run < 2; run++ {
			got, err := tab.QueryBatchByValues(context.Background(), queries)
			if err != nil {
				t.Fatalf("S=%d run %d: %v", shards, run, err)
			}
			if len(got) != len(queries) {
				t.Fatalf("S=%d run %d: %d results, want %d", shards, run, len(got), len(queries))
			}
			for i, res := range got {
				if fp := resFingerprint(res); fp != refPrints[i] {
					t.Fatalf("S=%d run %d: query %d diverged from the one-query path:\n got %s\nwant %s",
						shards, run, i, fp, refPrints[i])
				}
			}
		}
	}
}

// A failing batch fails with the lowest-indexed bad query's error, and
// the same error every time.
func TestQueryBatchParallelErrorDeterminism(t *testing.T) {
	p := DefaultParams(loss.NewHistogram("fare"), 1.0, "distance", "passengers", "payment")
	p.Seed = 11
	tab, err := Build(context.Background(), taxiTable(1200, 173), p)
	if err != nil {
		t.Fatal(err)
	}
	queries := viewportQueries()
	// Three distinct failures planted out of order; index 40 must win.
	queries[90] = map[string]string{"ghost": "1"}                 // unknown attribute
	queries[40] = map[string]string{"passengers": "not-a-number"} // parse error
	queries[70] = map[string]string{"fare": "12.5"}               // in schema, not cubed

	_, refErr := tab.QueryBatchByValues(context.Background(), queries)
	if refErr == nil {
		t.Fatal("batch with bad queries succeeded")
	}
	if !strings.HasPrefix(refErr.Error(), "query 40:") {
		t.Fatalf("error %q does not name the lowest bad query", refErr)
	}
	_, single := tab.QueryByValues(context.Background(), queries[40])
	if want := "query 40: " + single.Error(); refErr.Error() != want {
		t.Fatalf("error %q, want %q", refErr, want)
	}
	for run := 0; run < 3; run++ {
		if _, err := tab.QueryBatchByValues(context.Background(), queries); err == nil || err.Error() != refErr.Error() {
			t.Fatalf("run %d: error %v, first run said %q", run, err, refErr)
		}
	}
}

// cancelAfter is a context whose Err reports Canceled from its n-th
// call on: a cancellation that lands in the middle of a batch.
type cancelAfter struct {
	context.Context
	calls, n int
}

func (c *cancelAfter) Err() error {
	c.calls++
	if c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// A context cancelled mid-batch stops the batch with ctx.Err() before
// the next query, and one cancelled up front stops it before the first.
func TestQueryBatchParallelCancellation(t *testing.T) {
	p := DefaultParams(loss.NewHistogram("fare"), 1.0, "distance", "passengers", "payment")
	p.Seed = 11
	tab, err := Build(context.Background(), taxiTable(1200, 177), p)
	if err != nil {
		t.Fatal(err)
	}
	queries := viewportQueries()
	ctx := &cancelAfter{Context: context.Background(), n: 10}
	if _, err := tab.QueryBatchByValues(ctx, queries); err != context.Canceled {
		t.Fatalf("batch cancelled mid-flight returned %v, want context.Canceled", err)
	}
	if ctx.calls != ctx.n {
		t.Fatalf("batch polled ctx %d times after cancellation at poll %d", ctx.calls, ctx.n)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tab.QueryBatchByValues(cancelled, queries); err != context.Canceled {
		t.Fatalf("cancelled batch returned %v, want context.Canceled", err)
	}
}

// The dictionary fast path must agree with the sorted parse-then-
// resolve slow path on every query — answers and errors alike. This is
// the answer-preservation contract of the snapshot value dictionaries.
func TestQueryByValuesFastPathMatchesSlowPath(t *testing.T) {
	p := DefaultParams(loss.NewHistogram("fare"), 1.0, "distance", "passengers", "payment")
	p.Seed = 11
	tab, err := Build(context.Background(), taxiTable(1500, 179), p)
	if err != nil {
		t.Fatal(err)
	}
	cases := viewportQueries()
	cases = append(cases,
		map[string]string{"ghost": "1"},
		map[string]string{"passengers": "not-a-number"},
		map[string]string{"passengers": "99999999999999999999"},
		map[string]string{"fare": "12.5"},
		map[string]string{"payment": "barter", "ghost": "1"}, // unknown value + unknown attr: sorted order decides
		map[string]string{"payment": "barter", "fare": "1"},  // unknown value + not-cubed attr
		map[string]string{"": ""},
	)
	sn := tab.snap.Load()
	for _, where := range cases {
		fast, fastErr := tab.QueryByValues(context.Background(), where)
		slow, slowErr := tab.queryValuesSlow(sn, where)
		if (fastErr == nil) != (slowErr == nil) {
			t.Fatalf("%v: fast err %v, slow err %v", where, fastErr, slowErr)
		}
		if fastErr != nil {
			if fastErr.Error() != slowErr.Error() {
				t.Fatalf("%v: fast err %q, slow err %q", where, fastErr, slowErr)
			}
			continue
		}
		if resFingerprint(fast) != resFingerprint(slow) {
			t.Fatalf("%v: fast path diverged from slow path:\n got %s\nwant %s",
				where, resFingerprint(fast), resFingerprint(slow))
		}
	}
}
