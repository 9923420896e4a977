package core

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"github.com/tabula-db/tabula/internal/loss"
)

// The version/generation contract: the cube-wide Version is 1 after
// Build (and Load) and +1 per published Append; each shard carries its
// own generation, bumped only when an Append touches it. Every
// QueryResult is stamped with both — Version is the batch
// tear-detection axis, {Shard, Generation} the response-cache
// invalidation axis.
func TestGenerationLifecycle(t *testing.T) {
	tbl := taxiTable(2000, 401)
	tab := buildAppendable(t, tbl, loss.NewHistogram("fare"), 1.0)
	if g := tab.Generation(); g != 1 {
		t.Fatalf("version after Build = %d, want 1", g)
	}
	gens := tab.Generations()
	if len(gens) != tab.NumShards() {
		t.Fatalf("generation vector has %d entries, want %d shards", len(gens), tab.NumShards())
	}
	for si, g := range gens {
		if g != 1 {
			t.Fatalf("shard %d generation after Build = %d, want 1", si, g)
		}
	}
	res, err := tab.QueryByValues(context.Background(), map[string]string{"payment": "cash"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 1 {
		t.Fatalf("QueryResult.Version = %d, want 1", res.Version)
	}
	if res.Shard >= 0 && res.Generation != gens[res.Shard] {
		t.Fatalf("QueryResult.Generation = %d, want shard %d's generation %d", res.Generation, res.Shard, gens[res.Shard])
	}
	for i := 1; i <= 3; i++ {
		before := tab.Generations()
		stats, err := tab.Append(context.Background(), taxiTable(200, int64(402+i)))
		if err != nil {
			t.Fatal(err)
		}
		if g := tab.Generation(); g != uint64(1+i) {
			t.Fatalf("version after append %d = %d, want %d", i, g, 1+i)
		}
		// Exactly the touched shards bump, by exactly one.
		after := tab.Generations()
		touched := make(map[int]bool, len(stats.ShardsTouched))
		for _, si := range stats.ShardsTouched {
			touched[si] = true
		}
		for si := range after {
			want := before[si]
			if touched[si] {
				want++
			}
			if after[si] != want {
				t.Fatalf("append %d: shard %d generation = %d, want %d (touched=%v)", i, si, after[si], want, touched[si])
			}
		}
	}
	res, err = tab.QueryByValues(context.Background(), map[string]string{"payment": "cash"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 4 {
		t.Fatalf("QueryResult.Version after appends = %d, want 4", res.Version)
	}
	if res.Shard >= 0 {
		if want := tab.Generations()[res.Shard]; res.Generation != want {
			t.Fatalf("QueryResult.Generation = %d, want shard %d's generation %d", res.Generation, res.Shard, want)
		}
	}

	// A persisted-and-restored cube starts over at version 1 with every
	// shard at generation 1.
	var buf bytes.Buffer
	if err := tab.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g := loaded.Generation(); g != 1 {
		t.Fatalf("version after Load = %d, want 1", g)
	}
	for si, g := range loaded.Generations() {
		if g != 1 {
			t.Fatalf("shard %d generation after Load = %d, want 1", si, g)
		}
	}
}

// The snapshot-tear regression: QueryByValues used to load the snapshot
// once to parse values and again (inside Query) to answer, so an Append
// between the loads could parse against one version and answer from
// another. QueryBatchByValues makes the single-snapshot contract
// observable: every result of a batch must carry the SAME Version, no
// matter how many Appends publish mid-batch. (Per-shard Generations
// legitimately differ within a batch — shards age independently.)
func TestQueryBatchSnapshotConsistentDuringAppends(t *testing.T) {
	tbl := taxiTable(2500, 411)
	tab := buildAppendable(t, tbl, loss.NewHistogram("fare"), 1.0)

	queries := make([]map[string]string, 64)
	vals := []string{"cash", "credit", "dispute", "no charge"}
	for i := range queries {
		queries[i] = map[string]string{"payment": vals[i%len(vals)]}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		seed := int64(500)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := tab.Append(context.Background(), taxiTable(50, seed)); err != nil {
				t.Errorf("append: %v", err)
				return
			}
			seed++
		}
	}()
	for iter := 0; iter < 50; iter++ {
		results, err := tab.QueryBatchByValues(context.Background(), queries)
		if err != nil {
			t.Fatal(err)
		}
		ver := results[0].Version
		for i, r := range results {
			if r.Version != ver {
				t.Fatalf("iter %d: result %d has version %d, batch started at %d (torn snapshot)", iter, i, r.Version, ver)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// The epoch names the cube instance: every answer of one instance
// carries it — empty answers included, before and after appends — and
// a second Build of the same table, or a Load of the saved cube, draws
// another, so a {shard, generation, sample} triple never names two
// instances' bytes.
func TestEpochNamesTheInstance(t *testing.T) {
	tab := buildAppendable(t, taxiTable(2000, 401), loss.NewHistogram("fare"), 1.0)
	query := func(c *Tabula, where map[string]string) *QueryResult {
		t.Helper()
		res, err := c.QueryByValues(context.Background(), where)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cash, unknown := map[string]string{"payment": "cash"}, map[string]string{"payment": "barter"}
	epoch := query(tab, cash).Epoch
	if res := query(tab, unknown); res.Shard != -1 || res.Epoch != epoch {
		t.Fatalf("empty answer: shard %d epoch %x, want -1 and the cube's %x", res.Shard, res.Epoch, epoch)
	}
	if _, err := tab.Append(context.Background(), taxiTable(200, 402)); err != nil {
		t.Fatal(err)
	}
	if got := query(tab, cash).Epoch; got != epoch {
		t.Fatalf("epoch after an append = %x, want %x", got, epoch)
	}

	other := buildAppendable(t, taxiTable(2000, 401), loss.NewHistogram("fare"), 1.0)
	if got := query(other, cash).Epoch; got == epoch {
		t.Fatalf("two builds drew the same epoch %x", got)
	}
	var buf bytes.Buffer
	if err := tab.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := query(loaded, cash).Epoch; got == epoch {
		t.Fatalf("a loaded cube kept the saved cube's epoch %x", got)
	}
}
