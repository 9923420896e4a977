// Package core implements the Tabula middleware itself: initialization of
// the partially materialized sampling cube (global sample → dry run →
// real run → representative sample selection) and the query processor
// that answers dashboard queries from materialized samples with a
// deterministic accuracy-loss guarantee.
//
// # Concurrency model
//
// The serving state of a Tabula instance — cube table, sample table,
// global sample, key codec — lives in an immutable snapshot published
// through an atomic pointer. Query and QueryIn read the snapshot with a
// single atomic load and never take a lock, so dashboard traffic on one
// cube is unaffected by maintenance on the same (or any other) cube.
// Append builds a successor snapshot off the hot path and publishes it
// with one atomic swap; concurrent readers keep serving the previous
// snapshot until the swap and the new one afterwards, never a mix.
//
// Within a snapshot the cell→sample state is hash-partitioned into
// shards keyed by cell group-key (engine.ShardOfKey), each carrying its
// own monotonic generation. A successor copies only the shards an
// Append touches — untouched shards are structurally shared by pointer
// and keep their generation, so anything cached off a {shard,
// generation} pair (response bytes, ETags) stays valid across appends
// that never land in that shard.
package core

import (
	"context"
	"fmt"
	"math/rand"
	randv2 "math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tabula-db/tabula/internal/cube"
	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/engine"
	"github.com/tabula-db/tabula/internal/loss"
	"github.com/tabula-db/tabula/internal/obs"
	"github.com/tabula-db/tabula/internal/samgraph"
	"github.com/tabula-db/tabula/internal/sampling"
	"github.com/tabula-db/tabula/internal/wire"
)

// Params configures Tabula initialization — the inputs of the paper's
// Section II: the user-defined loss function, the accuracy loss threshold
// θ, and the cubed attributes. The remaining fields tune internals and
// have sensible zero-value behaviour via DefaultParams.
type Params struct {
	// Loss is the user-defined accuracy loss function.
	Loss loss.Func
	// Theta is the accuracy loss threshold; every sample Tabula returns
	// is guaranteed to have loss ≤ Theta against the raw query answer.
	Theta float64
	// CubedAttrs are the attributes dashboards filter on (WHERE-clause
	// predicates must use a subset of them).
	CubedAttrs []string
	// Epsilon and Delta size the global sample via Serfling's
	// inequality; the paper's defaults are 0.05 and 0.01.
	Epsilon float64
	Delta   float64
	// Seed drives the global random sample (deterministic experiments).
	Seed int64
	// Greedy configures the per-cell sampler.
	Greedy sampling.GreedyOptions
	// Cost selects the real-run access-path policy.
	Cost cube.CostPolicy
	// SampleSelection enables representative sample selection; disabling
	// it yields the paper's Tabula* ablation.
	SampleSelection bool
	// SamGraph tunes the selection similarity join.
	SamGraph samgraph.BuildOptions
	// Workers bounds initialization parallelism (0 = GOMAXPROCS). It
	// governs every init stage: the dry-run base scan and lattice
	// derivation, the real-run per-cell samplers, and the SamGraph
	// similarity join (the join's own SamGraph.Workers, when set,
	// takes precedence for that stage) — and Append's per-shard
	// maintenance, which is a partial rebuild. It bounds building only:
	// queries, batches included, resolve on the caller's goroutine.
	Workers int
	// EnableAppend keeps the raw table, encoding, and per-cell loss
	// states alive after Build so Append can maintain the cube
	// incrementally. Costs extra memory proportional to the cell count.
	EnableAppend bool
	// ScanChunk is the row-chunk size of the vectorized dry-run scan
	// (0 = engine.ChunkRows). Results are identical at any size; only
	// throughput changes.
	ScanChunk int
	// Shards is the number of hash partitions the cell→sample state is
	// split into (0 = DefaultShards). Each shard carries its own
	// generation and is maintained independently by Append, so more
	// shards mean finer-grained cache invalidation and more append
	// parallelism. Query answers are identical at any shard count; the
	// count is fixed for the cube's lifetime (Save persists it).
	Shards int
}

// DefaultShards is the shard count used when Params.Shards is zero:
// enough partitions that a localized append leaves most of the cube's
// generations (and therefore most cached responses) untouched, small
// enough that per-shard overhead stays negligible.
const DefaultShards = 16

// DefaultParams returns the paper's default configuration for the given
// loss, threshold and cubed attributes.
func DefaultParams(f loss.Func, theta float64, cubedAttrs ...string) Params {
	return Params{
		Loss:            f,
		Theta:           theta,
		CubedAttrs:      cubedAttrs,
		Epsilon:         0.05,
		Delta:           0.01,
		Greedy:          sampling.DefaultGreedyOptions(),
		Cost:            cube.CostModelInequation1,
		SampleSelection: true,
	}
}

// Stats reports initialization outcomes — the quantities the paper's
// experiment section measures (initialization-time breakdown, memory
// footprint breakdown, cell inventories).
type Stats struct {
	// Timing breakdown (Figures 8 and 10a). RealRunTime covers fetching
	// the iceberg cells' raw rows and, unless selection samples on demand
	// (a loss with per-row costs, with SampleSelection on), drawing every
	// cell's local sample. SelectionTime covers selection — on demand,
	// including the greedy sampling of the cells it keeps — and the
	// materialization of the persisted samples.
	GlobalSampleTime time.Duration
	DryRunTime       time.Duration
	RealRunTime      time.Duration
	SelectionTime    time.Duration
	InitTime         time.Duration

	// Cube inventory (Figure 5a annotations).
	NumCuboids        int
	NumIcebergCuboids int
	NumCells          int
	NumIcebergCells   int

	// Sample inventory.
	GlobalSampleSize    int
	NumPersistedSamples int
	SamGraphEdges       int
	SamGraphPairsTested int64
	// SamGraphCoverTests is how many of SamGraphPairsTested the cover pass
	// ran — each cell tested only against the representatives chosen
	// before it — rather than the exhaustive join (0 for losses without
	// per-row costs, which take the join).
	SamGraphCoverTests int64
	// SamGraphRowCosts is how many per-row costs the cover pass's pair
	// tests summed and SamGraphRowCostsReused how many of those were
	// remembered from an earlier target instead of recomputed (both 0 for
	// losses without per-row costs).
	SamGraphRowCosts       int64
	SamGraphRowCostsReused int64
	// SamGraphSummaries is how many cells the join folded once into a
	// raw-table state scored by every candidate's pair test (0 for losses
	// whose states depend on the sample).
	SamGraphSummaries int64
	// SamGraphPairsPruned is how many of SamGraphPairsTested the join
	// decided by the target's key alone, outside the candidate's key range
	// (0 for losses whose evaluators offer no key range).
	SamGraphPairsPruned int64
	// GreedyRunsKept is how many greedy sampler (Algorithm 1) runs made a
	// sample the build kept: every iceberg cell's when the real run
	// samples them all, the representatives' when selection samples on
	// demand (losses with per-row costs). GreedyRunsDiscarded is how many
	// speculative runs the on-demand path threw away because the cell
	// turned out covered; it depends on scheduling, never on the cube.
	GreedyRunsKept      int64
	GreedyRunsDiscarded int64

	// Memory footprint breakdown in bytes (Figures 9 and 10b): the three
	// physical components of Tabula.
	GlobalSampleBytes int64
	CubeTableBytes    int64
	SampleTableBytes  int64
}

// TotalBytes is the full footprint of the materialized sampling cube.
func (s Stats) TotalBytes() int64 {
	return s.GlobalSampleBytes + s.CubeTableBytes + s.SampleTableBytes
}

// sample is one physical sample the cube serves — a persisted
// representative, the global sample, or the empty answer — together
// with its materialized wire bytes. A sample is shared by pointer across
// the shards that reference it and across successor snapshots, so its
// bytes are encoded once however many shard generations it outlives.
//
// tbl is immutable. wire is the one documented exception to snapshot
// immutability (DESIGN.md §7.12): a write-once cell that goes from
// empty to filled on the sample's first serve and never changes after,
// so a reader that sees bytes sees the only bytes the sample will ever
// have. It dies with the sample: nothing else refers to it.
type sample struct {
	tbl  *dataset.Table
	wire wire.Cell
}

// shard is one hash partition of the cell→sample state: the cube-table
// entries of every cell whose group-key routes here
// (engine.ShardOfKey), plus the shard-local sample table those entries
// index into. A shard is immutable once it is reachable from a
// published snapshot — Append builds a successor shard for each
// partition it touches and leaves the rest shared by pointer.
type shard struct {
	// generation is the shard's monotonic version: 1 for a freshly
	// built (or loaded) cube, +1 each time an Append touches this
	// shard. Together with a shard-local sample id it forms a stable
	// identity for cached responses — within a shard generation every
	// sample table is immutable and local ids are never reused (Append
	// only appends to the sample list, it never compacts it), so
	// {shard, generation, sampleID} names one immutable byte-identical
	// payload forever.
	generation uint64
	cubeTable  map[uint64]int32 // cell key -> shard-local sample id
	samples    []*sample        // shard-local sample table
}

// newShard returns an empty shard at generation 1.
func newShard() *shard {
	return &shard{generation: 1, cubeTable: make(map[uint64]int32)}
}

// successor returns an unpublished deep copy of sh with its generation
// bumped: the cube table is copied (the one structure Append rewrites),
// the sample tables themselves are shared (immutable once built).
func (sh *shard) successor() *shard {
	next := &shard{
		generation: sh.generation + 1,
		cubeTable:  make(map[uint64]int32, len(sh.cubeTable)),
		samples:    append([]*sample(nil), sh.samples...),
	}
	for k, v := range sh.cubeTable {
		next.cubeTable[k] = v
	}
	return next
}

// snapshot is the immutable serving state of a Tabula instance:
// everything the query processor touches. A snapshot is never mutated
// after publication — Append assembles a successor (sharing the
// unchanged pieces) and swaps the pointer, so a reader that loaded a
// snapshot can keep using every field without synchronization.
type snapshot struct {
	schema   dataset.Schema
	attrVals [][]dataset.Value // per cubed attribute: code -> value
	attrIdx  map[string]int    // cubed attribute name -> position
	// dict indexes attrVals for O(1) condition resolution (value→code
	// and display-string→code). Value domains are fixed for the cube's
	// lifetime, so successors share it by pointer forever.
	dict   *dictionary
	codec  *engine.KeyCodec
	global *sample
	// empty answers queries that address no population (a value outside
	// the domain). Its table never holds a row; successors share it.
	empty *sample
	// shards partitions the cell→sample state by group-key hash. The
	// slice has a fixed length for the cube's lifetime; its elements
	// are copy-on-write (see successor).
	shards []*shard
	stats  Stats
	// version is the snapshot's cube-wide monotonic version: 1 for a
	// freshly built (or loaded) cube, +1 per published Append. It
	// orders whole snapshots (batch viewports use it to prove they were
	// answered untorn); per-cell cache identity uses the per-shard
	// generations instead, which survive appends to other shards.
	version uint64
	// epoch names the cube instance: drawn at random once per Build or
	// Load, shared by every successor, never persisted. Shard
	// generations restart at 1 in every instance, so {shard, generation,
	// sample id} alone names different bytes in a rebuilt or reloaded
	// cube; with the epoch it names one physical sample for as long as
	// the sample lives.
	epoch uint64
}

// successor returns a shallow copy of s sharing the immutable pieces
// (schema, dictionaries, codec, global and empty samples) and the shard
// pointers themselves. Append replaces just the entries of the touched shards
// with shard successors, so untouched shards are structurally shared
// and keep their generation — the copy-on-write that lets snapshot-
// scoped caches survive unrelated appends.
func (s *snapshot) successor() *snapshot {
	next := *s
	next.version = s.version + 1
	next.shards = append([]*shard(nil), s.shards...)
	return &next
}

// shardOf returns the shard index of a cell group-key.
func (s *snapshot) shardOf(key uint64) int {
	return engine.ShardOfKey(key, len(s.shards))
}

// numIcebergCells counts cube-table entries across all shards.
func (s *snapshot) numIcebergCells() int {
	n := 0
	for _, sh := range s.shards {
		n += len(sh.cubeTable)
	}
	return n
}

// distinctSamples enumerates the distinct persisted sample tables
// across all shards, in deterministic first-occurrence order (shards in
// index order, local samples in id order). Representative samples that
// serve cells in several shards appear in each shard's local table but
// are one physical table shared by pointer; footprint accounting and
// persistence both dedupe through this.
func (s *snapshot) distinctSamples() []*sample {
	seen := make(map[*sample]bool)
	var out []*sample
	for _, sh := range s.shards {
		for _, sam := range sh.samples {
			if !seen[sam] {
				seen[sam] = true
				out = append(out, sam)
			}
		}
	}
	return out
}

// Tabula is an initialized middleware instance holding the partially
// materialized sampling cube of Figure 4: a cube table mapping iceberg
// cells to sample ids and a sample table of persisted representative
// samples, plus the global sample answering non-iceberg queries.
//
// All methods are safe for concurrent use. Queries are lock-free (one
// atomic snapshot load); Appends serialize among themselves on an
// internal maintainer lock but never block queries.
type Tabula struct {
	params Params
	// loadedLossName carries the loss name of an instance restored by
	// Load, which has no live loss.Func.
	loadedLossName string
	// snap is the published immutable serving state.
	snap atomic.Pointer[snapshot]
	// maintMu serializes maintenance (Append); the maintainer state
	// below is touched only while holding it.
	maintMu sync.Mutex
	// maint is non-nil for appendable cubes (Params.EnableAppend).
	maint *maintenance
	// metrics is the cube's armed observability instruments (nil until
	// RegisterMetrics). Recorded only on the maintenance path.
	metrics atomic.Pointer[appendMetrics]
}

// lossName returns the configured or persisted loss name.
func (t *Tabula) lossName() string {
	if t.params.Loss != nil {
		return t.params.Loss.Name()
	}
	return t.loadedLossName
}

// newSnapshot precomputes the derived lookup structures of a snapshot
// and allocates its empty shards.
func newSnapshot(schema dataset.Schema, cubedAttrs []string, nShards int) *snapshot {
	sn := &snapshot{
		schema:  schema,
		attrIdx: make(map[string]int, len(cubedAttrs)),
		shards:  make([]*shard, nShards),
		empty:   &sample{tbl: dataset.NewTable(schema)},
		version: 1,
		epoch:   newEpoch(),
	}
	for i := range sn.shards {
		sn.shards[i] = newShard()
	}
	for i, name := range cubedAttrs {
		sn.attrIdx[name] = i
	}
	return sn
}

// newEpoch draws a cube instance's epoch (see snapshot.epoch).
func newEpoch() uint64 { return randv2.Uint64() }

// Build initializes Tabula over the raw table: it draws the global
// sample, runs the dry-run and real-run stages, optionally runs
// representative sample selection, and materializes the cube.
//
// For a loss whose bound evaluators are loss.RowCosters (heatmap,
// histogram), with SampleSelection on, the real run only fetches the
// cells and selection draws each local sample on demand: the greedy
// sampler runs for the cells the cover pass keeps as representatives (and
// speculatively for a few it may yet keep), not for every iceberg cell.
// The cube is byte-identical to sampling every cell first.
//
// Every stage honors ctx: the dry-run scan and lattice derivation, the
// real-run samplers, and the SamGraph similarity join all poll it
// periodically, so cancelling ctx (e.g. an HTTP client disconnecting
// mid-CREATE) aborts initialization with ctx.Err() instead of burning
// cores on an unwanted cube. Params.Workers bounds the parallelism of
// every stage (0 = GOMAXPROCS).
func Build(ctx context.Context, tbl *dataset.Table, p Params) (*Tabula, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.Loss == nil {
		return nil, fmt.Errorf("core: Params.Loss is required")
	}
	if p.Theta < 0 {
		return nil, fmt.Errorf("core: negative loss threshold %v", p.Theta)
	}
	if len(p.CubedAttrs) == 0 {
		return nil, fmt.Errorf("core: at least one cubed attribute is required")
	}
	if p.Epsilon == 0 {
		p.Epsilon = 0.05
	}
	if p.Delta == 0 {
		p.Delta = 0.01
	}
	if p.Shards < 0 {
		return nil, fmt.Errorf("core: negative shard count %d", p.Shards)
	}
	if p.Shards == 0 {
		p.Shards = DefaultShards
	}
	t := &Tabula{params: p}
	// Stage wall times flow to the context-carried tracer (obs.Stages)
	// when one is installed; stats keep their own timings regardless.
	doneAll := obs.StartStage(ctx, "build_total")
	sn := newSnapshot(tbl.Schema().Clone(), p.CubedAttrs, p.Shards)
	cols := make([]int, len(p.CubedAttrs))
	for i, name := range p.CubedAttrs {
		idx := tbl.Schema().ColumnIndex(name)
		if idx < 0 {
			return nil, fmt.Errorf("core: unknown cubed attribute %q", name)
		}
		cols[i] = idx
	}
	start := time.Now()
	doneGlobal := obs.StartStage(ctx, "global_sample")

	// Stage 0: encode attributes and draw the global random sample.
	enc, err := engine.NewCatEncoding(tbl, cols)
	if err != nil {
		return nil, err
	}
	codec, err := engine.NewKeyCodec(enc.Cardinalities())
	if err != nil {
		return nil, err
	}
	sn.codec = codec
	sn.attrVals = make([][]dataset.Value, enc.NumAttrs())
	for ai := range sn.attrVals {
		vals := make([]dataset.Value, enc.Cardinality(ai))
		for c := range vals {
			vals[c] = enc.Value(ai, int32(c))
		}
		sn.attrVals[ai] = vals
	}
	sn.dict = newDictionary(sn.attrVals)

	k, err := sampling.SerflingSize(p.Epsilon, p.Delta)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	globalRows := sampling.Random(dataset.FullView(tbl), k, rng)
	sort.Slice(globalRows, func(i, j int) bool { return globalRows[i] < globalRows[j] })
	globalView := dataset.NewView(tbl, globalRows)
	sn.global = &sample{tbl: globalView.Materialize()}
	sn.stats.GlobalSampleSize = sn.global.tbl.NumRows()
	sn.stats.GlobalSampleTime = time.Since(start)
	doneGlobal()

	// Stage 1: dry run — iceberg cell lookup from one scan.
	dr, ok := p.Loss.(loss.DryRunner)
	if !ok {
		return nil, fmt.Errorf("core: loss %q is not algebraic (no DryRunner); Tabula requires an algebraic loss", p.Loss.Name())
	}
	ev, err := dr.BindSample(tbl, globalView)
	if err != nil {
		return nil, err
	}
	dryStart := time.Now()
	dry, kept, err := cube.DryRunKeepOpts(ctx, tbl, enc, codec, ev, p.Theta, p.EnableAppend,
		cube.ScanOptions{Workers: p.Workers, ChunkSize: p.ScanChunk})
	if err != nil {
		return nil, err
	}
	if p.EnableAppend {
		t.maint = &maintenance{raw: tbl, enc: enc, states: partitionStates(kept, p.Shards)}
	}
	sn.stats.DryRunTime = time.Since(dryStart)
	sn.stats.NumCuboids = dry.Lattice.NumCuboids()
	sn.stats.NumIcebergCuboids = len(dry.IcebergCuboids())
	sn.stats.NumCells = dry.TotalCells()
	sn.stats.NumIcebergCells = dry.TotalIcebergCells()

	// Stage 2: real run — fetch the iceberg cells' raw rows and draw their
	// local samples, or leave the sampling to selection (fused).
	realStart := time.Now()
	realOpts := cube.RealRunOptions{
		Greedy:      p.Greedy,
		Cost:        p.Cost,
		Workers:     p.Workers,
		KeepRawRows: p.SampleSelection,
	}
	_, costed := ev.(loss.RowCoster)
	fused := p.SampleSelection && costed && !sampleEveryCell
	var real *cube.RealRunResult
	if fused {
		doneReal := obs.StartStage(ctx, "real_run")
		real, err = cube.FetchCells(ctx, tbl, enc, codec, dry, realOpts)
		doneReal()
	} else {
		real, err = cube.RealRun(ctx, tbl, enc, codec, dry, p.Loss, p.Theta, realOpts)
	}
	if err != nil {
		return nil, err
	}
	if !fused {
		sn.stats.GreedyRunsKept = int64(len(real.Cells))
	}
	sn.stats.RealRunTime = time.Since(realStart)

	// Stage 3: representative sample selection (or 1:1 persistence for
	// Tabula*). Cell→sample assignments accumulate in flat (unsharded)
	// structures first; sharding is a pure partitioning step afterwards,
	// so query answers are identical at any shard count.
	selStart := time.Now()
	doneSelection := obs.StartStage(ctx, "selection")
	var sel *samgraph.Result // nil: every cell persists its own sample
	if p.SampleSelection && len(real.Cells) > 0 {
		vertices := make([]samgraph.Vertex, len(real.Cells))
		for i, c := range real.Cells {
			if i&8191 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			vertices[i] = samgraph.Vertex{Rows: c.Rows, SampleRows: c.SampleRows}
		}
		opts := p.SamGraph
		if opts.Workers == 0 {
			opts.Workers = p.Workers
		}
		var graph *samgraph.Graph
		var runs atomic.Int64
		if fused {
			graph, err = samgraph.Cover(ctx, tbl, vertices, p.Loss, p.Theta, opts, func(v int) ([]int32, error) {
				runs.Add(1)
				return cube.SampleCell(tbl, real.Cells[v], p.Loss, p.Theta, p.Greedy)
			})
		} else {
			graph, err = samgraph.Build(ctx, tbl, vertices, p.Loss, p.Theta, opts)
		}
		if err != nil {
			return nil, err
		}
		doneSelect := obs.StartStage(ctx, "samgraph_select")
		sel = samgraph.Select(graph)
		if err := samgraph.Verify(graph, sel); err != nil {
			return nil, fmt.Errorf("core: sample selection self-check failed: %w", err)
		}
		doneSelect()
		if fused {
			// Cover left the kept samples, the representatives', in
			// vertices; they are the ones materialized below.
			for _, v := range sel.Representatives {
				real.Cells[v].SampleRows = vertices[v].SampleRows
			}
			sn.stats.GreedyRunsKept = int64(len(sel.Representatives))
			sn.stats.GreedyRunsDiscarded = runs.Load() - sn.stats.GreedyRunsKept
		}
		sn.stats.SamGraphEdges = graph.NumEdges()
		sn.stats.SamGraphPairsTested = graph.PairsTested
		sn.stats.SamGraphCoverTests = graph.CoverTests
		sn.stats.SamGraphRowCosts = graph.RowCosts
		sn.stats.SamGraphRowCostsReused = graph.RowCostsReused
		sn.stats.SamGraphSummaries = graph.Summaries
		sn.stats.SamGraphPairsPruned = graph.PairsPruned
	}
	const runsHelp = "Greedy sampler (Algorithm 1) runs during cube builds: kept as a cell's persisted or candidate sample, or discarded because the cover pass found the cell covered meanwhile."
	st := obs.StagesFrom(ctx)
	st.Count("tabula_sampling_greedy_runs_total", runsHelp, sn.stats.GreedyRunsKept, obs.Label{Name: "outcome", Value: "kept"})
	st.Count("tabula_sampling_greedy_runs_total", runsHelp, sn.stats.GreedyRunsDiscarded, obs.Label{Name: "outcome", Value: "discarded"})
	// The rest of the stage — copying the persisted samples, assigning
	// cells, partitioning shards — is the tracer's "materialize".
	doneMaterialize := obs.StartStage(ctx, "materialize")
	cubeTable := make(map[uint64]int32, len(real.Cells))
	var samples []*sample
	if sel != nil {
		repID := make(map[int]int32, len(sel.Representatives))
		for _, v := range sel.Representatives {
			id := int32(len(samples))
			samples = append(samples, &sample{tbl: dataset.NewView(tbl, real.Cells[v].SampleRows).Materialize()})
			repID[v] = id
		}
		for i, c := range real.Cells {
			if i&8191 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			c.SampleID = repID[sel.AssignedTo[i]]
			cubeTable[c.Key] = c.SampleID
		}
	} else {
		// Materializing one sample per cell is the heaviest loop of this
		// stage (Tabula* persists every cell's sample), so it polls on
		// every iteration.
		for i, c := range real.Cells {
			if i&255 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			c.SampleID = int32(len(samples))
			samples = append(samples, &sample{tbl: dataset.NewView(tbl, c.SampleRows).Materialize()})
			cubeTable[c.Key] = c.SampleID
		}
	}

	// Partition the flat assignment into shards: cells route by key
	// hash; each shard gets a local sample table holding just the
	// distinct samples its cells reference (shared by pointer with other
	// shards referencing the same representative). Keys are visited in
	// sorted order so local sample ids are deterministic.
	keys := make([]uint64, 0, len(cubeTable))
	for k := range cubeTable {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	localID := make([]map[int32]int32, p.Shards) // per shard: flat id -> local id
	for i := range localID {
		localID[i] = make(map[int32]int32)
	}
	for _, k := range keys {
		si := sn.shardOf(k)
		sh := sn.shards[si]
		flat := cubeTable[k]
		lid, ok := localID[si][flat]
		if !ok {
			lid = int32(len(sh.samples))
			sh.samples = append(sh.samples, samples[flat])
			localID[si][flat] = lid
		}
		sh.cubeTable[k] = lid
	}
	doneMaterialize()
	sn.stats.SelectionTime = time.Since(selStart)
	doneSelection()
	sn.stats.NumPersistedSamples = len(samples)
	sn.stats.InitTime = time.Since(start)
	doneAll()

	// Memory accounting (Figure 9's three components). Samples shared
	// across shards are counted once (distinctSamples dedupes by
	// pointer).
	sn.stats.GlobalSampleBytes = sn.global.tbl.Footprint()
	sn.stats.CubeTableBytes = int64(len(cubeTable)) * cubeTableEntryBytes
	for _, s := range sn.distinctSamples() {
		sn.stats.SampleTableBytes += s.tbl.Footprint()
	}
	t.snap.Store(sn)
	return t, nil
}

// sampleEveryCell makes Build sample every iceberg cell in the real run
// whatever the loss: the pipeline the fused path must equal, for tests.
var sampleEveryCell = false

// cubeTableEntryBytes approximates one cube-table entry: an 8-byte key, a
// 4-byte sample id, and hash-map overhead.
const cubeTableEntryBytes = 8 + 4 + 36

// Stats returns the statistics of the currently published snapshot.
func (t *Tabula) Stats() Stats { return t.snap.Load().stats }

// Schema returns the raw table's schema (samples share it).
func (t *Tabula) Schema() dataset.Schema { return t.snap.Load().schema }

// Theta returns the configured accuracy loss threshold.
func (t *Tabula) Theta() float64 { return t.params.Theta }

// LossName returns the configured loss function's name.
func (t *Tabula) LossName() string { return t.lossName() }

// CubedAttrs returns the configured cubed attribute names.
func (t *Tabula) CubedAttrs() []string { return append([]string(nil), t.params.CubedAttrs...) }

// GlobalSample returns the materialized global sample.
func (t *Tabula) GlobalSample() *dataset.Table { return t.snap.Load().global.tbl }

// NumPersistedSamples returns the sample-table size: the number of
// distinct persisted sample tables across all shards (a representative
// sample serving cells in several shards counts once).
func (t *Tabula) NumPersistedSamples() int { return len(t.snap.Load().distinctSamples()) }

// Condition is one equality predicate of a dashboard query's WHERE
// clause: attr = value, where attr must be a cubed attribute.
type Condition struct {
	Attr  string
	Value dataset.Value
}

// QueryResult is the middleware's answer to a dashboard query.
type QueryResult struct {
	// Sample is the materialized sample to feed the visualization; never
	// nil (it may be empty when the queried population is empty). It is
	// shared with the cube and must not be modified.
	Sample *dataset.Table
	// Wire is the write-once cell holding Sample's materialized wire
	// bytes. It belongs to the physical sample, not to the cell or shard
	// that led here: two results with the same Sample carry the same
	// Wire, across shards and across appends the sample survives. It is
	// nil when Sample was assembled for this answer alone (QueryIn).
	Wire *wire.Cell
	// FromGlobal reports whether the global sample answered the query
	// (non-iceberg cell).
	FromGlobal bool
	// CellKey is the cube cell the query addressed.
	CellKey uint64
	// Shard is the index of the shard the addressed cell routes to, or
	// -1 when no cell was addressed (unknown predicate value → empty
	// population, or a QueryIn union spanning shards).
	Shard int
	// SampleID is the shard-local sample-table id used (-1 for the
	// global sample or an empty answer). Ids are only meaningful within
	// their shard; two shards reuse the same small integers.
	SampleID int32
	// Generation is the generation of the shard that answered the
	// query (0 when Shard is -1). Under one Epoch, the triple {Shard,
	// Generation, SampleID} is a stable identity for the returned
	// bytes: within a shard generation every sample table is immutable
	// and local ids are never reused, so serving layers may cache
	// encoded responses keyed by it and invalidate by shard-generation
	// change alone — appends that touch other shards leave the identity
	// (and any bytes cached under it) valid.
	Generation uint64
	// Epoch names the cube instance that answered: drawn at random once
	// per Build or Load, kept across appends, never persisted. Every
	// instance starts its shards at generation 1, so an identity
	// without the epoch would name different bytes in a cube rebuilt or
	// reloaded under the same name.
	Epoch uint64
	// Version is the cube-wide version of the snapshot that answered
	// the query (+1 per published Append, regardless of which shards it
	// touched). Batch viewports use it to prove snapshot consistency:
	// results answered together always share a Version.
	Version uint64
}

// Query answers a dashboard query whose WHERE clause is a conjunction of
// equality predicates over cubed attributes: it maps the predicates to a
// cube cell, returns the cell's materialized local sample if the cell is
// iceberg, and the global sample otherwise. The returned sample's loss
// against the raw query answer is ≤ Theta with 100% confidence.
//
// A value never seen in the raw table addresses an empty population; the
// answer is an empty sample (loss 0 by convention).
//
// Query is lock-free: it reads the published snapshot with one atomic
// load, so concurrent Appends never block it. The context is honored at
// entry (a cancelled ctx returns ctx.Err() without touching the cube).
func (t *Tabula) Query(ctx context.Context, conds []Condition) (*QueryResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return t.queryOn(t.snap.Load(), conds)
}

// queryOn resolves conds to a cube cell and answers it, all against the
// given snapshot. Callers that perform multi-step work (value parsing,
// batch viewports) load the snapshot once and pass it here, so every
// step — condition resolution and the cell lookup — observes the same
// snapshot version even while Appends publish successors concurrently.
func (t *Tabula) queryOn(sn *snapshot, conds []Condition) (*QueryResult, error) {
	cp := getCodes(len(sn.attrVals))
	defer putCodes(cp)
	codes := *cp
	for _, c := range conds {
		ai, ok := sn.attrIdx[c.Attr]
		if !ok {
			return nil, fmt.Errorf("core: attribute %q is not a cubed attribute (cube has %v)", c.Attr, t.params.CubedAttrs)
		}
		if codes[ai] != engine.NullCode {
			return nil, fmt.Errorf("core: attribute %q constrained twice", c.Attr)
		}
		code := sn.codeOf(ai, c.Value)
		if code == engine.NullCode {
			// Unknown value: the population is empty. No cell (and no
			// shard) was addressed; the identity {-1, 0, -1} is stable
			// forever because appends can never introduce the value
			// (domain growth forces a rebuild).
			return sn.answerEmpty(), nil
		}
		codes[ai] = code
	}
	res := new(QueryResult)
	sn.answerCell(res, codes)
	return res, nil
}

// answerCell addresses the cell encoded by codes and writes its answer
// into dst: the shard-local sample when the cell is iceberg, the global
// sample otherwise. codes is not retained; dst may be a slot of a
// batch's one backing array.
func (sn *snapshot) answerCell(dst *QueryResult, codes []int32) {
	key := sn.codec.Encode(codes)
	si := sn.shardOf(key)
	sh := sn.shards[si]
	if id, ok := sh.cubeTable[key]; ok {
		sam := sh.samples[id]
		*dst = QueryResult{Sample: sam.tbl, Wire: &sam.wire, CellKey: key, Shard: si, SampleID: id, Generation: sh.generation, Epoch: sn.epoch, Version: sn.version}
		return
	}
	*dst = QueryResult{Sample: sn.global.tbl, Wire: &sn.global.wire, FromGlobal: true, CellKey: key, Shard: si, SampleID: -1, Generation: sh.generation, Epoch: sn.epoch, Version: sn.version}
}

// answerEmpty is the answer to a query addressing no population: no
// cell, no shard, the snapshot's empty sample.
func (sn *snapshot) answerEmpty() *QueryResult {
	return &QueryResult{Sample: sn.empty.tbl, Wire: &sn.empty.wire, Shard: -1, SampleID: -1, Epoch: sn.epoch, Version: sn.version}
}

// parseConds parses display-form predicate values against the snapshot's
// schema. Attributes are visited in sorted order so error messages are
// deterministic. It survives as the slow half of display-form
// resolution: queryValuesOn answers the hot path from the snapshot
// dictionary and re-enters here (via queryValuesSlow) only when a
// predicate needs a parse error, a non-canonical spelling, or the
// legacy unknown-value ordering semantics.
func (sn *snapshot) parseConds(conds map[string]string) ([]Condition, error) {
	out := make([]Condition, 0, len(conds))
	attrs := make([]string, 0, len(conds))
	for a := range conds {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	for _, a := range attrs {
		f, ok := sn.schema.Field(a)
		if !ok {
			return nil, fmt.Errorf("core: unknown attribute %q", a)
		}
		v, err := dataset.ParseValue(f.Type, conds[a])
		if err != nil {
			return nil, err
		}
		out = append(out, Condition{Attr: a, Value: v})
	}
	return out, nil
}

// queryValuesOn resolves one display-form query against sn into dst.
// The fast path is two map hits per predicate — attribute name →
// position, display string → code — with zero sorts, zero parses, and a
// pooled address scratch. Anything surprising (attribute not cubed,
// display miss) falls back to the sorted parse-then-resolve slow path,
// which reproduces the pre-dictionary behaviour verbatim; since map
// iteration order is random, the fast path must never answer a query
// the slow path would reject (or vice versa) — bailing out wholesale on
// the first surprise is what keeps answers and error messages
// deterministic. dst is written only on success.
// The pooled scratch is released at exactly one site: resolveCell is
// done with the codes by the time it returns, so the release happens
// before either branch — a shape poolpair verifies path-free, with no
// per-query defer allocation on the fast path.
func (t *Tabula) queryValuesOn(sn *snapshot, conds map[string]string, dst *QueryResult) error {
	cp := getCodes(len(sn.attrVals))
	ok := sn.resolveCell(dst, *cp, conds)
	putCodes(cp)
	if ok {
		return nil
	}
	res, err := t.queryValuesSlow(sn, conds)
	if err != nil {
		return err
	}
	*dst = *res
	return nil
}

// resolveCell resolves display-form predicates into the codes scratch
// and answers the cell into dst, reporting ok=false on the first
// surprise — attribute not cubed, or display form absent from the
// dictionary: a parse error, a non-canonical spelling of a known value,
// or an unknown value (whose empty-population answer depends on sorted
// attribute order when mixed with errors). All deterministic via the
// slow path; none hot. The scratch is not retained past the return,
// and dst is untouched when ok is false.
func (sn *snapshot) resolveCell(dst *QueryResult, codes []int32, conds map[string]string) bool {
	for a, s := range conds {
		ai, ok := sn.attrIdx[a]
		if !ok {
			return false
		}
		code, ok := sn.dict.displayCode(ai, s)
		if !ok {
			return false
		}
		codes[ai] = code
	}
	sn.answerCell(dst, codes)
	return true
}

// queryValuesSlow is the deterministic display-form slow path: the
// legacy sorted parse-then-resolve pipeline, kept verbatim so fallback
// queries answer (and fail) exactly as they did before dictionaries.
func (t *Tabula) queryValuesSlow(sn *snapshot, conds map[string]string) (*QueryResult, error) {
	out, err := sn.parseConds(conds)
	if err != nil {
		return nil, err
	}
	return t.queryOn(sn, out)
}

// QueryByValues is a convenience Query over (attr, string-or-int) pairs
// with values given in display form; it resolves each value against the
// snapshot's value dictionary (falling back to parsing against the
// attribute's column type). Resolution and the cell lookup run against
// a single snapshot load, so a concurrent Append can never make the
// query resolve against one generation and answer from another.
func (t *Tabula) QueryByValues(ctx context.Context, conds map[string]string) (*QueryResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := new(QueryResult)
	if err := t.queryValuesOn(t.snap.Load(), conds, res); err != nil {
		return nil, err
	}
	return res, nil
}

// QueryBatchByValues answers a whole batch of display-form queries — a
// dashboard viewport's worth of cells — against ONE atomically loaded
// snapshot. Every result carries the same Version, so the client sees
// a consistent view of the cube: either entirely before or entirely
// after any concurrent Append, never a mix. A per-query resolution error
// (unknown attribute, bad value) fails the whole batch with the
// lowest-indexed query's error.
//
// The batch resolves on the calling goroutine, in query order, and all
// its results live in one backing array: a cell costs two map hits, so
// a goroutine fan-out costs more than it saves (DESIGN.md §7.6). ctx is
// polled before every query, so a disconnected dashboard stops paying
// for a 4096-query batch mid-flight; a cancelled batch reports
// ctx.Err().
func (t *Tabula) QueryBatchByValues(ctx context.Context, queries []map[string]string) ([]*QueryResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sn := t.snap.Load()
	results := make([]QueryResult, len(queries))
	out := make([]*QueryResult, len(queries))
	for i, q := range queries {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := t.queryValuesOn(sn, q, &results[i]); err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		out[i] = &results[i]
	}
	return out, nil
}

// Generation returns the published snapshot's cube-wide version: 1
// after Build or Load, +1 per published Append. It orders whole
// snapshots; per-cell cache invalidation uses the finer-grained
// per-shard generations (see Generations and QueryResult.Generation).
func (t *Tabula) Generation() uint64 { return t.snap.Load().version }

// Generations returns the published snapshot's generation vector: one
// monotonic generation per shard, in shard-index order. An Append bumps
// only the generations of the shards it touched, so an unchanged entry
// proves every response cached against that shard is still valid.
func (t *Tabula) Generations() []uint64 {
	sn := t.snap.Load()
	out := make([]uint64, len(sn.shards))
	for i, sh := range sn.shards {
		out[i] = sh.generation
	}
	return out
}

// NumShards returns the cube's fixed shard count.
func (t *Tabula) NumShards() int { return len(t.snap.Load().shards) }

// codeOf maps a value of cubed attribute ai to its dense code, or
// NullCode when the value never occurs in the raw table. One dictionary
// hit — the old per-call linear Equal scan over the attribute domain is
// gone, which matters most to QueryIn (one lookup per IN-list value).
func (s *snapshot) codeOf(ai int, v dataset.Value) int32 {
	return s.dict.codeOf(ai, v)
}
