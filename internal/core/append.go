package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/tabula-db/tabula/internal/cube"
	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/engine"
	"github.com/tabula-db/tabula/internal/loss"
	"github.com/tabula-db/tabula/internal/sampling"
)

// maintenance holds the extra state an appendable cube retains: the raw
// table, the attribute encoding, and the per-cell algebraic loss states
// (partitioned by the cube's shard routing so per-shard fold workers
// never share a map), so appended rows can be folded in without
// re-scanning history. It is deliberately NOT part of the published
// snapshot — queries never touch it, and it is only accessed under
// Tabula.maintMu.
type maintenance struct {
	raw *dataset.Table
	enc *engine.CatEncoding
	// states[s] holds the loss states of every cell routing to shard s.
	states []map[uint64]loss.CellState
}

// partitionStates splits a flat cell-state map into per-shard buckets
// using the same routing queries use (engine.ShardOfKey).
func partitionStates(flat map[uint64]loss.CellState, nShards int) []map[uint64]loss.CellState {
	out := make([]map[uint64]loss.CellState, nShards)
	for i := range out {
		out[i] = make(map[uint64]loss.CellState)
	}
	for key, st := range flat {
		out[engine.ShardOfKey(key, nShards)][key] = st
	}
	return out
}

// AppendStats reports what one Append did.
type AppendStats struct {
	RowsAppended    int
	CellsTouched    int
	CellsNowIceberg int
	CellsNowGlobal  int
	SamplesRebuilt  int
	SamplesKept     int
	// ShardsTouched lists (sorted) the indexes of the shards whose
	// generation this append bumped; every other shard — and every
	// response cached against its generation — survived unchanged.
	ShardsTouched []int
	Elapsed       time.Duration
}

// Appendable reports whether the cube was built with
// Params.EnableAppend and can ingest new rows incrementally.
func (t *Tabula) Appendable() bool {
	t.maintMu.Lock()
	defer t.maintMu.Unlock()
	return t.maint != nil
}

// foldItem is one (cell, row) fold a new row contributes: the row must
// be added to the algebraic loss state of the cell identified by key
// (which lives in cuboid mask).
type foldItem struct {
	key  uint64
	mask int32
	row  int32
}

// Append ingests a batch of new rows into the raw table and incrementally
// maintains the sampling cube so the deterministic guarantee keeps
// holding for every cell:
//
//  1. The batch is bulk-appended to the raw table (whole column slices,
//     no per-value boxing) and encoded (a categorical value outside the
//     existing domains aborts — the cube's address space would change
//     and a rebuild is required).
//  2. Each new row is folded into the algebraic loss state of all 2^n
//     cells containing it; only those cells are re-examined. Cells are
//     grouped by shard and folded on a bounded worker pool — shards
//     never share state, so the workers need no locks.
//  3. A touched cell whose loss against the global sample is now ≤ θ is
//     served by the global sample again (its old local sample, if any, is
//     unlinked — samples are only dropped, never invalidated).
//  4. A touched cell whose loss exceeds θ keeps its assigned sample if
//     that sample still satisfies θ for the grown population, and gets a
//     fresh greedy local sample otherwise.
//
// The cube never re-runs representative sample selection during Append;
// fresh samples are persisted individually. Call Build again when the
// accumulated appends warrant a full re-optimization.
//
// Append mutates nothing the query processor reads: it assembles a
// successor snapshot off the hot path and publishes it with one atomic
// swap once the whole batch is folded in, so concurrent queries see
// either the entire batch or none of it. The successor copies only the
// shards the batch touched and bumps only their generations; untouched
// shards are shared by pointer, so responses cached against their
// generations stay valid. Appends serialize among themselves. The
// context is honored before any mutation begins; once the raw table has
// grown the batch is applied to completion (aborting midway would
// desynchronize the retained loss states). An empty batch is a no-op:
// it publishes nothing and leaves the generation vector untouched.
//
// Ownership: a cube built with Params.EnableAppend retains the table
// passed to Build as its raw table and grows it here; callers must not
// read that table concurrently with Append (the batch table is only
// read and may be reused afterwards).
//
// This is an extension beyond the paper, which treats the raw table as
// static.
func (t *Tabula) Append(ctx context.Context, batch *dataset.Table) (*AppendStats, error) {
	t.maintMu.Lock()
	defer t.maintMu.Unlock()
	if t.maint == nil {
		return nil, fmt.Errorf("core: cube was not built with Params.EnableAppend")
	}
	cur := t.snap.Load()
	if err := schemasEqual(cur.schema, batch.Schema()); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	if batch.NumRows() == 0 {
		// Nothing to fold: publishing a successor would bump versions
		// without changing a single answer, churning every viewport
		// cache for free.
		return &AppendStats{Elapsed: time.Since(start)}, nil
	}
	m := t.maint
	from := m.raw.NumRows()
	nShards := len(cur.shards)
	workers := t.params.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Stage 1: bulk-append the batch columns to the raw table, then
	// extend the encoding (which validates domains; on failure the
	// encoding is untouched but the raw table has grown — re-encode is
	// impossible, so fail hard and mark the cube unusable for further
	// appends rather than serve wrong answers).
	if err := m.raw.AppendTable(batch); err != nil {
		// Unreachable after schemasEqual, but if it ever fires the raw
		// table may have partially grown.
		t.maint = nil
		return nil, fmt.Errorf("core: %w (cube is now read-only; rebuild to ingest this batch)", err)
	}
	if err := m.enc.AppendRows(from); err != nil {
		t.maint = nil
		return nil, fmt.Errorf("core: %w (cube is now read-only; rebuild to ingest this batch)", err)
	}

	// Stage 2: bind an evaluator to the grown table — evaluators alias
	// the table's column slices, which the append may have reallocated,
	// so none outlives an append: the maintainer keeps the states, never
	// the evaluator — route every (row, cell) fold to its
	// shard, and fold shard-by-shard on the worker pool. Each worker
	// owns its shard's state map outright, so the folds race on
	// nothing; within a shard, items stay in row-major order for
	// deterministic state evolution.
	dr := t.params.Loss.(loss.DryRunner)
	ev, err := dr.BindSample(m.raw, dataset.FullView(cur.global.tbl))
	if err != nil {
		// The raw table already grew but the snapshot will not: the
		// maintainer has diverged from the served cube, so further
		// appends would violate the guarantee silently.
		t.maint = nil
		return nil, fmt.Errorf("core: %w (cube is now read-only; rebuild to ingest this batch)", err)
	}
	lat := cube.NewLattice(m.enc.NumAttrs())
	perShard := make([][]foldItem, nShards)
	// Mask-major chunked routing: one KeyPacker per cuboid packs the
	// batch's keys column-at-a-time instead of re-deriving each key
	// per (row, cuboid) pair. Relative to the old row-major loop this
	// only permutes items across cells (keys are globally unique across
	// cuboids); within a cell rows stay in ascending order, so shard
	// state evolution is deterministic and byte-identical. The routing
	// intentionally runs to completion without polling ctx: once the raw
	// table has grown, aborting mid-fold would diverge the maintainer
	// from the served cube (see the method doc).
	total := m.raw.NumRows()
	chunk := engine.ChunkRows
	if added := total - from; added < chunk {
		chunk = added
	}
	keyBuf := make([]uint64, chunk)
	for mask := 0; mask < lat.NumCuboids(); mask++ {
		packer := engine.NewKeyPacker(m.enc, cur.codec, lat.Attrs(mask))
		for base := from; base < total; base += chunk {
			cnt := total - base
			if cnt > chunk {
				cnt = chunk
			}
			keys := keyBuf[:cnt]
			packer.PackRange(base, keys)
			for i, key := range keys {
				si := engine.ShardOfKey(key, nShards)
				perShard[si] = append(perShard[si], foldItem{key: key, mask: int32(mask), row: int32(base + i)})
			}
		}
	}
	shardIdx := make([]int, 0, nShards) // touched shards, ascending
	for si := 0; si < nShards; si++ {
		if len(perShard[si]) > 0 {
			shardIdx = append(shardIdx, si)
		}
	}
	// touched[si]: key -> cuboid mask, for shard si's touched cells.
	touched := make([]map[uint64]int, nShards)
	runShards(workers, shardIdx, func(si int) error {
		tm := make(map[uint64]int, len(perShard[si]))
		states := m.states[si]
		for _, it := range perShard[si] {
			st, ok := states[it.key]
			if !ok {
				st = ev.NewState()
				states[it.key] = st
			}
			ev.Add(st, it.row)
			tm[it.key] = int(it.mask)
		}
		touched[si] = tm
		return nil
	})

	// Stage 3a: verdicts. A touched cell needs a local sample iff its
	// folded state's loss exceeds θ. Cheap per cell; still sharded so
	// the state maps stay worker-private.
	verdicts := make([]map[uint64]bool, nShards)
	runShards(workers, shardIdx, func(si int) error {
		v := make(map[uint64]bool, len(touched[si]))
		states := m.states[si]
		for key := range touched[si] {
			v[key] = ev.Loss(states[key]) > t.params.Theta
		}
		verdicts[si] = v
		return nil
	})

	// Stage 3b: retrieve raw rows for cells that need local-sample
	// checks — one semi-join scan per touched cuboid (exactly as many
	// scans as the monolithic path), cuboids in parallel. Keys are
	// globally unique across cuboids, so the per-mask row maps merge
	// without collisions.
	needByMask := make(map[int]map[uint64]struct{})
	for _, si := range shardIdx {
		for key, needs := range verdicts[si] {
			if !needs {
				continue
			}
			mask := touched[si][key]
			if needByMask[mask] == nil {
				needByMask[mask] = make(map[uint64]struct{})
			}
			needByMask[mask][key] = struct{}{}
		}
	}
	masks := make([]int, 0, len(needByMask))
	for mask := range needByMask {
		masks = append(masks, mask)
	}
	sort.Ints(masks)
	full := dataset.FullView(m.raw)
	perMaskRows := make([]map[uint64][]int32, len(masks))
	runIndexes(workers, len(masks), func(mi int) error {
		mask := masks[mi]
		attrs := lat.Attrs(mask)
		matched := engine.SemiJoinRows(m.enc, cur.codec, attrs, full, needByMask[mask])
		perMaskRows[mi] = engine.GroupRows(m.enc, cur.codec, attrs, dataset.NewView(m.raw, matched))
		return nil
	})
	cellRows := make(map[uint64][]int32)
	for _, rows := range perMaskRows { //lint:ignore ctxpoll bounded cell-map merge, one store per touched cell — cheaper than the poll itself
		for key, r := range rows {
			cellRows[key] = r
		}
	}

	// Stage 4: rebuild the touched shards in parallel, copy-on-write.
	// Each worker builds a successor of its shard (bumping only that
	// shard's generation) and rewrites its cube-table entries in sorted
	// (mask, key) order, so fresh local sample ids are deterministic —
	// identical batches always publish byte-identical cubes at any
	// worker count, and Go's randomized map iteration never leaks into
	// the snapshot (the maporder analyzer enforces this). Untouched
	// shards keep their pointer and generation in the successor
	// snapshot.
	next := cur.successor()
	type shardOutcome struct {
		nowIceberg, nowGlobal, rebuilt, kept int
	}
	outcomes := make([]shardOutcome, nShards)
	err = runShards(workers, shardIdx, func(si int) error {
		sh := cur.shards[si].successor()
		next.shards[si] = sh
		ordered := make([]uint64, 0, len(verdicts[si]))
		for key := range verdicts[si] {
			ordered = append(ordered, key)
		}
		sort.Slice(ordered, func(i, j int) bool {
			mi, mj := touched[si][ordered[i]], touched[si][ordered[j]]
			if mi != mj {
				return mi < mj
			}
			return ordered[i] < ordered[j]
		})
		out := &outcomes[si]
		for _, key := range ordered {
			needsLocal := verdicts[si][key]
			prevID, wasIceberg := sh.cubeTable[key]
			if !needsLocal {
				if wasIceberg {
					// The global sample now suffices; unlink the local one.
					delete(sh.cubeTable, key)
					out.nowGlobal++
				}
				continue
			}
			out.nowIceberg++
			cellView := dataset.NewView(m.raw, cellRows[key])
			if wasIceberg {
				// Keep the assigned sample if it still satisfies θ.
				if t.params.Loss.Loss(cellView, dataset.FullView(sh.samples[prevID].tbl)) <= t.params.Theta {
					out.kept++
					continue
				}
			}
			// The raw table has grown, so the batch is applied to
			// completion: the greedy gets ctx's values, not its
			// cancellation.
			sampleRows, err := sampling.GreedyContext(context.WithoutCancel(ctx), t.params.Loss, cellView, t.params.Theta, t.params.Greedy)
			if err != nil {
				return fmt.Errorf("core: resampling cell %d: %w", key, err)
			}
			id := int32(len(sh.samples))
			sh.samples = append(sh.samples, &sample{tbl: dataset.NewView(m.raw, sampleRows).Materialize()})
			sh.cubeTable[key] = id
			out.rebuilt++
		}
		return nil
	})
	if err != nil {
		// Same divergence as above: the batch is half-applied to the
		// maintainer and cannot be rolled back.
		t.maint = nil
		return nil, fmt.Errorf("%w (cube is now read-only; rebuild to ingest this batch)", err)
	}

	stats := &AppendStats{
		RowsAppended:  batch.NumRows(),
		ShardsTouched: shardIdx,
	}
	for _, si := range shardIdx {
		stats.CellsTouched += len(touched[si])
		stats.CellsNowIceberg += outcomes[si].nowIceberg
		stats.CellsNowGlobal += outcomes[si].nowGlobal
		stats.SamplesRebuilt += outcomes[si].rebuilt
		stats.SamplesKept += outcomes[si].kept
	}

	// Refresh the successor's stats, then publish it.
	next.stats.NumIcebergCells = next.numIcebergCells()
	distinct := next.distinctSamples()
	next.stats.NumPersistedSamples = len(distinct)
	next.stats.CubeTableBytes = int64(next.numIcebergCells()) * cubeTableEntryBytes
	next.stats.SampleTableBytes = 0
	for _, s := range distinct {
		next.stats.SampleTableBytes += s.tbl.Footprint()
	}
	t.snap.Store(next)
	stats.Elapsed = time.Since(start)
	t.observeAppend(stats)
	return stats, nil
}

// runShards runs fn(idx) for every element of idxs on a pool of at most
// `workers` goroutines and returns the error of the lowest-indexed
// failing element (deterministic regardless of scheduling). fn runs
// exactly once per element; callers rely on every element having been
// processed when runShards returns, even when some fail.
func runShards(workers int, idxs []int, fn func(idx int) error) error {
	if len(idxs) == 0 {
		return nil
	}
	if workers > len(idxs) {
		workers = len(idxs)
	}
	if workers <= 1 {
		var firstErr error
		for _, idx := range idxs {
			if err := fn(idx); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	errs := make([]error, len(idxs))
	var wg sync.WaitGroup
	var cursor int
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := cursor
				cursor++
				mu.Unlock()
				if i >= len(idxs) {
					return
				}
				errs[i] = fn(idxs[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runIndexes is runShards over the index range [0, n).
func runIndexes(workers, n int, fn func(i int) error) error {
	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = i
	}
	return runShards(workers, idxs, fn)
}

func schemasEqual(a, b dataset.Schema) error {
	if len(a) != len(b) {
		return fmt.Errorf("core: batch has %d columns, cube expects %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("core: batch column %d is %v %q, cube expects %v %q",
				i, b[i].Type, b[i].Name, a[i].Type, a[i].Name)
		}
	}
	return nil
}
