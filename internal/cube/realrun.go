package cube

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/engine"
	"github.com/tabula-db/tabula/internal/loss"
	"github.com/tabula-db/tabula/internal/obs"
	"github.com/tabula-db/tabula/internal/sampling"
)

// IcebergCell is one materialized cell of the sampling cube after the
// real-run stage. Rows is the cell's raw population (kept so the sample
// selection stage can test representation relationships — the paper's
// "Cell Raw Data" column of Figure 6) and SampleRows is the local sample;
// both hold raw-table row ids.
type IcebergCell struct {
	Key        uint64
	Mask       int
	Rows       []int32
	SampleRows []int32
	// SampleID is assigned by the sample-selection stage (-1 until then).
	SampleID int32
}

// PathChoice records which Algorithm 2 branch built a cuboid.
type PathChoice int

const (
	// PathGroupAll groups the whole table on the cuboid attributes.
	PathGroupAll PathChoice = iota
	// PathJoinFirst semi-joins the table with the iceberg cell table and
	// groups only the retrieved rows.
	PathJoinFirst
)

// String names the path.
func (p PathChoice) String() string {
	if p == PathJoinFirst {
		return "join-first"
	}
	return "group-all"
}

// CostPolicy decides the Algorithm 2 branch per cuboid.
type CostPolicy int

const (
	// CostModelInequation1 applies the paper's Inequation 1.
	CostModelInequation1 CostPolicy = iota
	// CostForceGroupAll always groups the full table (ablation).
	CostForceGroupAll
	// CostForceJoinFirst always semi-joins first (ablation).
	CostForceJoinFirst
)

// Inequation1 is the paper's cost model: the join-first path wins when
//
//	N·i + (i/k)·N·log_k((i/k)·N) < N·log_k(N)
//
// where N is the table cardinality, i the cuboid's iceberg-cell count and
// k its total cell count (the model assumes cells hold equal shares of the
// data). Degenerate inputs (k ≤ 1, or logarithms of non-positive values)
// fall back to the group-all path.
func Inequation1(n int64, i, k int) bool {
	if n <= 0 || i <= 0 || k <= 1 {
		return false
	}
	nf, inf_, kf := float64(n), float64(i), float64(k)
	logk := func(x float64) float64 {
		if x <= 1 {
			return 0
		}
		return math.Log(x) / math.Log(kf)
	}
	pruned := inf_ / kf * nf
	lhs := nf*inf_ + pruned*logk(pruned)
	rhs := nf * logk(nf)
	return lhs < rhs
}

// RealRunOptions tunes the real-run stage.
type RealRunOptions struct {
	// Greedy configures the per-cell sampler.
	Greedy sampling.GreedyOptions
	// Cost selects the per-cuboid path policy.
	Cost CostPolicy
	// Workers bounds the per-cell sampling parallelism; 0 = GOMAXPROCS.
	Workers int
	// KeepRawRows retains each cell's raw row list for sample selection;
	// switch off when the selection stage is disabled (Tabula*) to save
	// memory sooner.
	KeepRawRows bool
}

// RealRunResult is the output of the real-run stage.
type RealRunResult struct {
	Cells []*IcebergCell
	// PathChosen records the Algorithm 2 branch per iceberg cuboid mask.
	PathChosen map[int]PathChoice
}

// RealRun executes Algorithm 2: for every iceberg cuboid it fetches the
// raw data of the cuboid's iceberg cells (choosing the access path with
// the cost model), then draws a loss-bounded local sample per iceberg
// cell with the greedy sampler. It is FetchCells followed by sampleCells.
// ctx is polled between cuboids and between cells, so cancellation aborts
// the stage with ctx.Err().
func RealRun(ctx context.Context, tbl *dataset.Table, enc *engine.CatEncoding, codec *engine.KeyCodec, dry *DryRunResult, f loss.Func, theta float64, opts RealRunOptions) (*RealRunResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	defer obs.StartStage(ctx, "real_run")()
	res, err := FetchCells(ctx, tbl, enc, codec, dry, opts)
	if err != nil {
		return nil, err
	}
	if err := sampleCells(ctx, tbl, res.Cells, f, theta, opts); err != nil {
		return nil, err
	}
	if !opts.KeepRawRows {
		//lint:ignore ctxpoll bounded pointer-clearing pass (one store per cell), cheaper than the poll itself
		for _, c := range res.Cells {
			c.Rows = nil
		}
	}
	return res, nil
}

// FetchCells is Algorithm 2's group-by: it fetches the raw rows of every
// iceberg cell, choosing each cuboid's access path with opts.Cost, and
// returns the cells without samples (SampleRows nil) in the deterministic
// order RealRun returns them: by mask descending (top-down), then key
// ascending. The cuboids are spread over opts.Workers goroutines (0 =
// GOMAXPROCS); each groups the table on its own, so the cells do not
// depend on the worker count. ctx is polled between cuboids.
func FetchCells(ctx context.Context, tbl *dataset.Table, enc *engine.CatEncoding, codec *engine.KeyCodec, dry *DryRunResult, opts RealRunOptions) (*RealRunResult, error) {
	masks := dry.IcebergCuboids()
	paths := make([]PathChoice, len(masks))
	cells := make([][]*IcebergCell, len(masks))
	view := dataset.FullView(tbl)
	n := int64(tbl.NumRows())
	err := forEachIndex(ctx, opts.Workers, len(masks), func(ci int) error {
		mask := masks[ci]
		stats := &dry.Cuboids[mask]
		attrs := dry.Lattice.Attrs(mask)
		var path PathChoice
		switch opts.Cost {
		case CostForceGroupAll:
			path = PathGroupAll
		case CostForceJoinFirst:
			path = PathJoinFirst
		default:
			if Inequation1(n, len(stats.IcebergKeys), stats.NumCells) {
				path = PathJoinFirst
			} else {
				path = PathGroupAll
			}
		}
		paths[ci] = path

		var cellRows map[uint64][]int32
		if path == PathJoinFirst {
			keySet := make(map[uint64]struct{}, len(stats.IcebergKeys))
			for _, k := range stats.IcebergKeys {
				keySet[k] = struct{}{}
			}
			matched := engine.SemiJoinRows(enc, codec, attrs, view, keySet)
			cellRows = engine.GroupRows(enc, codec, attrs, dataset.NewView(tbl, matched))
		} else {
			cellRows = engine.GroupRows(enc, codec, attrs, view)
		}
		out := make([]*IcebergCell, len(stats.IcebergKeys))
		for i, key := range stats.IcebergKeys {
			rows, ok := cellRows[key]
			if !ok {
				return fmt.Errorf("cube: iceberg cell %d of cuboid %b has no raw rows", key, mask)
			}
			out[i] = &IcebergCell{Key: key, Mask: mask, Rows: rows, SampleID: -1}
		}
		cells[ci] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &RealRunResult{PathChosen: make(map[int]PathChoice, len(masks))}
	for ci, mask := range masks {
		res.PathChosen[mask] = paths[ci]
		res.Cells = append(res.Cells, cells[ci]...)
	}
	// Deterministic cell order: by mask (top-down), then key.
	sort.Slice(res.Cells, func(i, j int) bool {
		if res.Cells[i].Mask != res.Cells[j].Mask {
			return res.Cells[i].Mask > res.Cells[j].Mask
		}
		return res.Cells[i].Key < res.Cells[j].Key
	})
	return res, nil
}

// sampleCells draws every cell's local sample with SampleCell, in parallel
// on opts.Workers goroutines (0 = GOMAXPROCS). ctx is polled between
// cells; on cancellation or the first failure the stage stops and that
// error is returned.
func sampleCells(ctx context.Context, tbl *dataset.Table, cells []*IcebergCell, f loss.Func, theta float64, opts RealRunOptions) error {
	// Draw local samples largest first (longest processing time first): a
	// cell's sample depends on its own rows alone, so the order changes no
	// sample, but a big cell dealt last would leave the other workers idle
	// while it runs.
	feed := make([]int, len(cells))
	for i := range feed {
		feed[i] = i
	}
	sort.Slice(feed, func(a, b int) bool {
		na, nb := len(cells[feed[a]].Rows), len(cells[feed[b]].Rows)
		if na != nb {
			return na > nb
		}
		return feed[a] < feed[b]
	})
	return forEachIndex(ctx, opts.Workers, len(feed), func(i int) error {
		cell := cells[feed[i]]
		sample, err := SampleCell(tbl, cell, f, theta, opts.Greedy)
		if err != nil {
			return err
		}
		cell.SampleRows = sample
		return nil
	})
}

// SampleCell runs the greedy sampler (Algorithm 1) on the cell's raw rows
// and returns its local sample as table row ids; an error names the cell.
func SampleCell(tbl *dataset.Table, cell *IcebergCell, f loss.Func, theta float64, opts sampling.GreedyOptions) ([]int32, error) {
	sample, err := sampling.Greedy(f, dataset.NewView(tbl, cell.Rows), theta, opts)
	if err != nil {
		return nil, fmt.Errorf("cube: sampling cell %d of cuboid %b: %w", cell.Key, cell.Mask, err)
	}
	return sample, nil
}

// forEachIndex runs fn(i) for every i in [0, n) on up to workers goroutines
// (0 = GOMAXPROCS), handing indices out in ascending order until one fails
// or ctx is cancelled; ctx's error, else the first failure, is returned.
func forEachIndex(ctx context.Context, workers, n int, fn func(i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, n))
	var (
		wg     sync.WaitGroup
		next   atomic.Int64
		failed atomic.Pointer[error]
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for failed.Load() == nil && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					failed.CompareAndSwap(nil, &err)
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := failed.Load(); err != nil {
		return *err
	}
	return nil
}
