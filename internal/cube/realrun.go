package cube

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

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
// cell with the greedy sampler. ctx is polled between cuboids and
// between cells, so cancellation aborts the stage with ctx.Err().
func RealRun(ctx context.Context, tbl *dataset.Table, enc *engine.CatEncoding, codec *engine.KeyCodec, dry *DryRunResult, f loss.Func, theta float64, opts RealRunOptions) (*RealRunResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	defer obs.StartStage(ctx, "real_run")()
	res := &RealRunResult{PathChosen: make(map[int]PathChoice)}
	lat := dry.Lattice
	view := dataset.FullView(tbl)
	n := int64(tbl.NumRows())
	for _, mask := range dry.IcebergCuboids() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		stats := &dry.Cuboids[mask]
		attrs := lat.Attrs(mask)
		keySet := make(map[uint64]struct{}, len(stats.IcebergKeys))
		for _, k := range stats.IcebergKeys {
			keySet[k] = struct{}{}
		}
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
		res.PathChosen[mask] = path

		var cellRows map[uint64][]int32
		if path == PathJoinFirst {
			matched := engine.SemiJoinRows(enc, codec, attrs, view, keySet)
			cellRows = engine.GroupRows(enc, codec, attrs, dataset.NewView(tbl, matched))
		} else {
			grouped := engine.GroupRows(enc, codec, attrs, view)
			cellRows = make(map[uint64][]int32, len(keySet))
			for k := range keySet {
				if rows, ok := grouped[k]; ok {
					cellRows[k] = rows
				}
			}
		}
		for _, key := range stats.IcebergKeys {
			rows, ok := cellRows[key]
			if !ok {
				return nil, fmt.Errorf("cube: iceberg cell %d of cuboid %b has no raw rows", key, mask)
			}
			cell := &IcebergCell{Key: key, Mask: mask, Rows: rows, SampleID: -1}
			res.Cells = append(res.Cells, cell)
		}
	}

	// Draw local samples in parallel across cells, largest first (longest
	// processing time first): a cell's sample depends on its own rows
	// alone, so the order changes no sample, but a big cell dealt last
	// would leave the other workers idle while it runs.
	feed := make([]int, len(res.Cells))
	for i := range feed {
		feed[i] = i
	}
	sort.Slice(feed, func(a, b int) bool {
		na, nb := len(res.Cells[feed[a]].Rows), len(res.Cells[feed[b]].Rows)
		if na != nb {
			return na > nb
		}
		return feed[a] < feed[b]
	})
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(res.Cells) {
		workers = len(res.Cells)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	next := make(chan int)
	go func() {
		// The feeder blocks on the channel; workers poll ctx and drain it
		// on cancellation, so the feeder always exits.
		for _, i := range feed {
			next <- i
		}
		close(next)
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range next {
				if errs[w] != nil {
					continue // drain the channel so the feeder goroutine exits
				}
				if err := ctx.Err(); err != nil {
					errs[w] = err
					continue
				}
				cell := res.Cells[i]
				sample, err := sampling.Greedy(f, dataset.NewView(tbl, cell.Rows), theta, opts.Greedy)
				if err != nil {
					errs[w] = fmt.Errorf("cube: sampling cell %d of cuboid %b: %w", cell.Key, cell.Mask, err)
					continue
				}
				cell.SampleRows = sample
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if !opts.KeepRawRows {
		//lint:ignore ctxpoll bounded pointer-clearing pass (one store per cell), cheaper than the poll itself
		for _, c := range res.Cells {
			c.Rows = nil
		}
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
