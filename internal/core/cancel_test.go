package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/geo"
	"github.com/tabula-db/tabula/internal/loss"
)

// gateLoss wraps an algebraic loss so the test can observe the exact
// moment the dry-run scan starts folding rows: the first evaluator Add
// closes started, then blocks until release closes. That pins the build
// inside the scan while the test cancels, making the mid-build
// cancellation test deterministic instead of a sleep race.
type gateLoss struct {
	loss.Func
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gateLoss) BindSample(tbl *dataset.Table, sam dataset.View) (loss.CellEvaluator, error) {
	ev, err := g.Func.(loss.DryRunner).BindSample(tbl, sam)
	if err != nil {
		return nil, err
	}
	return &gateEvaluator{CellEvaluator: ev, g: g}, nil
}

type gateEvaluator struct {
	loss.CellEvaluator
	g *gateLoss
}

func (e *gateEvaluator) Add(st loss.CellState, row int32) {
	e.g.once.Do(func() {
		close(e.g.started)
		<-e.g.release
	})
	e.CellEvaluator.Add(st, row)
}

// A context cancelled while the dry-run scan is mid-table aborts the
// whole Build with context.Canceled.
func TestBuildCancelledMidDryRun(t *testing.T) {
	tbl := taxiTable(20000, 31)
	g := &gateLoss{
		Func:    loss.NewMean("fare"),
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
	p := DefaultParams(g, 0.05, "distance", "passengers", "payment")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := Build(ctx, tbl, p)
		errc <- err
	}()
	<-g.started // the scan is folding its first row
	cancel()
	close(g.release)
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("Build returned %v, want context.Canceled", err)
	}
}

// A context cancelled before Build starts returns immediately.
func TestBuildCancelledBeforeStart(t *testing.T) {
	tbl := taxiTable(500, 32)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Build(ctx, tbl, DefaultParams(loss.NewMean("fare"), 0.05, "payment"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Build returned %v, want context.Canceled", err)
	}
}

// Building the same cube at different worker budgets must materialize
// the same cube table and assign every cell the same sample contents —
// the tentpole's "no output change" requirement end to end.
func TestBuildWorkersEquivalent(t *testing.T) {
	tbl := taxiTable(6000, 33)
	mk := func(workers int) *Tabula {
		t.Helper()
		p := DefaultParams(loss.NewMean("fare"), 0.05, "distance", "passengers", "payment")
		p.Seed = 7
		p.Workers = workers
		tab, err := Build(context.Background(), tbl, p)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	ref := mk(1)
	refSn := ref.snap.Load()
	refCells := flattenCubeTable(refSn)
	for _, workers := range []int{2, 7} {
		got := mk(workers)
		sn := got.snap.Load()
		cells := flattenCubeTable(sn)
		if len(cells) != len(refCells) {
			t.Fatalf("workers=%d: %d cube-table entries, want %d", workers, len(cells), len(refCells))
		}
		if got, want := len(sn.distinctSamples()), len(refSn.distinctSamples()); got != want {
			t.Fatalf("workers=%d: %d persisted samples, want %d", workers, got, want)
		}
		for key, id := range refCells {
			gotID, ok := cells[key]
			if !ok {
				t.Fatalf("workers=%d: cube table missing cell %d", workers, key)
			}
			if gotID != id {
				t.Fatalf("workers=%d: cell %d assigned sample %d, want %d", workers, key, gotID, id)
			}
		}
		st, refSt := got.Stats(), ref.Stats()
		if st.NumIcebergCells != refSt.NumIcebergCells ||
			st.NumCells != refSt.NumCells ||
			st.SamGraphEdges != refSt.SamGraphEdges ||
			st.SamGraphPairsTested != refSt.SamGraphPairsTested {
			t.Fatalf("workers=%d: inventory diverged: %+v vs %+v", workers, st, refSt)
		}
	}
}

// flattenCubeTable reassembles the sharded cell→sample assignment into
// one flat map keyed by cell, with shard-qualified sample identities so
// two cubes with the same shard count compare exactly.
func flattenCubeTable(sn *snapshot) map[uint64][2]int32 {
	out := make(map[uint64][2]int32)
	for si, sh := range sn.shards {
		for key, id := range sh.cubeTable {
			out[key] = [2]int32{int32(si), id}
		}
	}
	return out
}

// pickLoss is a heatmap whose greedy evaluators report each pick to
// onAdd.
type pickLoss struct {
	*loss.Heatmap
	onAdd func(e *pickEval)
}

func (h *pickLoss) NewGreedy(raw dataset.View) (loss.GreedyEvaluator, error) {
	ev, err := h.Heatmap.NewGreedy(raw)
	if err != nil {
		return nil, err
	}
	return &pickEval{GreedyEvaluator: ev, h: h}, nil
}

type pickEval struct {
	loss.GreedyEvaluator
	h     *pickLoss
	picks int
}

func (e *pickEval) Add(i int) {
	e.GreedyEvaluator.Add(i)
	e.picks++
	e.h.onAdd(e)
}

// A context cancelled while a large cell's greedy sampler runs aborts the
// (fused) heatmap Build with context.Canceled: that sampler makes no pick
// after the cancel, any other one at most the pick it was making, and every
// goroutine the build started has exited when it returns.
func TestBuildCancelledMidGreedy(t *testing.T) {
	tbl := taxiTable(12000, 34)
	for _, workers := range []int{1, 2} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var (
			mu        sync.Mutex
			cancelled *pickEval
			late      = map[*pickEval]int{} // picks after the cancel
		)
		h := &pickLoss{Heatmap: loss.NewHeatmap("pickup", geo.Euclidean)}
		h.onAdd = func(e *pickEval) {
			mu.Lock()
			defer mu.Unlock()
			switch {
			case cancelled != nil:
				late[e]++
			case e.Len() >= 1000 && e.picks == 3:
				cancel()
				cancelled = e
			}
		}
		p := DefaultParams(h, 0.001, "distance", "passengers", "payment")
		p.Workers = workers
		_, err := Build(ctx, tbl, p)
		cancel()
		if !errors.Is(err, context.Canceled) || cancelled == nil {
			t.Fatalf("workers=%d: Build returned %v, want context.Canceled from a cancel mid-greedy", workers, err)
		}
		if late[cancelled] != 0 || len(late) > workers-1 {
			t.Fatalf("workers=%d: the cancelled sampler made %d more picks, %d other samplers picked after it", workers, late[cancelled], len(late))
		}
		for e, n := range late {
			if n > 1 {
				t.Fatalf("workers=%d: a sampler of %d points made %d picks after the cancel", workers, e.Len(), n)
			}
		}
		if after := runtime.NumGoroutine(); after != before {
			t.Fatalf("workers=%d: %d goroutines before Build, %d after it returned", workers, before, after)
		}
	}
}
