package sampling

import (
	"context"
	"testing"

	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/geo"
	"github.com/tabula-db/tabula/internal/loss"
)

// hookLoss is a heatmap whose greedy evaluator calls onProbe before every
// LossWith and onAdd after every Add, counting both.
type hookLoss struct {
	*loss.Heatmap
	onProbe, onAdd func(n int)
	probes, adds   int
}

func (h *hookLoss) NewGreedy(raw dataset.View) (loss.GreedyEvaluator, error) {
	ev, err := h.Heatmap.NewGreedy(raw)
	if err != nil {
		return nil, err
	}
	return &hookEval{GreedyEvaluator: ev, h: h}, nil
}

type hookEval struct {
	loss.GreedyEvaluator
	h *hookLoss
}

func (e *hookEval) LossWith(i int) float64 {
	e.h.probes++
	if e.h.onProbe != nil {
		e.h.onProbe(e.h.probes)
	}
	return e.GreedyEvaluator.LossWith(i)
}

func (e *hookEval) Add(i int) {
	e.GreedyEvaluator.Add(i)
	e.h.adds++
	if e.h.onAdd != nil {
		e.h.onAdd(e.h.adds)
	}
}

// A context cancelled during a pick stops the sampler before it probes
// another candidate: it returns context.Canceled and no sample, lazy or
// naive.
func TestGreedyContextCancelledAtPick(t *testing.T) {
	full := dataset.FullView(buildTable(800, 50))
	for _, lazy := range []bool{true, false} {
		ctx, cancel := context.WithCancel(context.Background())
		var probesAtCancel int
		h := &hookLoss{Heatmap: loss.NewHeatmap("pickup", geo.Euclidean)}
		h.onAdd = func(n int) {
			if n == 3 {
				cancel()
				probesAtCancel = h.probes
			}
		}
		rows, err := GreedyContext(ctx, h, full, 1e-6, GreedyOptions{Lazy: lazy})
		cancel()
		if err != context.Canceled || rows != nil {
			t.Fatalf("lazy=%v: cancelled at the third pick, got %d rows and %v, want context.Canceled", lazy, len(rows), err)
		}
		if h.adds != 3 || h.probes != probesAtCancel {
			t.Fatalf("lazy=%v: %d picks and %d probes after the cancel, want none", lazy, h.adds-3, h.probes-probesAtCancel)
		}
	}
}

// Within a round the sampler polls the context every cancelCheckRows rows
// of probes: a cancel during the first round's scan or the heap seed is
// seen before that many more rows are scanned.
func TestGreedyContextCancelledMidRound(t *testing.T) {
	const n = 5000
	full := dataset.FullView(buildTable(n, 51))
	for _, at := range []struct {
		name  string
		adds  int // picks made before the cancelling probe
		probe int // the cancelling probe, counted from the first
	}{
		{"first round", 0, 10},
		{"heap seed", 1, n + 10}, // the first round probed all n
	} {
		ctx, cancel := context.WithCancel(context.Background())
		h := &hookLoss{Heatmap: loss.NewHeatmap("pickup", geo.Euclidean)}
		h.onProbe = func(n int) {
			if n == at.probe {
				cancel()
			}
		}
		rows, err := GreedyContext(ctx, h, full, 1e-6, DefaultGreedyOptions())
		cancel()
		if err != context.Canceled || rows != nil {
			t.Fatalf("%s: got %d rows and %v, want context.Canceled", at.name, len(rows), err)
		}
		if h.adds != at.adds {
			t.Fatalf("%s: %d picks, want %d", at.name, h.adds, at.adds)
		}
		if extra := h.probes - at.probe; extra*n >= cancelCheckRows {
			t.Fatalf("%s: %d probes of %d rows after the cancel, want fewer than %d rows", at.name, extra, n, cancelCheckRows)
		}
	}
}

// A context done before the call returns at once, without building an
// evaluator.
func TestGreedyContextCancelledBefore(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h := &hookLoss{Heatmap: loss.NewHeatmap("pickup", geo.Euclidean)}
	if rows, err := GreedyContext(ctx, h, dataset.FullView(buildTable(50, 52)), 0.01, DefaultGreedyOptions()); err != context.Canceled || rows != nil || h.probes != 0 {
		t.Fatalf("got %d rows, %v after %d probes, want context.Canceled before any", len(rows), err, h.probes)
	}
}

// workLoss is a heatmap whose greedy evaluator keeps its lower bounds and
// counts its work in rows, as the sampler charges it: a whole scan per
// LossWith probe and per bounded candidate. It cancels once the count
// reaches at, and records the count at the cancel.
type workLoss struct {
	*loss.Heatmap
	at                    int
	cancel                func()
	rows, cancelled       int
	probes, bounded, adds int
}

func (w *workLoss) NewGreedy(raw dataset.View) (loss.GreedyEvaluator, error) {
	ev, err := w.Heatmap.NewGreedy(raw)
	if err != nil {
		return nil, err
	}
	return &workEval{GreedyEvaluator: ev, lb: ev.(loss.LowerBounder), w: w, n: raw.Len()}, nil
}

type workEval struct {
	loss.GreedyEvaluator
	lb loss.LowerBounder
	w  *workLoss
	n  int
}

// work counts k candidates' scans, cancelling when the count reaches at.
func (e *workEval) work(k int) {
	e.w.rows += k * e.n
	if e.w.cancelled < 0 && e.w.rows >= e.w.at {
		e.w.cancel()
		e.w.cancelled = e.w.rows
	}
}

func (e *workEval) LossWith(i int) float64 {
	e.w.probes++
	e.work(1)
	return e.GreedyEvaluator.LossWith(i)
}

func (e *workEval) Add(i int) {
	e.w.adds++
	e.GreedyEvaluator.Add(i)
}

func (e *workEval) LossWithBounds(cands []int, lo []float64) bool {
	e.w.bounded += len(cands)
	e.work(len(cands))
	return e.lb.LossWithBounds(cands, lo)
}

// A cancel during a large cell's first pick lands within one stride of
// work, whether it comes while the candidates are being bounded or while
// branch and bound probes them: at most cancelCheckRows more rows are
// scanned, and the sampler returns context.Canceled with no pick made.
func TestGreedyCancelledWithinFirstPick(t *testing.T) {
	const n = 20000
	full := dataset.FullView(buildTable(n, 53))
	for _, at := range []struct {
		name string
		rows int // work before the cancel
	}{
		{"bounding", 3 * cancelCheckRows},
		{"branch and bound", n*n + 10*n}, // every candidate bounded, then ten probes
	} {
		ctx, cancel := context.WithCancel(context.Background())
		w := &workLoss{Heatmap: loss.NewHeatmap("pickup", geo.Euclidean), at: at.rows, cancel: cancel, cancelled: -1}
		rows, err := GreedyContext(ctx, w, full, 1e-6, DefaultGreedyOptions())
		cancel()
		if err != context.Canceled || rows != nil {
			t.Fatalf("%s: got %d rows and %v, want context.Canceled", at.name, len(rows), err)
		}
		if w.cancelled < 0 || w.adds != 0 {
			t.Fatalf("%s: %d picks made in %d rows of work, want the cancel at %d to land in the first", at.name, w.adds, w.rows, at.rows)
		}
		if at.rows < n*n && w.probes != 0 || at.rows >= n*n && w.bounded != n {
			t.Fatalf("%s: cancelled after %d probes and %d bounded candidates", at.name, w.probes, w.bounded)
		}
		if extra := w.rows - w.cancelled; extra > cancelCheckRows {
			t.Fatalf("%s: %d rows of work after the cancel, want at most %d", at.name, extra, cancelCheckRows)
		}
	}
}
