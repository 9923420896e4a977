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

// Within a round the sampler polls the context every cancelCheckProbes
// candidates: a cancel during the first round's scan or the heap seed is
// seen before that many more probes.
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
		if extra := h.probes - at.probe; extra >= cancelCheckProbes {
			t.Fatalf("%s: %d probes after the cancel, want fewer than %d", at.name, extra, cancelCheckProbes)
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
