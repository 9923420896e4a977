package harness

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/tabula-db/tabula/internal/core"
	"github.com/tabula-db/tabula/internal/cube"
	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/engine"
	"github.com/tabula-db/tabula/internal/loss"
	"github.com/tabula-db/tabula/internal/nyctaxi"
	"github.com/tabula-db/tabula/internal/samgraph"
	"github.com/tabula-db/tabula/internal/sampling"
	"github.com/tabula-db/tabula/internal/viz"
)

func init() {
	Experiments["fig2"] = Fig2
	Experiments["ablation-dryrun"] = AblationDryRun
	Experiments["ablation-costmodel"] = AblationCostModel
	Experiments["ablation-samgraph"] = AblationSamGraph
	Experiments["ablation-lazygreedy"] = AblationLazyGreedy
}

// Fig2 quantifies the paper's Figure 2 story: the heat map rendered from
// a SampleFirst answer vs Tabula's answer, scored by L1 density
// difference and hotspot recall against the raw render, for the JFK
// airport population.
func Fig2(s Scale, progress io.Writer) ([]*Report, error) {
	tbl := nyctaxi.Generate(s.Rows, s.Seed)
	attrs := []string{"payment_type", "rate_code"}
	pickupCol := tbl.Schema().ColumnIndex(nyctaxi.ColPickup)
	theta := 0.002 // ≈ 0.22 km

	// The query population: JFK-rate credit rides (the airport hotspot).
	rateCol := tbl.Schema().ColumnIndex("rate_code")
	payCol := tbl.Schema().ColumnIndex("payment_type")
	var queryRows []int32
	for r := 0; r < tbl.NumRows(); r++ {
		if tbl.Value(r, rateCol).S == "jfk" && tbl.Value(r, payCol).S == "credit" {
			queryRows = append(queryRows, int32(r))
		}
	}
	raw := dataset.NewView(tbl, queryRows)
	render := func(v dataset.View) *viz.Density {
		d := viz.NewDensity(128, 128, nyctaxi.Bounds())
		d.AddAll(v.PointsOf(pickupCol))
		return d
	}
	rawD := render(raw)

	rep := &Report{
		ID:      "fig2",
		Title:   fmt.Sprintf("Figure 2 analogue: heat-map fidelity on the JFK hotspot (%d rides of %d)", raw.Len(), s.Rows),
		Columns: []string{"approach", "answer tuples", "L1 density diff", "hotspot recall@20", "heatmap loss"},
		Notes: []string{
			"expected shape: SampleFirst's tiny sample misses the airport (recall ≈ 0); Tabula's answer preserves it (high recall)",
			"when the hotspot cell is non-iceberg Tabula returns the global sample: hotspot recall stays high but the L1 diff includes the city-wide mass the global sample also renders",
		},
	}
	f := loss.NewHeatmap(nyctaxi.ColPickup, 0)
	score := func(name string, ans dataset.View) error {
		d := render(ans)
		diff, err := rawD.Diff(d)
		if err != nil {
			return err
		}
		recall, err := d.HotspotRecall(rawD, 20)
		if err != nil {
			return err
		}
		rep.AddRow(name, fmt.Sprintf("%d", ans.Len()), fmt.Sprintf("%.3f", diff),
			fmt.Sprintf("%.2f", recall), fmtLoss(f.Loss(raw, ans)))
		return nil
	}
	if err := score("Raw (ground truth)", raw); err != nil {
		return nil, err
	}
	// SampleFirst-S: a 0.1% pre-built sample filtered to the population.
	rng := newRand(s.Seed + 9)
	pre := sampling.Random(dataset.FullView(tbl), tbl.NumRows()/1000, rng)
	preSet := make(map[int32]bool, len(pre))
	for _, r := range pre {
		preSet[r] = true
	}
	var sfRows []int32
	for _, r := range queryRows {
		if preSet[r] {
			sfRows = append(sfRows, r)
		}
	}
	if err := score("SamFirst-S", dataset.NewView(tbl, sfRows)); err != nil {
		return nil, err
	}
	// Tabula.
	tab, err := core.Build(context.Background(), tbl, tabulaParams(TaskHeatmap, theta, attrs, s.Seed, true))
	if err != nil {
		return nil, err
	}
	res, err := tab.Query(context.Background(), []core.Condition{
		{Attr: "payment_type", Value: dataset.StringValue("credit")},
		{Attr: "rate_code", Value: dataset.StringValue("jfk")},
	})
	if err != nil {
		return nil, err
	}
	if err := score("Tabula", dataset.FullView(res.Sample)); err != nil {
		return nil, err
	}
	return []*Report{rep}, nil
}

// AblationDryRun measures what the algebraic lattice derivation saves
// over recomputing every cuboid from the raw table.
func AblationDryRun(s Scale, progress io.Writer) ([]*Report, error) {
	tbl := nyctaxi.Generate(s.Rows, s.Seed)
	rep := &Report{
		ID:      "ablation-dryrun",
		Title:   fmt.Sprintf("Dry-run ablation: lattice derivation vs per-cuboid recompute, %d rows", s.Rows),
		Columns: []string{"attrs", "derive", "recompute", "speedup", "rows scanned (derive/recompute)"},
		Notes:   []string{"expected shape: derivation advantage grows with 2^attrs (one scan vs 2^n scans)"},
	}
	f := loss.NewMean(nyctaxi.ColFare)
	for n := 4; n <= 7; n++ {
		enc, codec, ev, err := bindForAblation(tbl, f, n, s.Seed)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		fast, err := cube.DryRun(context.Background(), tbl, enc, codec, ev, 0.05)
		if err != nil {
			return nil, err
		}
		fastT := time.Since(t0)
		t0 = time.Now()
		slow, err := cube.DryRunRecompute(tbl, enc, codec, ev, 0.05)
		if err != nil {
			return nil, err
		}
		slowT := time.Since(t0)
		rep.AddRow(fmt.Sprintf("%d", n), fmtDur(fastT), fmtDur(slowT),
			fmt.Sprintf("%.1fx", float64(slowT)/float64(fastT)),
			fmt.Sprintf("%d / %d", fast.RowsScanned, slow.RowsScanned))
	}
	return []*Report{rep}, nil
}

// AblationCostModel compares Algorithm 2's access paths per policy.
func AblationCostModel(s Scale, progress io.Writer) ([]*Report, error) {
	tbl := nyctaxi.Generate(s.Rows, s.Seed)
	f := loss.NewMean(nyctaxi.ColFare)
	enc, codec, ev, err := bindForAblation(tbl, f, 5, s.Seed)
	if err != nil {
		return nil, err
	}
	dry, err := cube.DryRun(context.Background(), tbl, enc, codec, ev, 0.05)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:      "ablation-costmodel",
		Title:   fmt.Sprintf("Real-run ablation: Inequation 1 vs forced access paths, %d rows, 5 attrs", s.Rows),
		Columns: []string{"policy", "real-run time", "join-first cuboids"},
		Notes:   []string{"expected shape: Inequation 1 tracks the better forced path per cuboid"},
	}
	for _, policy := range []struct {
		name string
		p    cube.CostPolicy
	}{
		{"Inequation1", cube.CostModelInequation1},
		{"ForceGroupAll", cube.CostForceGroupAll},
		{"ForceJoinFirst", cube.CostForceJoinFirst},
	} {
		t0 := time.Now()
		real, err := cube.RealRun(context.Background(), tbl, enc, codec, dry, f, 0.05, cube.RealRunOptions{
			Greedy: sampling.DefaultGreedyOptions(), Cost: policy.p,
		})
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(t0)
		joins := 0
		for _, p := range real.PathChosen {
			if p == cube.PathJoinFirst {
				joins++
			}
		}
		rep.AddRow(policy.name, fmtDur(elapsed), fmt.Sprintf("%d/%d", joins, len(real.PathChosen)))
	}
	return []*Report{rep}, nil
}

// AblationSamGraph compares the selection stage's strategies: the
// cover-first pass a row-cost loss takes, and the exhaustive join of the
// same loss behind an opaque Func.
func AblationSamGraph(s Scale, progress io.Writer) ([]*Report, error) {
	tbl := nyctaxi.Generate(s.Rows/4, s.Seed)
	f := loss.NewHistogram(nyctaxi.ColFare)
	// Build a realistic vertex set from the actual cube pipeline.
	enc, codec, ev, err := bindForAblation(tbl, f, 5, s.Seed)
	if err != nil {
		return nil, err
	}
	dry, err := cube.DryRun(context.Background(), tbl, enc, codec, ev, 0.5)
	if err != nil {
		return nil, err
	}
	real, err := cube.RealRun(context.Background(), tbl, enc, codec, dry, f, 0.5, cube.RealRunOptions{
		Greedy: sampling.DefaultGreedyOptions(), KeepRawRows: true,
	})
	if err != nil {
		return nil, err
	}
	vertices := make([]samgraph.Vertex, len(real.Cells))
	for i, c := range real.Cells {
		vertices[i] = samgraph.Vertex{Rows: c.Rows, SampleRows: c.SampleRows}
	}
	rep := &Report{
		ID:      "ablation-samgraph",
		Title:   fmt.Sprintf("SamGraph join ablation over %d iceberg cells (%d rows)", len(vertices), tbl.NumRows()),
		Columns: []string{"strategy", "join time", "pairs tested", "representatives"},
		Notes: []string{
			"expected shape: cover-first tests each cell only against the representatives chosen before it, so it tests far fewer pairs than the capped generic join; the cap bounds a cell's tests to its first 24 representatives, which can only add representatives",
			"the cover-first rows take the row-cost pass (early abort plus per-block cost reuse), which the histogram loss shares with the 2-D heatmap; the generic row hides the loss's evaluators, so it takes the exhaustive join, re-sorts the sample and walks every row on each pair",
			"losses whose cell states are raw summaries (mean, regression, distinct, top-k) skip both: each cell is folded once and a pair is one O(1) Loss call (DESIGN.md §7.11)",
		},
	}
	run := func(name string, lf loss.Func, opts samgraph.BuildOptions) error {
		t0 := time.Now()
		g, err := samgraph.Build(context.Background(), tbl, vertices, lf, 0.5, opts)
		if err != nil {
			return err
		}
		sel := samgraph.Select(g)
		if err := samgraph.Verify(g, sel); err != nil {
			return err
		}
		rep.AddRow(name, fmtDur(time.Since(t0)),
			fmt.Sprintf("%d", g.PairsTested), fmt.Sprintf("%d", len(sel.Representatives)))
		return nil
	}
	if err := run("cover-first, row-cost early abort", f, samgraph.BuildOptions{}); err != nil {
		return nil, err
	}
	if err := run("cover-first, row-cost early abort, cap 24", f, samgraph.BuildOptions{MaxCandidates: 24}); err != nil {
		return nil, err
	}
	if err := run("generic Loss calls, cap 24", opaqueLoss{f}, samgraph.BuildOptions{MaxCandidates: 24}); err != nil {
		return nil, err
	}
	return []*Report{rep}, nil
}

// opaqueLoss hides DryRunner so samgraph uses direct Loss evaluation.
type opaqueLoss struct{ inner loss.Func }

func (o opaqueLoss) Name() string                       { return "opaque" }
func (o opaqueLoss) Unit() string                       { return o.inner.Unit() }
func (o opaqueLoss) Loss(raw, sam dataset.View) float64 { return o.inner.Loss(raw, sam) }

// AblationLazyGreedy compares Algorithm 1 with and without the
// lazy-forward strategy on real cell populations.
func AblationLazyGreedy(s Scale, progress io.Writer) ([]*Report, error) {
	tbl := nyctaxi.Generate(s.Rows/10, s.Seed)
	rep := &Report{
		ID:      "ablation-lazygreedy",
		Title:   fmt.Sprintf("Greedy sampler ablation (heatmap loss), %d rows", tbl.NumRows()),
		Columns: []string{"strategy", "time", "sample size"},
		Notes:   []string{"expected shape: lazy-forward much faster, identical sample size (submodular gains)"},
	}
	f := loss.NewHeatmap(nyctaxi.ColPickup, 0)
	view := dataset.FullView(tbl)
	for _, tc := range []struct {
		name string
		opts sampling.GreedyOptions
	}{
		{"naive (Algorithm 1 verbatim)", sampling.GreedyOptions{Lazy: false}},
		{"lazy-forward", sampling.GreedyOptions{Lazy: true}},
		{"lazy-forward + cap 2048", sampling.GreedyOptions{Lazy: true, CandidateCap: 2048}},
	} {
		t0 := time.Now()
		rows, err := sampling.Greedy(f, view, 0.004, tc.opts)
		if err != nil {
			return nil, err
		}
		rep.AddRow(tc.name, fmtDur(time.Since(t0)), fmt.Sprintf("%d", len(rows)))
	}
	return []*Report{rep}, nil
}

func bindForAblation(tbl *dataset.Table, f loss.Func, nAttrs int, seed int64) (*engine.CatEncoding, *engine.KeyCodec, loss.CellEvaluator, error) {
	cols := make([]int, nAttrs)
	for i, a := range nyctaxi.CubedAttrs[:nAttrs] {
		cols[i] = tbl.Schema().ColumnIndex(a)
	}
	enc, err := engine.NewCatEncoding(tbl, cols)
	if err != nil {
		return nil, nil, nil, err
	}
	codec, err := engine.NewKeyCodec(enc.Cardinalities())
	if err != nil {
		return nil, nil, nil, err
	}
	rows := sampling.Random(dataset.FullView(tbl), sampling.DefaultSerflingSize(), newRand(seed))
	ev, err := f.(loss.DryRunner).BindSample(tbl, dataset.NewView(tbl, rows))
	if err != nil {
		return nil, nil, nil, err
	}
	return enc, codec, ev, nil
}
