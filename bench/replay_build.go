package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/tabula-db/tabula/internal/core"
	"github.com/tabula-db/tabula/internal/cube"
	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/engine"
	"github.com/tabula-db/tabula/internal/loss"
	"github.com/tabula-db/tabula/internal/samgraph"
	"github.com/tabula-db/tabula/internal/sampling"
)

// Span names of the build replay; each is a call (or a short run of calls)
// into one layer's public functions.
const (
	spanParse       = "engine.Parse"
	spanReplay      = "core.Build(replay)"
	spanEncode      = "engine.NewCatEncoding+NewKeyCodec"
	spanGlobal      = "sampling.Random+Materialize"
	spanBind        = "loss.BindSample"
	spanDryRun      = "cube.DryRunKeepOpts"
	spanRealRun     = "cube.RealRun"
	spanJoin        = "samgraph.Build"
	spanSelect      = "samgraph.Select+Verify"
	spanMaterialize = "dataset.Materialize"
	spanGreedy      = "sampling.Greedy(one thread)"
	spanWholeBuild  = "core.Build"
)

// buildCounts are the exact counts the replay observes on the way.
type buildCounts struct {
	cells, icebergCells int
	pairsTested         int64
	edges               int
	persisted           int
	sampleRows          int
	sampleTableBytes    int64
	cubeTableBytes      int64
	globalSampleBytes   int64
}

// replayBuild re-runs the workload's build in process, mirroring core.Build
// stage by stage with the Params DB.Exec would use, with a span around each
// call into a layer. What the mirror does between those calls (vertex
// assembly, footprint accounting) is the root span's self time; what it
// leaves out of core.Build (dictionaries, the cube table and its shard
// partition: about a millisecond) shows in replay.build_gap_pct. It then
// repeats every iceberg cell's greedy sampling on one thread, and finally
// times the real core.Build whole.
func replayBuild(tr *tracer, w *workload, tbl *dataset.Table) (buildCounts, error) {
	var bc buildCounts
	ctx := context.Background()

	id := tr.start(spanParse, -1, -1)
	_, err := engine.Parse(w.createSQL())
	tr.end(id)
	if err != nil {
		return bc, err
	}

	p := core.DefaultParams(w.lossFunc, w.theta, cubedAttrs()...)
	p.EnableAppend = true

	root := tr.start(spanReplay, -1, -1)
	cols := make([]int, len(p.CubedAttrs))
	for i, name := range p.CubedAttrs {
		cols[i] = tbl.Schema().ColumnIndex(name)
	}

	id = tr.start(spanEncode, root, -1)
	enc, err := engine.NewCatEncoding(tbl, cols)
	if err != nil {
		return bc, err
	}
	codec, err := engine.NewKeyCodec(enc.Cardinalities())
	tr.end(id)
	if err != nil {
		return bc, err
	}

	id = tr.start(spanGlobal, root, -1)
	k, err := sampling.SerflingSize(p.Epsilon, p.Delta)
	if err != nil {
		return bc, err
	}
	globalRows := sampling.Random(dataset.FullView(tbl), k, rand.New(rand.NewSource(p.Seed)))
	sort.Slice(globalRows, func(i, j int) bool { return globalRows[i] < globalRows[j] })
	globalView := dataset.NewView(tbl, globalRows)
	global := globalView.Materialize()
	tr.end(id)

	dr, ok := p.Loss.(loss.DryRunner)
	if !ok {
		return bc, fmt.Errorf("loss %q is not algebraic", p.Loss.Name())
	}
	id = tr.start(spanBind, root, -1)
	ev, err := dr.BindSample(tbl, globalView)
	tr.end(id)
	if err != nil {
		return bc, err
	}

	id = tr.start(spanDryRun, root, -1)
	dry, _, err := cube.DryRunKeepOpts(ctx, tbl, enc, codec, ev, p.Theta, p.EnableAppend,
		cube.ScanOptions{Workers: p.Workers, ChunkSize: p.ScanChunk})
	tr.end(id)
	if err != nil {
		return bc, err
	}
	bc.cells, bc.icebergCells = dry.TotalCells(), dry.TotalIcebergCells()

	id = tr.start(spanRealRun, root, -1)
	real, err := cube.RealRun(ctx, tbl, enc, codec, dry, p.Loss, p.Theta, cube.RealRunOptions{
		Greedy: p.Greedy, Cost: p.Cost, Workers: p.Workers, KeepRawRows: p.SampleSelection,
	})
	tr.end(id)
	if err != nil {
		return bc, err
	}

	vertices := make([]samgraph.Vertex, len(real.Cells))
	for i, c := range real.Cells {
		vertices[i] = samgraph.Vertex{Rows: c.Rows, SampleRows: c.SampleRows}
		bc.sampleRows += len(c.SampleRows)
	}
	opts := p.SamGraph
	opts.Workers = p.Workers
	id = tr.start(spanJoin, root, -1)
	graph, err := samgraph.Build(ctx, tbl, vertices, p.Loss, p.Theta, opts)
	tr.end(id)
	if err != nil {
		return bc, err
	}
	id = tr.start(spanSelect, root, -1)
	sel := samgraph.Select(graph)
	err = samgraph.Verify(graph, sel)
	tr.end(id)
	if err != nil {
		return bc, err
	}
	bc.pairsTested, bc.edges = graph.PairsTested, graph.NumEdges()

	id = tr.start(spanMaterialize, root, -1)
	samples := make([]*dataset.Table, len(sel.Representatives))
	for i, v := range sel.Representatives {
		samples[i] = dataset.NewView(tbl, real.Cells[v].SampleRows).Materialize()
	}
	tr.end(id)
	bc.persisted = len(samples)

	bc.globalSampleBytes = global.Footprint()
	for _, s := range samples {
		bc.sampleTableBytes += s.Footprint()
	}
	tr.end(root)

	id = tr.start(spanGreedy, -1, -1)
	for _, c := range real.Cells {
		if _, err := sampling.Greedy(p.Loss, dataset.NewView(tbl, c.Rows), p.Theta, p.Greedy); err != nil {
			tr.end(id)
			return bc, err
		}
	}
	tr.end(id)

	id = tr.start(spanWholeBuild, -1, -1)
	built, err := core.Build(ctx, tbl, p)
	tr.end(id)
	if err != nil {
		return bc, err
	}
	st := built.Stats()
	bc.cubeTableBytes = st.CubeTableBytes
	if st.NumIcebergCells != bc.icebergCells || st.NumPersistedSamples != bc.persisted || st.SamGraphPairsTested != bc.pairsTested {
		return bc, fmt.Errorf("build replay diverged from core.Build: %d/%d iceberg cells, %d/%d samples, %d/%d pair tests",
			bc.icebergCells, st.NumIcebergCells, bc.persisted, st.NumPersistedSamples, bc.pairsTested, st.SamGraphPairsTested)
	}
	return bc, nil
}

// stageSpans maps the names of the production stage tracer
// (tabula_build_stage_seconds) to the replay span that covers the same work.
var stageSpans = map[string]string{
	"dry_run":       spanDryRun,
	"real_run":      spanRealRun,
	"samgraph_join": spanJoin,
	"build_total":   spanReplay,
}

// stageDisagreementPct is the largest relative gap between the replay's
// outside timings and the stage sums the server exposes for its own build,
// over the stages that are at least a tenth of the build (a 30 ms stage
// differs by tens of percent between any two runs).
func stageDisagreementPct(tr *tracer, m *scraped) float64 {
	stageSum := func(stage string) float64 {
		return m.get(`tabula_build_stage_seconds_sum{stage="` + stage + `"}`)
	}
	total := stageSum("build_total")
	worst := 0.0
	for stage, spanName := range stageSpans {
		inside := stageSum(stage)
		if inside < total/10 {
			continue
		}
		if gap := 100 * math.Abs(tr.durMS(spanName)/1e3-inside) / inside; gap > worst {
			worst = gap
		}
	}
	return worst
}
