package tabula

// Benchmarks mirroring the paper's tables and figures (see DESIGN.md's
// experiment index). Each BenchmarkFigN target exercises the code path
// that regenerates figure N at benchmark-friendly scale; the full
// parameter sweeps with printed rows live in cmd/tabula-bench. Ablation
// benchmarks cover the design choices DESIGN.md calls out.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/tabula-db/tabula/internal/baselines"
	"github.com/tabula-db/tabula/internal/core"
	"github.com/tabula-db/tabula/internal/cube"
	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/engine"
	"github.com/tabula-db/tabula/internal/harness"
	"github.com/tabula-db/tabula/internal/loss"
	"github.com/tabula-db/tabula/internal/nyctaxi"
	"github.com/tabula-db/tabula/internal/samgraph"
	"github.com/tabula-db/tabula/internal/sampling"
)

const (
	benchRows    = 12000
	benchQueries = 20
	benchSeed    = 42
)

// benchTable is the shared dataset for all benchmarks (built once).
var benchTable = nyctaxi.Generate(benchRows, benchSeed)

func benchParams(task harness.Task, theta float64, nAttrs int, selection bool) core.Params {
	p := core.DefaultParams(harness.LossForTask(task), theta, nyctaxi.CubedAttrs[:nAttrs]...)
	p.Seed = benchSeed
	p.SampleSelection = selection
	p.Greedy.CandidateCap = 2048
	p.SamGraph.MaxCandidates = 24
	return p
}

func benchBuild(b *testing.B, task harness.Task, theta float64, nAttrs int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := core.Build(context.Background(), benchTable, benchParams(task, theta, nAttrs, true))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			st := tab.Stats()
			b.ReportMetric(float64(st.NumIcebergCells), "iceberg-cells")
			b.ReportMetric(float64(st.TotalBytes()), "cube-bytes")
		}
	}
}

// --- Figure 8: initialization time ------------------------------------------

func BenchmarkFig8aInitHeatmap(b *testing.B) {
	benchBuild(b, harness.TaskHeatmap, harness.ThetaSweep(harness.TaskHeatmap)[0], 5)
}

func BenchmarkFig8bInitMean(b *testing.B) {
	benchBuild(b, harness.TaskMean, harness.ThetaSweep(harness.TaskMean)[0], 5)
}

func BenchmarkFig8cInitRegression(b *testing.B) {
	benchBuild(b, harness.TaskRegression, harness.ThetaSweep(harness.TaskRegression)[0], 5)
}

func BenchmarkFig8dInitAttrs(b *testing.B) {
	benchBuild(b, harness.TaskHistogram, 0.5, 7)
}

// --- Figure 9: memory footprint ----------------------------------------------

// Figure 9's quantity is bytes, not time; the bench builds once per
// iteration and reports the footprint components as metrics.
func BenchmarkFig9MemoryFootprint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := core.Build(context.Background(), benchTable, benchParams(harness.TaskHistogram, 0.5, 5, true))
		if err != nil {
			b.Fatal(err)
		}
		st := tab.Stats()
		b.ReportMetric(float64(st.GlobalSampleBytes), "global-bytes")
		b.ReportMetric(float64(st.CubeTableBytes), "cubetable-bytes")
		b.ReportMetric(float64(st.SampleTableBytes), "sampletable-bytes")
	}
}

// --- Figure 10: cubing overhead ----------------------------------------------

func BenchmarkFig10Cubing(b *testing.B) {
	small := nyctaxi.Generate(benchRows/4, benchSeed)
	cfg := baselines.Config{
		Loss:       loss.NewHistogram(nyctaxi.ColFare),
		Theta:      0.5,
		CubedAttrs: nyctaxi.CubedAttrs[:4],
		Seed:       benchSeed,
	}
	for _, mk := range []struct {
		name string
		make func() baselines.Approach
	}{
		{"Tabula", func() baselines.Approach { return baselines.NewTabula() }},
		{"PartSamCube", func() baselines.Approach { return baselines.NewPartSamCube() }},
		{"FullSamCube", func() baselines.Approach { return baselines.NewFullSamCube() }},
	} {
		b.Run(mk.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a := mk.make()
				if err := a.Init(small, cfg); err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(a.MemoryBytes()), "cube-bytes")
				}
			}
		})
	}
}

// --- Figures 11–14: per-query data-system time --------------------------------

// benchQuerySweep measures one query round-trip per approach for a task.
func benchQuerySweep(b *testing.B, task harness.Task) {
	theta := harness.ThetaSweep(task)[0]
	attrs := nyctaxi.CubedAttrs[:5]
	w, err := harness.NewWorkload(benchTable, attrs, benchQueries, benchSeed+1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := baselines.Config{Loss: harness.LossForTask(task), Theta: theta, CubedAttrs: attrs, Seed: benchSeed}
	approaches := []baselines.Approach{
		baselines.NewSampleFirst("SamFirst", 0.01),
		baselines.NewSampleOnTheFly(),
		baselines.NewPOIsam(),
		func() baselines.Approach {
			t := baselines.NewTabula()
			t.GreedyCandidateCap = 2048
			t.SamGraphMaxCandidates = 24
			return t
		}(),
	}
	for _, a := range approaches {
		a := a
		b.Run(a.Name(), func(b *testing.B) {
			if err := a.Init(benchTable, cfg); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := w.Queries[i%len(w.Queries)]
				if _, err := a.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig11HeatmapQuery(b *testing.B)    { benchQuerySweep(b, harness.TaskHeatmap) }
func BenchmarkFig12HistogramQuery(b *testing.B)  { benchQuerySweep(b, harness.TaskHistogram) }
func BenchmarkFig13RegressionQuery(b *testing.B) { benchQuerySweep(b, harness.TaskRegression) }
func BenchmarkFig14MeanQuery(b *testing.B)       { benchQuerySweep(b, harness.TaskMean) }

// --- Table I: dry-run stage ----------------------------------------------------

func BenchmarkTable1DryRun(b *testing.B) {
	enc, codec := benchEncoding(b, 5)
	f := loss.NewMean(nyctaxi.ColFare)
	ev := benchBindGlobal(b, f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dry, err := cube.DryRun(context.Background(), benchTable, enc, codec, ev, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(dry.TotalCells()), "cells")
		}
	}
}

// --- Table II: sample visualization time ----------------------------------------

func BenchmarkTable2Visualization(b *testing.B) {
	tab, err := core.Build(context.Background(), benchTable, benchParams(harness.TaskMean, 0.025, 5, true))
	if err != nil {
		b.Fatal(err)
	}
	sample := dataset.FullView(tab.GlobalSample())
	raw := dataset.FullView(benchTable)
	for _, tc := range []struct {
		name string
		task harness.Task
		view dataset.View
	}{
		{"HeatmapOnSample", harness.TaskHeatmap, sample},
		{"MeanOnSample", harness.TaskMean, sample},
		{"RegressionOnSample", harness.TaskRegression, sample},
		{"HeatmapNoSampling", harness.TaskHeatmap, raw},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				harness.RunVisualTask(tc.task, tc.view)
			}
		})
	}
}

// --- Ablations (DESIGN.md §5) -----------------------------------------------

// Lazy-forward vs naive Algorithm 1 on a realistic cell population.
func BenchmarkAblationLazyGreedy(b *testing.B) {
	rows := cellRows(b, "payment_type", "credit", 1500)
	view := dataset.NewView(benchTable, rows)
	f := loss.NewHeatmap(nyctaxi.ColPickup, 0)
	for _, lazy := range []struct {
		name string
		opt  sampling.GreedyOptions
	}{
		{"Naive", sampling.GreedyOptions{Lazy: false}},
		{"LazyForward", sampling.GreedyOptions{Lazy: true}},
	} {
		lazy := lazy
		b.Run(lazy.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sampling.Greedy(f, view, 0.004, lazy.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Cost-model path choice: group-all vs join-first for the real run.
func BenchmarkAblationCostModel(b *testing.B) {
	enc, codec := benchEncoding(b, 5)
	f := loss.NewMean(nyctaxi.ColFare)
	ev := benchBindGlobal(b, f)
	dry, err := cube.DryRun(context.Background(), benchTable, enc, codec, ev, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	for _, policy := range []struct {
		name string
		p    cube.CostPolicy
	}{
		{"Inequation1", cube.CostModelInequation1},
		{"ForceGroupAll", cube.CostForceGroupAll},
		{"ForceJoinFirst", cube.CostForceJoinFirst},
	} {
		policy := policy
		b.Run(policy.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := cube.RealRun(context.Background(), benchTable, enc, codec, dry, f, 0.05, cube.RealRunOptions{
					Greedy: sampling.DefaultGreedyOptions(),
					Cost:   policy.p,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Lattice derivation vs per-cuboid recomputation in the dry run.
func BenchmarkAblationDryRun(b *testing.B) {
	enc, codec := benchEncoding(b, 5)
	f := loss.NewMean(nyctaxi.ColFare)
	ev := benchBindGlobal(b, f)
	b.Run("DeriveLattice", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cube.DryRun(context.Background(), benchTable, enc, codec, ev, 0.05); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("RecomputePerCuboid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cube.DryRunRecompute(benchTable, enc, codec, ev, 0.05); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// SamGraph selection of a row-cost loss: the cover pass with early abort
// vs the exhaustive join through generic Loss calls.
func BenchmarkAblationSamGraphJoin(b *testing.B) {
	vertices := benchVertices(b, 30)
	f := loss.NewHistogram(nyctaxi.ColFare)
	b.Run("AlgebraicEarlyAbort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := samgraph.Build(context.Background(), benchTable, vertices, f, 0.5, samgraph.BuildOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("GenericLossCalls", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := samgraph.Build(context.Background(), benchTable, vertices, opaqueBenchLoss{f}, 0.5, samgraph.BuildOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Parallel SamGraph cover pass (a row-cost loss) across worker counts. The
// output is byte-identical at every width (see
// internal/samgraph/rowcost_test.go); this measures only the wall-clock
// scaling of the pair tests.
func BenchmarkAblationParallelSamGraph(b *testing.B) {
	vertices := benchVertices(b, 40)
	f := loss.NewHistogram(nyctaxi.ColFare)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("Workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := samgraph.BuildOptions{Workers: workers}
				if _, err := samgraph.Build(context.Background(), benchTable, vertices, f, 0.5, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Concurrent derivation-tree walk of the dry run across worker counts.
// Sibling cuboids derive in parallel; per-cuboid output is unchanged.
func BenchmarkAblationParallelDryRun(b *testing.B) {
	enc, codec := benchEncoding(b, 5)
	f := loss.NewMean(nyctaxi.ColFare)
	ev := benchBindGlobal(b, f)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("Workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := cube.DryRunKeep(context.Background(), benchTable, enc, codec, ev, 0.05, false, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// opaqueBenchLoss hides the DryRunner capability so samgraph falls back
// to direct Loss evaluation.
type opaqueBenchLoss struct{ inner loss.Func }

func (o opaqueBenchLoss) Name() string                       { return "opaque" }
func (o opaqueBenchLoss) Unit() string                       { return o.inner.Unit() }
func (o opaqueBenchLoss) Loss(raw, sam dataset.View) float64 { return o.inner.Loss(raw, sam) }

// --- fixtures ---------------------------------------------------------------

func benchEncoding(b *testing.B, nAttrs int) (*engine.CatEncoding, *engine.KeyCodec) {
	b.Helper()
	cols := make([]int, nAttrs)
	for i, a := range nyctaxi.CubedAttrs[:nAttrs] {
		cols[i] = benchTable.Schema().ColumnIndex(a)
	}
	enc, err := engine.NewCatEncoding(benchTable, cols)
	if err != nil {
		b.Fatal(err)
	}
	codec, err := engine.NewKeyCodec(enc.Cardinalities())
	if err != nil {
		b.Fatal(err)
	}
	return enc, codec
}

func benchBindGlobal(b *testing.B, f loss.Func) loss.CellEvaluator {
	b.Helper()
	rng := rand.New(rand.NewSource(benchSeed))
	rows := sampling.Random(dataset.FullView(benchTable), sampling.DefaultSerflingSize(), rng)
	ev, err := f.(loss.DryRunner).BindSample(benchTable, dataset.NewView(benchTable, rows))
	if err != nil {
		b.Fatal(err)
	}
	return ev
}

func cellRows(b *testing.B, attr, value string, maxRows int) []int32 {
	b.Helper()
	col := benchTable.Schema().ColumnIndex(attr)
	var rows []int32
	for r := 0; r < benchTable.NumRows() && len(rows) < maxRows; r++ {
		if benchTable.Value(r, col).S == value {
			rows = append(rows, int32(r))
		}
	}
	return rows
}

func benchVertices(b *testing.B, n int) []samgraph.Vertex {
	b.Helper()
	rng := rand.New(rand.NewSource(benchSeed + 5))
	vertices := make([]samgraph.Vertex, n)
	for i := range vertices {
		rows := sampling.Random(dataset.FullView(benchTable), 400, rng)
		vertices[i] = samgraph.Vertex{Rows: rows, SampleRows: rows[:20]}
	}
	return vertices
}

// --- Concurrency: the snapshot design's headline number ---------------------

// BenchmarkConcurrentQuery measures lock-free query throughput with all
// CPUs issuing dashboard queries against one cube at once. Because
// Query takes no locks — a single atomic snapshot load — throughput
// should scale with GOMAXPROCS instead of collapsing on a mutex.
func BenchmarkConcurrentQuery(b *testing.B) {
	tab, err := core.Build(context.Background(), benchTable, benchParams(harness.TaskMean, 0.1, 2, true))
	if err != nil {
		b.Fatal(err)
	}
	conds := [][]core.Condition{
		nil,
		{{Attr: "vendor_name", Value: dataset.StringValue("CMT")}},
		{{Attr: "pickup_weekday", Value: dataset.StringValue("Fri")}},
		{{Attr: "vendor_name", Value: dataset.StringValue("VTS")},
			{Attr: "pickup_weekday", Value: dataset.StringValue("Mon")}},
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := tab.Query(ctx, conds[i%len(conds)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkConcurrentQueryDuringAppend is the contended variant: one
// goroutine continuously appends batches (publishing successor
// snapshots) while the benchmark goroutines query. Queries should see
// append-independent latency — they never wait for the maintainer.
func BenchmarkConcurrentQueryDuringAppend(b *testing.B) {
	p := benchParams(harness.TaskHistogram, 1.0, 2, true)
	p.EnableAppend = true
	tab, err := core.Build(context.Background(), benchTable, p)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		seed := int64(benchSeed + 1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			seed++
			if _, err := tab.Append(ctx, nyctaxi.Generate(500, seed)); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	conds := []core.Condition{{Attr: "vendor_name", Value: dataset.StringValue("CMT")}}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := tab.Query(ctx, conds); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	close(stop)
	<-done
}
