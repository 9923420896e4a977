package tabula

import (
	"context"
	"strings"
	"testing"
)

// buildDoCube registers a small appendable cube as "c" and returns the
// DB (opts let tests arm metrics).
func buildDoCube(t *testing.T, opts ...Option) *DB {
	t.Helper()
	db := Open(opts...)
	params := DefaultParams(NewHistogramLoss("fare_amount"), 1.0, "payment_type", "vendor_name")
	params.EnableAppend = true
	cube, err := Build(GenerateTaxi(2500, 53), params)
	if err != nil {
		t.Fatal(err)
	}
	db.RegisterCube("c", cube)
	return db
}

// TestDoDispatch checks every request kind routes to the same answers
// as the deprecated per-kind methods.
func TestDoDispatch(t *testing.T) {
	db := buildDoCube(t)
	ctx := context.Background()

	// Where dispatch ≡ QueryByValues.
	where := map[string]string{"payment_type": "cash"}
	resp, err := db.Do(ctx, QueryRequest{Cube: "c", Where: where})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result == nil || resp.Results != nil {
		t.Fatalf("Where response shape: %+v", resp)
	}
	old, err := db.QueryByValues(ctx, "c", where)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.SampleID != old.SampleID || resp.Result.Shard != old.Shard ||
		resp.Result.Sample.NumRows() != old.Sample.NumRows() {
		t.Fatalf("Do(Where) != QueryByValues: %+v vs %+v", resp.Result, old)
	}

	// Conds dispatch ≡ Query.
	conds := []Condition{{Attr: "payment_type", Value: StringValue("credit")}}
	resp, err = db.Do(ctx, QueryRequest{Cube: "c", Conds: conds})
	if err != nil {
		t.Fatal(err)
	}
	oldC, err := db.Query(ctx, "c", conds)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.SampleID != oldC.SampleID {
		t.Fatalf("Do(Conds) != Query: %+v vs %+v", resp.Result, oldC)
	}

	// Batch dispatch ≡ QueryBatchByValues: index-aligned, one Version.
	batch := []map[string]string{
		{"payment_type": "cash"},
		{"payment_type": "credit"},
		{"vendor_name": "CMT"},
	}
	resp, err = db.Do(ctx, QueryRequest{Cube: "c", Batch: batch})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result != nil || len(resp.Results) != len(batch) {
		t.Fatalf("Batch response shape: %+v", resp)
	}
	oldB, err := db.QueryBatchByValues(ctx, "c", batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if resp.Results[i].SampleID != oldB[i].SampleID {
			t.Fatalf("Do(Batch)[%d] != QueryBatchByValues[%d]", i, i)
		}
		if resp.Results[i].Version != resp.Results[0].Version {
			t.Fatal("batch results span snapshot versions")
		}
	}

	// Empty request = apex query.
	resp, err = db.Do(ctx, QueryRequest{Cube: "c"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result == nil || resp.Result.Sample.NumRows() == 0 {
		t.Fatalf("apex request: %+v", resp)
	}
}

func TestDoErrors(t *testing.T) {
	db := buildDoCube(t)
	ctx := context.Background()

	if _, err := db.Do(ctx, QueryRequest{Cube: "ghost"}); err == nil || !strings.Contains(err.Error(), "unknown cube") {
		t.Fatalf("unknown cube: %v", err)
	}
	_, err := db.Do(ctx, QueryRequest{
		Cube:  "c",
		Where: map[string]string{"payment_type": "cash"},
		Batch: []map[string]string{{"payment_type": "cash"}},
	})
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("ambiguous request: %v", err)
	}
	_, err = db.Do(ctx, QueryRequest{
		Cube:  "c",
		Where: map[string]string{"payment_type": "cash"},
		Conds: []Condition{{Attr: "payment_type", Value: StringValue("cash")}},
	})
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("ambiguous request: %v", err)
	}
}

// TestDoQueryCounters: a metrics-armed DB counts queries by kind, and
// the deprecated wrappers feed the same counters (they route through
// Do).
func TestDoQueryCounters(t *testing.T) {
	reg := NewMetricsRegistry()
	db := buildDoCube(t, WithMetrics(reg))
	ctx := context.Background()

	if _, err := db.QueryByValues(ctx, "c", map[string]string{"payment_type": "cash"}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Do(ctx, QueryRequest{Cube: "c", Where: map[string]string{"payment_type": "credit"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryBatchByValues(ctx, "c", []map[string]string{{"payment_type": "cash"}, {"vendor_name": "VTS"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(ctx, "c", nil); err != nil {
		t.Fatal(err)
	}

	assertValue := func(name string, want float64, labels ...MetricLabel) {
		t.Helper()
		v, ok := reg.Value(name, labels...)
		if !ok || v != want {
			t.Fatalf("%s%v = %v (ok=%v), want %v", name, labels, v, ok, want)
		}
	}
	kind := func(k string) MetricLabel { return MetricLabel{Name: "kind", Value: k} }
	assertValue("tabula_db_queries_total", 2, kind("values"))
	assertValue("tabula_db_queries_total", 1, kind("batch"))
	assertValue("tabula_db_queries_total", 1, kind("conds"))
	assertValue("tabula_db_batched_queries_total", 2)
}

// TestMetricsDisabledDBNoOp: queries and appends on a metrics-free DB
// run with every instrument nil — this is the no-op contract
// docs/GUARANTEES.md states.
func TestMetricsDisabledDBNoOp(t *testing.T) {
	db := buildDoCube(t) // no WithMetrics
	ctx := context.Background()
	if _, err := db.Do(ctx, QueryRequest{Cube: "c", Where: map[string]string{"payment_type": "cash"}}); err != nil {
		t.Fatal(err)
	}
	batch := GenerateTaxi(50, 99)
	if _, err := db.Append(ctx, "c", batch); err != nil {
		t.Fatal(err)
	}
	// WithMetrics(nil) is the same disabled mode, explicitly.
	db2 := buildDoCube(t, WithMetrics(nil))
	if _, err := db2.Do(ctx, QueryRequest{Cube: "c"}); err != nil {
		t.Fatal(err)
	}
}

// TestExecBuildStageMetrics: cube creation through Exec on a
// metrics-armed DB records per-stage build wall times.
func TestExecBuildStageMetrics(t *testing.T) {
	reg := NewMetricsRegistry()
	db := Open(WithMetrics(reg))
	db.RegisterTable("nyctaxi", GenerateTaxi(2500, 42))
	if _, err := db.Exec(context.Background(), `
		CREATE TABLE ride_cube AS
		SELECT payment_type, vendor_name, SAMPLING(*, 0.1) AS sample
		FROM nyctaxi
		GROUPBY CUBE(payment_type, vendor_name)
		HAVING mean_loss(fare_amount, Sam_global) > 0.1`); err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"build_total", "global_sample", "dry_run", "real_run", "samgraph_join", "samgraph_summaries", "samgraph_select", "materialize", "selection"} {
		v, ok := reg.Value("tabula_build_stage_seconds", MetricLabel{Name: "stage", Value: stage})
		if !ok || v < 1 {
			t.Errorf("stage %q: %v observations (ok=%v), want >= 1", stage, v, ok)
		}
	}
	// The join's work counts sit next to its wall time, and say which path
	// and pair test answered. The mean loss folds every iceberg cell once
	// into a raw summary and has no per-row costs; a heatmap cube is the
	// other way round, its cells share raw rows, and it takes the cover
	// pass.
	pairs, _ := reg.Value("tabula_samgraph_pairs_total")
	if pairs < 1 {
		t.Errorf("tabula_samgraph_pairs_total = %v after a build with sample selection", pairs)
	}
	iceberg, _ := reg.Value("tabula_cube_iceberg_cells", MetricLabel{Name: "cube", Value: "ride_cube"})
	summaries, _ := reg.Value("tabula_samgraph_summaries_total")
	if summaries < 2 || summaries != iceberg {
		t.Errorf("tabula_samgraph_summaries_total = %v after a mean-loss build with %v iceberg cells", summaries, iceberg)
	}
	if v, _ := reg.Value("tabula_samgraph_row_costs_total", MetricLabel{Name: "outcome", Value: "computed"}); v != 0 {
		t.Errorf("mean-loss join computed %v row costs, want 0", v)
	}
	pruned, _ := reg.Value("tabula_samgraph_pairs_pruned_total")
	if pruned < 1 || pruned > pairs {
		t.Errorf("tabula_samgraph_pairs_pruned_total = %v of %v pairs after a mean-loss build", pruned, pairs)
	}
	// Which selection path the build took: the mean loss takes the join,
	// so the cover pass ran no tests — yet its series is exported.
	if v, ok := reg.Value("tabula_samgraph_cover_tests_total"); !ok || v != 0 {
		t.Errorf("tabula_samgraph_cover_tests_total = %v (ok=%v) after a mean-loss build, want 0", v, ok)
	}
	// The real run sampled every iceberg cell of the mean-loss cube, and
	// kept every sample as a candidate.
	if v, _ := reg.Value("tabula_sampling_greedy_runs_total", MetricLabel{Name: "outcome", Value: "kept"}); v != iceberg {
		t.Errorf("tabula_sampling_greedy_runs_total{kept} = %v after a mean-loss build with %v iceberg cells", v, iceberg)
	}
	if v, ok := reg.Value("tabula_sampling_greedy_runs_total", MetricLabel{Name: "outcome", Value: "discarded"}); !ok || v != 0 {
		t.Errorf("tabula_sampling_greedy_runs_total{discarded} = %v (ok=%v) after a mean-loss build, want 0", v, ok)
	}
	if _, err := db.Exec(context.Background(), `
		CREATE TABLE heat_cube AS
		SELECT payment_type, vendor_name, SAMPLING(*, 0.001) AS sample
		FROM nyctaxi
		GROUPBY CUBE(payment_type, vendor_name)
		HAVING heatmap_loss(pickup, Sam_global) > 0.001`); err != nil {
		t.Fatal(err)
	}
	for _, outcome := range []string{"computed", "reused"} {
		if v, _ := reg.Value("tabula_samgraph_row_costs_total", MetricLabel{Name: "outcome", Value: outcome}); v < 1 {
			t.Errorf("tabula_samgraph_row_costs_total{outcome=%q} = %v after a heatmap build", outcome, v)
		}
	}
	if v, _ := reg.Value("tabula_samgraph_summaries_total"); v != summaries {
		t.Errorf("heatmap join folded %v raw summaries, want 0", v-summaries)
	}
	if v, _ := reg.Value("tabula_samgraph_pairs_pruned_total"); v != pruned {
		t.Errorf("heatmap join pruned %v pairs by key, want 0", v-pruned)
	}
	heatPairs, _ := reg.Value("tabula_samgraph_pairs_total")
	if heatPairs <= pairs {
		t.Errorf("tabula_samgraph_pairs_total did not grow with the second build: %v -> %v", pairs, heatPairs)
	}
	// A heatmap's pair test sums row costs, so every one of its tests was
	// the cover pass's.
	if v, _ := reg.Value("tabula_samgraph_cover_tests_total"); v != heatPairs-pairs {
		t.Errorf("heatmap build ran %v cover tests of its %v pair tests, want all", v, heatPairs-pairs)
	}
	// The heatmap build sampled on demand: a kept run for each persisted
	// sample, and at most one run per iceberg cell.
	heat, _ := db.CubeByName("heat_cube")
	hs := heat.Stats()
	kept, _ := reg.Value("tabula_sampling_greedy_runs_total", MetricLabel{Name: "outcome", Value: "kept"})
	discarded, _ := reg.Value("tabula_sampling_greedy_runs_total", MetricLabel{Name: "outcome", Value: "discarded"})
	if kept-iceberg != float64(hs.NumPersistedSamples) || kept-iceberg+discarded > float64(hs.NumIcebergCells) {
		t.Errorf("heatmap build: %v greedy runs kept and %v discarded for %d samples over %d iceberg cells",
			kept-iceberg, discarded, hs.NumPersistedSamples, hs.NumIcebergCells)
	}
	// The cube registered by Exec exports its snapshot gauges too.
	if v, ok := reg.Value("tabula_cube_version", MetricLabel{Name: "cube", Value: "ride_cube"}); !ok || v != 1 {
		t.Errorf("tabula_cube_version{ride_cube} = %v (ok=%v)", v, ok)
	}
}
