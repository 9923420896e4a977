package harness

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"github.com/tabula-db/tabula/internal/baselines"
	"github.com/tabula-db/tabula/internal/core"
	"github.com/tabula-db/tabula/internal/cube"
	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/engine"
	"github.com/tabula-db/tabula/internal/loss"
	"github.com/tabula-db/tabula/internal/nyctaxi"
	"github.com/tabula-db/tabula/internal/sampling"
)

// ExperimentFunc runs one experiment at a scale, optionally narrating
// progress, and returns its report(s).
type ExperimentFunc func(s Scale, progress io.Writer) ([]*Report, error)

// Experiments maps experiment ids to runners — one per table and figure
// of the paper's evaluation (see DESIGN.md's experiment index).
var Experiments = map[string]ExperimentFunc{
	"fig8a": func(s Scale, w io.Writer) ([]*Report, error) {
		return initSweepFigure(s, w, TaskHeatmap, "fig8a", true)
	},
	"fig8b": func(s Scale, w io.Writer) ([]*Report, error) { return initSweepFigure(s, w, TaskMean, "fig8b", true) },
	"fig8c": func(s Scale, w io.Writer) ([]*Report, error) {
		return initSweepFigure(s, w, TaskRegression, "fig8c", true)
	},
	"fig8d": Fig8d,
	"fig9a": func(s Scale, w io.Writer) ([]*Report, error) {
		return initSweepFigure(s, w, TaskHeatmap, "fig9a", false)
	},
	"fig9b": func(s Scale, w io.Writer) ([]*Report, error) { return initSweepFigure(s, w, TaskMean, "fig9b", false) },
	"fig9c": func(s Scale, w io.Writer) ([]*Report, error) {
		return initSweepFigure(s, w, TaskRegression, "fig9c", false)
	},
	"fig9d":  Fig9d,
	"fig10a": Fig10,
	"fig10b": Fig10,
	"fig11a": func(s Scale, w io.Writer) ([]*Report, error) { return querySweepFigure(s, w, TaskHeatmap, "fig11") },
	"fig11b": func(s Scale, w io.Writer) ([]*Report, error) { return querySweepFigure(s, w, TaskHeatmap, "fig11") },
	"fig12a": Fig12,
	"fig12b": Fig12,
	"fig13a": func(s Scale, w io.Writer) ([]*Report, error) { return querySweepFigure(s, w, TaskRegression, "fig13") },
	"fig13b": func(s Scale, w io.Writer) ([]*Report, error) { return querySweepFigure(s, w, TaskRegression, "fig13") },
	"fig14a": func(s Scale, w io.Writer) ([]*Report, error) { return querySweepFigure(s, w, TaskMean, "fig14") },
	"fig14b": func(s Scale, w io.Writer) ([]*Report, error) { return querySweepFigure(s, w, TaskMean, "fig14") },
	"table1": Table1,
	"table2": Table2,
}

// ExperimentIDs returns all experiment ids in a stable order.
func ExperimentIDs() []string {
	ids := make([]string, 0, len(Experiments))
	for id := range Experiments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// defaultAttrs returns the first n of the paper's seven predicate
// attributes (5 by default).
func defaultAttrs(n int) []string { return nyctaxi.CubedAttrs[:n] }

// flyGreedy is the greedy configuration used by the on-the-fly baselines
// on large populations (see sampling.GreedyOptions.CandidateCap).
const flyCandidateCap = 2048

// buildConfig assembles a baseline config for a task and threshold.
func buildConfig(task Task, theta float64, attrs []string, seed int64) baselines.Config {
	return baselines.Config{
		Loss:       LossForTask(task),
		Theta:      theta,
		CubedAttrs: attrs,
		Seed:       seed,
	}
}

// tabulaParams mirrors buildConfig for direct core.Build calls.
func tabulaParams(task Task, theta float64, attrs []string, seed int64, selection bool) core.Params {
	p := core.DefaultParams(LossForTask(task), theta, attrs...)
	p.Seed = seed
	p.SampleSelection = selection
	p.Greedy.CandidateCap = flyCandidateCap
	// Cap the SamGraph tests per cell (the paper allows a non-exhaustive
	// join): the exhaustive join tests a cell against the 24 largest
	// samples, the cover pass against the first 24 representatives.
	p.SamGraph.MaxCandidates = 24
	return p
}

// --- Figures 8 & 9: initialization time and memory vs threshold -------------

// initSweepFigure reproduces Figures 8a–c (time=true) and 9a–c
// (time=false): Tabula's initialization broken into dry run, real run and
// sample selection (or its memory broken into global sample, cube table,
// sample table; plus Tabula* total), across the loss-threshold sweep,
// with SnappyData's initialization for reference.
func initSweepFigure(s Scale, progress io.Writer, task Task, id string, timeFigure bool) ([]*Report, error) {
	tbl := nyctaxi.Generate(s.Rows, s.Seed)
	attrs := defaultAttrs(5)
	var rep *Report
	if timeFigure {
		rep = &Report{
			ID:      id,
			Title:   fmt.Sprintf("Initialization time vs threshold (%s loss), %d rows", task, s.Rows),
			Columns: []string{"theta", "dry run", "real run", "SamS", "Tabula total", "SnappyData"},
			Notes: []string{
				"expected shape: dry-run time flat across thresholds; total grows as theta shrinks (more iceberg cells)",
			},
		}
	} else {
		rep = &Report{
			ID:      id,
			Title:   fmt.Sprintf("Memory footprint vs threshold (%s loss), %d rows", task, s.Rows),
			Columns: []string{"theta", "global sample", "cube table", "sample table", "Tabula total", "Tabula* total", "SnappyData"},
			Notes: []string{
				"expected shape: global sample flat; cube+sample tables grow as theta shrinks; Tabula* ≫ Tabula",
			},
		}
	}
	for _, theta := range ThetaSweep(task) {
		Fprintf(progress, "%s: theta=%s\n", id, ThetaLabel(task, theta))
		tab, err := core.Build(context.Background(), tbl, tabulaParams(task, theta, attrs, s.Seed, true))
		if err != nil {
			return nil, err
		}
		st := tab.Stats()
		snappy := baselines.NewSnappy("SnappyData", 0.01, nyctaxi.ColFare)
		if err := snappy.Init(tbl, buildConfig(task, theta, attrs, s.Seed)); err != nil {
			return nil, err
		}
		if timeFigure {
			rep.AddRow(ThetaLabel(task, theta),
				fmtDur(st.DryRunTime), fmtDur(st.RealRunTime), fmtDur(st.SelectionTime),
				fmtDur(st.InitTime), fmtDur(snappy.InitTime()))
		} else {
			star, err := core.Build(context.Background(), tbl, tabulaParams(task, theta, attrs, s.Seed, false))
			if err != nil {
				return nil, err
			}
			rep.AddRow(ThetaLabel(task, theta),
				fmtBytes(st.GlobalSampleBytes), fmtBytes(st.CubeTableBytes), fmtBytes(st.SampleTableBytes),
				fmtBytes(st.TotalBytes()), fmtBytes(star.Stats().TotalBytes()), fmtBytes(snappy.MemoryBytes()))
		}
	}
	return []*Report{rep}, nil
}

// Fig8d reproduces Figure 8d: initialization time vs number of cubed
// attributes (4–7), histogram loss at $0.5.
func Fig8d(s Scale, progress io.Writer) ([]*Report, error) {
	return attrSweepInit(s, progress, "fig8d", true)
}

// Fig9d reproduces Figure 9d: memory footprint vs number of attributes.
func Fig9d(s Scale, progress io.Writer) ([]*Report, error) {
	return attrSweepInit(s, progress, "fig9d", false)
}

func attrSweepInit(s Scale, progress io.Writer, id string, timeFigure bool) ([]*Report, error) {
	tbl := nyctaxi.Generate(s.Rows, s.Seed)
	const theta = 0.5 // $0.5 histogram loss, per the paper
	var rep *Report
	if timeFigure {
		rep = &Report{
			ID:      id,
			Title:   fmt.Sprintf("Initialization time vs number of attributes (histogram loss, $0.5), %d rows", s.Rows),
			Columns: []string{"attrs", "cells", "iceberg", "dry run", "real run", "SamS", "Tabula total"},
			Notes:   []string{"expected shape: cells grow exponentially with attributes; dry-run time grows mildly (first cuboid dominates)"},
		}
	} else {
		rep = &Report{
			ID:      id,
			Title:   fmt.Sprintf("Memory footprint vs number of attributes (histogram loss, $0.5), %d rows", s.Rows),
			Columns: []string{"attrs", "global sample", "cube table", "sample table", "Tabula total"},
			Notes:   []string{"expected shape: global sample flat; cube/sample tables grow with attributes, sample table sublinearly (representative sharing)"},
		}
	}
	for n := 4; n <= 7; n++ {
		Fprintf(progress, "%s: %d attributes\n", id, n)
		tab, err := core.Build(context.Background(), tbl, tabulaParams(TaskHistogram, theta, defaultAttrs(n), s.Seed, true))
		if err != nil {
			return nil, err
		}
		st := tab.Stats()
		if timeFigure {
			rep.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", st.NumCells), fmt.Sprintf("%d", st.NumIcebergCells),
				fmtDur(st.DryRunTime), fmtDur(st.RealRunTime), fmtDur(st.SelectionTime), fmtDur(st.InitTime))
		} else {
			rep.AddRow(fmt.Sprintf("%d", n),
				fmtBytes(st.GlobalSampleBytes), fmtBytes(st.CubeTableBytes), fmtBytes(st.SampleTableBytes), fmtBytes(st.TotalBytes()))
		}
	}
	return []*Report{rep}, nil
}

// --- Figure 10: cubing overhead vs Full/PartSamCube --------------------------

// Fig10 reproduces Figures 10a and 10b on a reduced dataset (the paper
// uses 5 GB instead of the full 100 GB for the same reason): Tabula vs
// the fully and partially materialized sampling cubes, histogram loss.
func Fig10(s Scale, progress io.Writer) ([]*Report, error) {
	rows := s.Rows / 8
	if rows < 1000 {
		rows = 1000
	}
	tbl := nyctaxi.Generate(rows, s.Seed)
	attrs := defaultAttrs(4)
	cfg := buildConfig(TaskHistogram, 0.5, attrs, s.Seed)
	timeRep := &Report{
		ID:      "fig10a",
		Title:   fmt.Sprintf("Cubing initialization time (histogram loss, $0.5), %d rows, 4 attrs", rows),
		Columns: []string{"approach", "init time"},
		Notes:   []string{"expected shape: Tabula ~an order of magnitude (paper: 40x) below FullSamCube and PartSamCube"},
	}
	memRep := &Report{
		ID:      "fig10b",
		Title:   fmt.Sprintf("Cubing memory footprint (histogram loss, $0.5), %d rows, 4 attrs", rows),
		Columns: []string{"approach", "memory"},
		Notes:   []string{"expected shape: FullSamCube ≫ PartSamCube ≫ Tabula (paper: 50-100x and 5-8x)"},
	}
	approaches := []baselines.Approach{
		baselines.NewTabula(),
		baselines.NewPartSamCube(),
		baselines.NewFullSamCube(),
	}
	for _, a := range approaches {
		Fprintf(progress, "fig10: init %s\n", a.Name())
		if err := a.Init(tbl, cfg); err != nil {
			return nil, err
		}
		timeRep.AddRow(a.Name(), fmtDur(a.InitTime()))
		memRep.AddRow(a.Name(), fmtBytes(a.MemoryBytes()))
	}
	return []*Report{timeRep, memRep}, nil
}

// --- Figures 11, 13, 14: data-system time and actual loss vs threshold ------

// querySweepFigure reproduces the (a) data-system-time and (b)
// actual-loss panels of Figures 11 (heatmap), 13 (regression) and 14
// (mean; adds SnappyData) in one run.
func querySweepFigure(s Scale, progress io.Writer, task Task, figID string) ([]*Report, error) {
	tbl := nyctaxi.Generate(s.Rows, s.Seed)
	attrs := defaultAttrs(5)
	w, err := NewWorkload(tbl, attrs, s.Queries, s.Seed+1)
	if err != nil {
		return nil, err
	}
	timeRep := &Report{
		ID:      figID + "a",
		Title:   fmt.Sprintf("Data-system time vs threshold (%s loss), %d rows, %d queries", task, s.Rows, s.Queries),
		Columns: []string{"theta", "approach", "data-system avg", "vis avg", "answer avg", "raw fallbacks"},
		Notes:   []string{"expected shape: SamFirst flat & fast (no guarantee); SamFly/POIsam slow (raw scans); Tabula fast with guarantee"},
	}
	lossRep := &Report{
		ID:      figID + "b",
		Title:   fmt.Sprintf("Actual accuracy loss vs threshold (%s loss)", task),
		Columns: []string{"theta", "approach", "loss min", "loss avg", "loss max", "within theta"},
		Notes: []string{
			"expected shape: SamFly/Tabula/Tabula* never exceed theta; POIsam occasionally exceeds; SamFirst far above",
		},
	}
	for _, theta := range ThetaSweep(task) {
		cfg := buildConfig(task, theta, attrs, s.Seed)
		approaches := []baselines.Approach{
			baselines.NewSampleFirst("SamFirst-S", 0.001),
			baselines.NewSampleFirst("SamFirst-L", 0.01),
			newFlySampler(),
			baselines.NewPOIsam(),
			tabulaWithCap(true),
			tabulaWithCap(false),
		}
		if task == TaskMean {
			approaches = append(approaches, baselines.NewSnappy("SnappyData", 0.01, nyctaxi.ColFare))
		}
		for _, a := range approaches {
			Fprintf(progress, "%s: theta=%s approach=%s\n", figID, ThetaLabel(task, theta), a.Name())
			res, err := RunApproach(a, w, cfg, task)
			if err != nil {
				return nil, err
			}
			timeRep.AddRow(ThetaLabel(task, theta), res.Approach,
				fmtDur(res.DataSystemAvg), fmtDur(res.VisAvg),
				fmt.Sprintf("%.0f", res.AnswerAvg), fmt.Sprintf("%d", res.RawFallbacks))
			within := "yes"
			if res.LossMax > theta*(1+1e-9) {
				within = "NO"
			}
			lossRep.AddRow(ThetaLabel(task, theta), res.Approach,
				fmtLoss(res.LossMin), fmtLoss(res.LossAvg), fmtLoss(res.LossMax), within)
		}
	}
	return []*Report{timeRep, lossRep}, nil
}

// newFlySampler returns SampleOnTheFly with the candidate cap that keeps
// per-query greedy sampling tractable on large populations.
func newFlySampler() baselines.Approach {
	return &cappedFly{inner: baselines.NewSampleOnTheFly()}
}

// cappedFly wraps SampleOnTheFly, injecting the candidate cap by
// rebuilding the config.
type cappedFly struct {
	inner *baselines.SampleOnTheFly
	tbl   *dataset.Table
	cfg   baselines.Config
}

func (c *cappedFly) Name() string { return c.inner.Name() }
func (c *cappedFly) Init(tbl *dataset.Table, cfg baselines.Config) error {
	c.tbl, c.cfg = tbl, cfg
	return c.inner.Init(tbl, cfg)
}
func (c *cappedFly) Query(conds []core.Condition) (baselines.Result, error) {
	return c.inner.QueryWithOptions(conds, sampling.GreedyOptions{Lazy: true, CandidateCap: flyCandidateCap})
}
func (c *cappedFly) InitTime() time.Duration { return c.inner.InitTime() }
func (c *cappedFly) MemoryBytes() int64      { return c.inner.MemoryBytes() }

// tabulaWithCap builds the Tabula approach whose greedy sampler uses the
// candidate cap (matching the on-the-fly baselines for fairness).
func tabulaWithCap(selection bool) baselines.Approach {
	t := baselines.NewTabulaStar()
	if selection {
		t = baselines.NewTabula()
	}
	t.GreedyCandidateCap = flyCandidateCap
	t.SamGraphMaxCandidates = 24
	return t
}

// --- Figure 12: impact of the number of attributes --------------------------

// Fig12 reproduces Figures 12a/12b: data-system time and actual loss as
// the number of predicate attributes grows (histogram loss, $0.5).
func Fig12(s Scale, progress io.Writer) ([]*Report, error) {
	tbl := nyctaxi.Generate(s.Rows, s.Seed)
	const theta = 0.5
	timeRep := &Report{
		ID:      "fig12a",
		Title:   fmt.Sprintf("Data-system time vs number of attributes (histogram loss, $0.5), %d rows", s.Rows),
		Columns: []string{"attrs", "approach", "data-system avg", "vis avg", "answer avg"},
		Notes:   []string{"expected shape: SamFirst/SamFly/POIsam flat (full scans); Tabula grows slightly (bigger cube tables)"},
	}
	lossRep := &Report{
		ID:      "fig12b",
		Title:   "Actual accuracy loss vs number of attributes (histogram loss)",
		Columns: []string{"attrs", "approach", "loss min", "loss avg", "loss max", "within theta"},
		Notes:   []string{"expected shape: number of attributes has no effect on actual loss"},
	}
	for n := 4; n <= 7; n++ {
		attrs := defaultAttrs(n)
		w, err := NewWorkload(tbl, attrs, s.Queries, s.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		cfg := buildConfig(TaskHistogram, theta, attrs, s.Seed)
		approaches := []baselines.Approach{
			baselines.NewSampleFirst("SamFirst-S", 0.001),
			baselines.NewSampleFirst("SamFirst-L", 0.01),
			newFlySampler(),
			baselines.NewPOIsam(),
			tabulaWithCap(true),
		}
		for _, a := range approaches {
			Fprintf(progress, "fig12: attrs=%d approach=%s\n", n, a.Name())
			res, err := RunApproach(a, w, cfg, TaskHistogram)
			if err != nil {
				return nil, err
			}
			timeRep.AddRow(fmt.Sprintf("%d", n), res.Approach,
				fmtDur(res.DataSystemAvg), fmtDur(res.VisAvg), fmt.Sprintf("%.0f", res.AnswerAvg))
			within := "yes"
			if res.LossMax > theta*(1+1e-9) {
				within = "NO"
			}
			lossRep.AddRow(fmt.Sprintf("%d", n), res.Approach,
				fmtLoss(res.LossMin), fmtLoss(res.LossAvg), fmtLoss(res.LossMax), within)
		}
	}
	return []*Report{timeRep, lossRep}, nil
}

// --- Table I: dry-run iceberg cell tables ------------------------------------

// Table1 reproduces Table I: the iceberg cell table produced by the dry
// run on the running example (distance bucket D, passenger count C,
// payment method M; statistical-mean loss on fare), with the per-cuboid
// derived tables and the Figure 5a lattice annotations.
func Table1(s Scale, progress io.Writer) ([]*Report, error) {
	tbl := WithDistanceBucket(nyctaxi.Generate(s.Rows, s.Seed))
	attrs := []string{"trip_distance_bucket", "passenger_count", "payment_type"}
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		cols[i] = tbl.Schema().ColumnIndex(a)
	}
	enc, err := engine.NewCatEncoding(tbl, cols)
	if err != nil {
		return nil, err
	}
	codec, err := engine.NewKeyCodec(enc.Cardinalities())
	if err != nil {
		return nil, err
	}
	f := loss.NewMean(nyctaxi.ColFare)
	rng := sampling.DefaultSerflingSize()
	globalRows := sampling.Random(dataset.FullView(tbl), rng, newRand(s.Seed))
	ev, err := f.BindSample(tbl, dataset.NewView(tbl, globalRows))
	if err != nil {
		return nil, err
	}
	const theta = 0.10
	dry, err := cube.DryRun(context.Background(), tbl, enc, codec, ev, theta)
	if err != nil {
		return nil, err
	}
	lat := dry.Lattice

	latticeRep := &Report{
		ID:      "table1",
		Title:   fmt.Sprintf("Figure 5a lattice: cells and iceberg cells per cuboid (mean loss 10%%), %d rows", tbl.NumRows()),
		Columns: []string{"cuboid", "cells", "iceberg cells"},
	}
	for _, mask := range lat.TopDownOrder() {
		name := cuboidName(lat, mask, []string{"D", "C", "M"})
		st := dry.Cuboids[mask]
		latticeRep.AddRow(name, fmt.Sprintf("%d", st.NumCells), fmt.Sprintf("%d", len(st.IcebergKeys)))
	}

	cellRep := &Report{
		ID:      "table1",
		Title:   "Table Ia: iceberg cell table (first 15 rows)",
		Columns: []string{"D", "C", "M"},
	}
	all := cube.IcebergCellTable(dry, enc, codec, attrs, -1)
	for r := 0; r < all.NumRows() && r < 15; r++ {
		cellRep.AddRow(all.Value(r, 0).S, all.Value(r, 1).S, all.Value(r, 2).S)
	}
	cellRep.Notes = append(cellRep.Notes, fmt.Sprintf("%d iceberg cells total across %d cuboids", all.NumRows(), lat.NumCuboids()))
	return []*Report{latticeRep, cellRep}, nil
}

func cuboidName(lat cube.Lattice, mask int, letters []string) string {
	if mask == 0 {
		return "All"
	}
	name := ""
	for _, a := range lat.Attrs(mask) {
		name += letters[a]
	}
	return name
}

// --- Table II: sample visualization time -------------------------------------

// Table2 reproduces Table II: the sample-visualization time per approach
// for the geospatial heat map, statistical mean and regression tasks, at
// each task's tightest threshold, plus the "No sampling" row (the task
// run on the full raw answer).
func Table2(s Scale, progress io.Writer) ([]*Report, error) {
	tbl := nyctaxi.Generate(s.Rows, s.Seed)
	attrs := defaultAttrs(5)
	w, err := NewWorkload(tbl, attrs, s.Queries, s.Seed+2)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:      "table2",
		Title:   fmt.Sprintf("Sample visualization time per approach, %d rows, %d queries", s.Rows, s.Queries),
		Columns: []string{"approach", "heat map", "mean", "regression"},
		Notes: []string{
			"expected shape: Tabula highest among sampled approaches (global sample ~1000 tuples) but orders of magnitude below No sampling",
		},
	}
	tasks := []Task{TaskHeatmap, TaskMean, TaskRegression}
	rows := map[string][]string{}
	order := []string{}
	for _, task := range tasks {
		theta := ThetaSweep(task)[0]
		cfg := buildConfig(task, theta, attrs, s.Seed)
		approaches := []baselines.Approach{
			baselines.NewSampleFirst("SamFirst-S", 0.001),
			baselines.NewSampleFirst("SamFirst-L", 0.01),
			newFlySampler(),
			baselines.NewPOIsam(),
			tabulaWithCap(true),
		}
		for _, a := range approaches {
			Fprintf(progress, "table2: task=%s approach=%s\n", task, a.Name())
			res, err := RunApproach(a, w, cfg, task)
			if err != nil {
				return nil, err
			}
			if _, ok := rows[a.Name()]; !ok {
				rows[a.Name()] = []string{a.Name()}
				order = append(order, a.Name())
			}
			rows[a.Name()] = append(rows[a.Name()], fmtDur(res.VisAvg))
		}
		// "No sampling": run the task on the raw answers.
		var rawVis time.Duration
		counted := 0
		for _, raw := range w.Raw {
			if raw.Len() == 0 {
				continue
			}
			rawVis += RunVisualTask(task, raw)
			counted++
		}
		if _, ok := rows["No sampling"]; !ok {
			rows["No sampling"] = []string{"No sampling"}
			order = append(order, "No sampling")
		}
		rows["No sampling"] = append(rows["No sampling"], fmtDur(rawVis/time.Duration(counted)))
	}
	for _, name := range order {
		rep.AddRow(rows[name]...)
	}
	return []*Report{rep}, nil
}

// WithDistanceBucket returns a copy of the table extended with a
// trip_distance_bucket VARCHAR column ("[0,5)", "[5,10)", …, "[20,25)"),
// recreating the running example's D attribute.
func WithDistanceBucket(tbl *dataset.Table) *dataset.Table {
	schema := append(tbl.Schema().Clone(), dataset.Field{Name: "trip_distance_bucket", Type: dataset.String})
	out := dataset.NewTable(schema)
	distCol := tbl.Schema().ColumnIndex(nyctaxi.ColDistance)
	n := tbl.NumRows()
	ncols := tbl.NumCols()
	vals := make([]dataset.Value, ncols+1)
	for r := 0; r < n; r++ {
		for c := 0; c < ncols; c++ {
			vals[c] = tbl.Value(r, c)
		}
		d := tbl.Value(r, distCol).F
		bucket := int(d / 5)
		if bucket > 4 {
			bucket = 4
		}
		vals[ncols] = dataset.StringValue(fmt.Sprintf("[%d,%d)", bucket*5, bucket*5+5))
		out.MustAppendRow(vals...)
	}
	return out
}

// newRand returns a deterministic PRNG for an experiment stage.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
