package main

import (
	"fmt"
	"strings"
	"time"

	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/geo"
	"github.com/tabula-db/tabula/internal/loss"
	"github.com/tabula-db/tabula/internal/nyctaxi"
	"github.com/tabula-db/tabula/internal/server"
)

// scale holds the stated input sizes and the set-up repetition budget.
// Production runs use fullScale; the smoke test substitutes a small one.
// taxi120k is concatenated from fixed-size pieces because nyctaxi.Generate
// splits tables of 50 000 rows or more into one PRNG stream per available
// core, which would make the input depend on the host.
type scale struct {
	smallRows int // taxi20k
	pieceRows int // rows per taxi120k piece (must stay below 50 000)
	pieces    int
	// Set-up is repeated at least minSetups times, and further while the
	// repetitions so far took less than setupBudget, so that a set-up of a
	// few milliseconds is still reported as the median of many.
	setupBudget time.Duration
	// checkCells is how many cells the θ-guarantee check fetches and
	// recomputes against raw rows.
	checkCells int
}

var fullScale = scale{smallRows: 20000, pieceRows: 40000, pieces: 3, setupBudget: 3 * time.Second, checkCells: 200}

const (
	minSetups = 2
	maxSetups = 64
)

const (
	cubeName  = "c"
	tableName = "taxi"
	// numCubedAttrs is how many of nyctaxi.CubedAttrs the cubes group by.
	numCubedAttrs = 5
	viewportCells = 64
	fixedViewport = 32
	appendRows    = 60
	zipfS         = 1.1
	coldCache     = 2 << 20
)

// workload is one traffic mix. Every workload is the same session — set up a
// server, initialize a sampling cube through POST /v1/exec, serve dashboard
// reads over two keep-alive connections — and differs only in the values
// below, so every metric is measured, not assumed, on every workload.
type workload struct {
	name string
	why  string

	big        bool      // taxi120k (else taxi20k)
	lossSQL    string    // HAVING clause, and its in-process twin below
	lossFunc   loss.Func // used by the build replay and the θ check
	theta      float64
	cacheBytes int64

	// buildShare is the share of -seconds spent on repeated timed builds
	// before serving; workloads with 0 build once, in set-up.
	buildShare float64
	// Paced open-loop phase, then closed loop for the rest of the time.
	rate       float64 // requests per second
	pacedShare float64 // share of the serving time that is paced
	// hot traffic draws cells by zipf rank from Q and viewports from a
	// fixed set, after a warm-up pass, and revalidates remembered ETags
	// with If-None-Match; otherwise reads are uniform over Q_ice with
	// viewports that never repeat, and carry no validators.
	hot        bool
	appendRate float64 // /v1/append batches per second, posted between the paced reads
}

func workloads() []*workload {
	hotReads := workload{
		big: true, theta: 0.002,
		lossSQL:    "heatmap_loss(pickup, Sam_global) > 0.002",
		lossFunc:   loss.NewHeatmap(nyctaxi.ColPickup, geo.Euclidean),
		cacheBytes: server.DefaultCacheBytes,
		rate:       8000, pacedShare: 0.65, hot: true,
	}
	initMean := hotReads
	initMean.name, initMean.why = "init_mean", "mean-loss cube over 20k rows: 99% of the build is the SamGraph join, so a selection change shows here and nothing else does"
	initMean.big, initMean.theta = false, 0.05
	initMean.lossSQL, initMean.lossFunc = "mean_loss(fare_amount, Sam_global) > 0.05", loss.NewMean(nyctaxi.ColFare)
	initMean.buildShare = 0.5

	initHeat := hotReads
	initHeat.name, initHeat.why = "init_heatmap", "heatmap cube over 120k rows, the paper's flagship: real run, greedy sampling and loss kernels share the build with the join"
	initHeat.buildShare = 0.5

	warm := hotReads
	warm.name, warm.why = "dash_warm", "zipf reads with ETag revalidation and a cache larger than the working set: the hit/304 path, bypassing encode and gzip"

	cold := hotReads
	cold.name, cold.why = "dash_cold", "uniform reads of iceberg cells against a 2 MiB cache: every request pays encode, gzip and eviction, bypassing the hit path"
	cold.cacheBytes, cold.rate, cold.hot = coldCache, 200, false

	stream := hotReads
	stream.name, stream.why = "dash_stream", "dash_warm's reads while one of the two connections posts an append batch every 8 s: append cost, invalidation and read-tail interference"
	stream.pacedShare, stream.appendRate = 0.8, 0.125

	return []*workload{&initMean, &initHeat, &warm, &cold, &stream}
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// dataSeed generates the raw tables. They do not vary with -seed: at
// θ = 0.002 the heatmap cube sits where large cells flip between iceberg and
// not from one generated table to the next, and its build takes anything
// from 0.5 s to 27 s (seeds 1–8), so no metric could be compared across
// seeds. The seed draws the traffic: the read schedule, cold viewports, the
// append batches and the checked cells.
const dataSeed = 41

// makeTable generates the workload's raw table.
func (w *workload) makeTable(sz scale) (*dataset.Table, error) {
	if !w.big {
		return nyctaxi.Generate(sz.smallRows, dataSeed), nil
	}
	t := nyctaxi.Generate(sz.pieceRows, dataSeed)
	for k := 1; k < sz.pieces; k++ {
		if err := t.AppendTable(nyctaxi.Generate(sz.pieceRows, dataSeed+int64(k))); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func cubedAttrs() []string { return nyctaxi.CubedAttrs[:numCubedAttrs] }

// createSQL is the statement every build issues.
func (w *workload) createSQL() string {
	attrs := strings.Join(cubedAttrs(), ", ")
	return fmt.Sprintf("CREATE TABLE %s AS SELECT %s, SAMPLING(*, %g) AS sample FROM %s GROUPBY CUBE(%s) HAVING %s",
		cubeName, attrs, w.theta, tableName, attrs, w.lossSQL)
}
