// Package tabula is a middleware framework that sits between a SQL data
// system and a geospatial visualization dashboard, making dashboard
// interactions fast by answering queries from a pre-materialized
// *sampling cube* instead of the raw table — while guaranteeing, with
// 100% confidence, that the accuracy loss of every returned sample
// (under a user-defined loss function) never exceeds a user-chosen
// threshold θ.
//
// It is a from-scratch Go implementation of the system described in
// "Turbocharging Geospatial Visualization Dashboards via a Materialized
// Sampling Cube Approach" (Yu and Sarwat, ICDE 2020).
//
// # Quick start
//
//	db := tabula.Open()
//	db.RegisterTable("rides", table) // or db.LoadCSV / nyctaxi generator
//
//	// Initialize a sampling cube with the paper's SQL dialect:
//	_, err := db.Exec(ctx, `
//	    CREATE TABLE ride_cube AS
//	    SELECT payment_type, passenger_count, SAMPLING(*, 0.1) AS sample
//	    FROM rides
//	    GROUPBY CUBE(payment_type, passenger_count)
//	    HAVING mean_loss(fare_amount, Sam_global) > 0.1`)
//
//	// Dashboard interactions fetch materialized samples:
//	res, err := db.Exec(ctx, `SELECT sample FROM ride_cube
//	                          WHERE payment_type = 'cash' AND passenger_count = 1`)
//
// The Go-native API (Build, Cube.Query) offers the same functionality
// without SQL, and user-defined loss functions can be declared either in
// SQL (CREATE AGGREGATE ... BEGIN expr END) or as Go values implementing
// LossFunc.
//
// # Concurrency
//
// Every serving-path entry point takes a context.Context and honors
// cancellation, including mid-scan inside the parallel engine. Queries
// are lock-free: each cube publishes an immutable snapshot through an
// atomic pointer, so dashboard reads never block behind ingestion.
// Append builds a successor snapshot off the hot path and publishes it
// with a single atomic swap; per-cube build locks serialize maintenance
// without stalling traffic on other cubes. See DESIGN.md for details.
//
// Built-in loss functions mirror the paper: NewMeanLoss (Function 1),
// NewHeatmapLoss (Function 2, the VAS/POIsam visualization-aware loss),
// NewRegressionLoss (Function 3), and NewHistogramLoss.
//
// # Configuration
//
// The public surface uses one functional-options idiom everywhere.
// tabula.Open takes tabula.Option values:
//
//	db := tabula.Open(
//	    tabula.WithWorkers(8),           // build parallelism for Exec-built cubes
//	    tabula.WithMetric(tabula.Haversine),
//	    tabula.WithMetrics(registry),    // observability, see below
//	)
//
// and the HTTP layer (internal/server) mirrors it with server.Option
// values (WithGzip, WithMetrics, WithPprof, WithLogger).
// Zero options always means a working default: Open() serves queries,
// server.New(db) serves HTTP.
//
// # Observability
//
// Passing a NewMetricsRegistry to WithMetrics (and to the server's
// option of the same name) arms a stdlib-only metrics surface: query
// counters by request kind, per-cube append latency and shards-touched
// histograms, snapshot-generation gauges, build-stage wall times, HTTP
// per-route request/latency/status metrics and first-touch wire-fill
// counts and times. The server exposes everything in Prometheus
// text format at GET /v1/metrics. Instruments are single atomic
// operations on the hot path — a query allocates nothing extra with
// metrics on — and a nil registry is a true no-op: every instrument
// registered on it is nil-safe, so disabled metrics cost nothing.
//
// # Serving API
//
// DB.Do is the unified dashboard entry point: one request struct
// (QueryRequest) selects single display-form queries, typed-predicate
// queries, or snapshot-consistent viewport batches. The older Query,
// QueryByValues and QueryBatchByValues methods remain as deprecated
// wrappers over Do.
package tabula
