package tabula

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"

	"github.com/tabula-db/tabula/internal/core"
	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/engine"
	"github.com/tabula-db/tabula/internal/geo"
	"github.com/tabula-db/tabula/internal/loss"
	"github.com/tabula-db/tabula/internal/obs"
)

var errNotCreateAggregate = fmt.Errorf("tabula: statement is not CREATE AGGREGATE")

// builtinLossNames maps SQL-visible loss names to constructors over
// target attributes. The generic name "loss" resolves to a user-declared
// CREATE AGGREGATE of that name first, then falls back to mean_loss.
var builtinLossNames = map[string]func(targets []string, metric geo.Metric) (loss.Func, error){
	"mean_loss": func(t []string, _ geo.Metric) (loss.Func, error) {
		if len(t) != 1 {
			return nil, fmt.Errorf("tabula: mean_loss takes one target attribute")
		}
		return loss.NewMean(t[0]), nil
	},
	"heatmap_loss": func(t []string, m geo.Metric) (loss.Func, error) {
		if len(t) != 1 {
			return nil, fmt.Errorf("tabula: heatmap_loss takes one target attribute")
		}
		return loss.NewHeatmap(t[0], m), nil
	},
	"regression_loss": func(t []string, _ geo.Metric) (loss.Func, error) {
		if len(t) != 2 {
			return nil, fmt.Errorf("tabula: regression_loss takes two target attributes (x, y)")
		}
		return loss.NewRegression(t[0], t[1]), nil
	},
	"histogram_loss": func(t []string, _ geo.Metric) (loss.Func, error) {
		if len(t) != 1 {
			return nil, fmt.Errorf("tabula: histogram_loss takes one target attribute")
		}
		return loss.NewHistogram(t[0]), nil
	},
	"topk_loss": func(t []string, _ geo.Metric) (loss.Func, error) {
		if len(t) != 1 {
			return nil, fmt.Errorf("tabula: topk_loss takes one target attribute")
		}
		return loss.NewTopK(t[0], 10), nil
	},
	"distinct_loss": func(t []string, _ geo.Metric) (loss.Func, error) {
		if len(t) != 1 {
			return nil, fmt.Errorf("tabula: distinct_loss takes one target attribute")
		}
		return loss.NewDistinct(t[0]), nil
	},
}

// DB is the middleware's front door: it names raw tables, sampling
// cubes, and user-declared loss aggregates, and executes the paper's SQL
// dialect against them. A DB is safe for concurrent use.
//
// Concurrency model: cubes live in a per-cube registry whose lock is
// held only for create/lookup/list. Cube queries are lock-free end to
// end (one registry read lock for the name lookup, then a single atomic
// snapshot load inside the cube), and a build or append on one cube
// never blocks queries — not even on the same cube. The catalog of raw
// tables and the aggregate declarations are guarded by a separate
// read-write mutex that is never held across a cube build.
type DB struct {
	mu         sync.RWMutex // guards catalog and aggregates only
	catalog    *engine.Catalog
	cubes      *cubeRegistry
	aggregates map[string]*engine.CreateAggregate
	// Options applied to cube builds.
	metric  geo.Metric
	workers int             // default Params.Workers for Exec-built cubes
	params  func(p *Params) // optional hook to adjust build params
	// Observability (nil when metrics are off — every instrument below
	// is then a nil no-op, so the query path never branches on it).
	metrics  *obs.Registry
	stages   *obs.Stages  // build-stage tracer installed into build ctx
	qConds   *obs.Counter // tabula_db_queries_total{kind="conds"}
	qValues  *obs.Counter // tabula_db_queries_total{kind="values"}
	qBatch   *obs.Counter // tabula_db_queries_total{kind="batch"}
	qBatched *obs.Counter // tabula_db_batched_queries_total
}

// Option configures a DB. Options follow one functional-options idiom
// across the public surface (see doc.go "Configuration"): tabula.Open
// takes tabula.Option values (WithMetric, WithWorkers, WithMetrics,
// WithBuildParams) and server.New takes server.Option values
// (WithCacheBytes, WithGzip, WithMetrics, WithPprof, WithLogger).
type Option func(*DB)

// WithMetric sets the distance metric used by heatmap_loss and the DSL's
// AVGMINDIST on POINT targets (default Euclidean).
func WithMetric(m Metric) Option { return func(db *DB) { db.metric = m } }

// WithWorkers sets the default worker budget for every initialization
// stage of cubes built via Exec (0 = GOMAXPROCS). A WithBuildParams
// hook runs afterwards and may override it per build.
func WithWorkers(n int) Option { return func(db *DB) { db.workers = n } }

// WithMetrics arms the DB's observability surface on the given registry
// (nil leaves metrics off): query counters by kind, per-cube append and
// snapshot-generation metrics (registered as cubes are created or
// registered), and build-stage wall-time histograms recorded via a
// stage tracer installed into every Exec build's context. Metrics are
// recorded with single atomic ops — never an allocation — on the query
// path, and a DB without WithMetrics pays nothing at all.
func WithMetrics(reg *MetricsRegistry) Option {
	return func(db *DB) {
		db.metrics = reg
		db.stages = obs.NewStages(reg)
		db.qConds = reg.Counter("tabula_db_queries_total", "DB queries answered, by request kind.", obs.Label{Name: "kind", Value: "conds"})
		db.qValues = reg.Counter("tabula_db_queries_total", "DB queries answered, by request kind.", obs.Label{Name: "kind", Value: "values"})
		db.qBatch = reg.Counter("tabula_db_queries_total", "DB queries answered, by request kind.", obs.Label{Name: "kind", Value: "batch"})
		db.qBatched = reg.Counter("tabula_db_batched_queries_total", "Individual queries inside batch requests.")
	}
}

// WithBuildParams installs a hook that adjusts the Params of every cube
// built via Exec (e.g. to tune sampler options).
func WithBuildParams(hook func(*Params)) Option { return func(db *DB) { db.params = hook } }

// Open creates an empty middleware instance.
func Open(opts ...Option) *DB {
	db := &DB{
		catalog:    engine.NewCatalog(),
		cubes:      newCubeRegistry(),
		aggregates: make(map[string]*engine.CreateAggregate),
		metric:     geo.Euclidean,
	}
	for _, o := range opts {
		o(db)
	}
	return db
}

// RegisterTable names a raw table for use in SQL statements.
func (db *DB) RegisterTable(name string, t *Table) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.catalog.Register(name, t)
}

// RegisterCube names an already-built (or loaded) sampling cube. When
// the DB was opened WithMetrics, the cube's append and snapshot metrics
// are registered under the (lowercased) name.
func (db *DB) RegisterCube(name string, c *Cube) {
	name = strings.ToLower(name)
	db.cubes.set(name, c)
	c.RegisterMetrics(db.metrics, name)
}

// CubeByName returns a registered cube.
func (db *DB) CubeByName(name string) (*Cube, bool) {
	return db.cubes.lookup(strings.ToLower(name))
}

// Cubes lists the registered cube names, sorted. It replaces callers'
// hand-rolled name tracking (Exec-created and RegisterCube-registered
// cubes both appear).
func (db *DB) Cubes() []string {
	return db.cubes.names()
}

// QueryRequest names one unit of serving work for DB.Do: which cube to
// answer from and, via exactly one of the three predicate fields, what
// kind of request it is.
//
//   - Where: a single query with predicate values in display form,
//     parsed against the cube's schema (the shape JSON clients send).
//   - Batch: a whole viewport of display-form queries answered against
//     ONE atomically loaded snapshot.
//   - Conds: a single query with pre-typed predicate values.
//
// Setting more than one predicate field is an error. Setting none asks
// for the apex cell (no predicates) via the Conds path.
type QueryRequest struct {
	// Cube names the registered cube to answer from.
	Cube string
	// Where holds display-form predicate values for a single query.
	Where map[string]string
	// Batch holds display-form predicates for a snapshot-consistent
	// batch; the response's Results is index-aligned with it.
	Batch []map[string]string
	// Conds holds typed equality predicates for a single query.
	Conds []Condition
}

// QueryResponse is the outcome of DB.Do. Exactly one field is set:
// Result for single-query requests (Where or Conds), Results for Batch
// requests.
type QueryResponse struct {
	// Result answers Where and Conds requests.
	Result *QueryResult
	// Results answers Batch requests, index-aligned with the request's
	// Batch. Every result shares one Version (the snapshot's), while
	// per-result Generations may differ — each names the answering
	// shard's age, not the snapshot's.
	Results []*QueryResult
}

// Do answers a dashboard query request against a registered cube. It is
// the native (non-SQL) serving entry point: the request kind is picked
// by which predicate field is set (see QueryRequest), queries are
// lock-free end to end, and ctx cancellation (e.g. a disconnected HTTP
// client) aborts the work. Query, QueryByValues and QueryBatchByValues
// are deprecated wrappers over Do.
func (db *DB) Do(ctx context.Context, req QueryRequest) (*QueryResponse, error) {
	set := 0
	if req.Where != nil {
		set++
	}
	if req.Batch != nil {
		set++
	}
	if req.Conds != nil {
		set++
	}
	if set > 1 {
		return nil, fmt.Errorf("tabula: ambiguous QueryRequest for cube %q: exactly one of Where, Batch or Conds may be set", req.Cube)
	}
	c, ok := db.CubeByName(req.Cube)
	if !ok {
		return nil, fmt.Errorf("tabula: unknown cube %q", req.Cube)
	}
	switch {
	case req.Batch != nil:
		db.qBatch.Inc()
		db.qBatched.Add(uint64(len(req.Batch)))
		results, err := c.QueryBatchByValues(ctx, req.Batch)
		if err != nil {
			return nil, err
		}
		return &QueryResponse{Results: results}, nil
	case req.Where != nil:
		db.qValues.Inc()
		res, err := c.QueryByValues(ctx, req.Where)
		if err != nil {
			return nil, err
		}
		return &QueryResponse{Result: res}, nil
	default:
		db.qConds.Inc()
		res, err := c.Query(ctx, req.Conds)
		if err != nil {
			return nil, err
		}
		return &QueryResponse{Result: res}, nil
	}
}

// emptyWhere and emptyBatch keep the deprecated wrappers' nil arguments
// on the request kind the caller named (a nil map or slice would
// otherwise dispatch as a Conds apex query — same answer, different
// response shape for batches).
var (
	emptyWhere = map[string]string{}
	emptyBatch = []map[string]string{}
)

// Query answers a structured dashboard query against a registered cube:
// a conjunction of equality predicates over its cubed attributes.
//
// Deprecated: use Do with QueryRequest.Conds.
func (db *DB) Query(ctx context.Context, cube string, conds []Condition) (*QueryResult, error) {
	resp, err := db.Do(ctx, QueryRequest{Cube: cube, Conds: conds})
	if err != nil {
		return nil, err
	}
	return resp.Result, nil
}

// QueryByValues is Query with predicate values in display form, parsed
// against the cube's schema (the shape JSON clients send).
//
// Deprecated: use Do with QueryRequest.Where.
func (db *DB) QueryByValues(ctx context.Context, cube string, where map[string]string) (*QueryResult, error) {
	if where == nil {
		where = emptyWhere
	}
	resp, err := db.Do(ctx, QueryRequest{Cube: cube, Where: where})
	if err != nil {
		return nil, err
	}
	return resp.Result, nil
}

// QueryBatchByValues answers a whole viewport of display-form queries
// against ONE atomically loaded snapshot of the cube, on the calling
// goroutine, failing with the lowest-indexed bad query's error.
//
// Deprecated: use Do with QueryRequest.Batch.
func (db *DB) QueryBatchByValues(ctx context.Context, cube string, queries []map[string]string) ([]*QueryResult, error) {
	if queries == nil {
		queries = emptyBatch
	}
	resp, err := db.Do(ctx, QueryRequest{Cube: cube, Batch: queries})
	if err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// Append ingests a batch into an appendable registered cube under that
// cube's maintenance lock. Appends to different cubes run concurrently;
// queries are never blocked (they keep serving the previous snapshot
// until the batch publishes).
func (db *DB) Append(ctx context.Context, cube string, batch *Table) (*AppendStats, error) {
	e, ok := db.cubes.entry(strings.ToLower(cube), false)
	if !ok || e.cube.Load() == nil {
		return nil, fmt.Errorf("tabula: unknown cube %q", cube)
	}
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	return e.cube.Load().Append(ctx, batch)
}

// Result is the outcome of Exec: a table of rows for SELECT statements
// (cube queries return the sample), or a status message for DDL.
type Result struct {
	// Table holds SELECT output (nil for DDL statements).
	Table *Table
	// FromGlobal reports whether a cube query was answered from the
	// global sample.
	FromGlobal bool
	// Message describes the effect of a DDL statement.
	Message string
}

// Exec parses and executes one statement of the Tabula SQL dialect:
//
//   - CREATE AGGREGATE name(Raw, Sam) RETURN type AS BEGIN expr END
//     declares a user-defined accuracy loss.
//   - CREATE TABLE cube AS SELECT attrs…, SAMPLING(*, θ) AS sample FROM
//     tbl GROUPBY CUBE(attrs…) HAVING lossName(target…, Sam_global) > θ
//     initializes a sampling cube (lossName is a built-in — mean_loss,
//     heatmap_loss, regression_loss, histogram_loss — or a declared
//     aggregate).
//   - SELECT sample FROM cube WHERE a = v AND … fetches a materialized
//     sample from a cube.
//   - Any other SELECT executes against the raw tables.
//
// ctx flows through the whole statement: raw-table scans, group-bys and
// cube queries poll it, so cancelling ctx aborts in-flight work with
// ctx.Err().
func (db *DB) Exec(ctx context.Context, sql string) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st, err := engine.Parse(sql)
	if err != nil {
		return nil, err
	}
	switch s := st.(type) {
	case *engine.CreateAggregate:
		db.mu.Lock()
		db.aggregates[strings.ToLower(s.Name)] = s
		db.mu.Unlock()
		return &Result{Message: fmt.Sprintf("aggregate %s declared", s.Name)}, nil
	case *engine.CreateSamplingCube:
		return db.execCreateCube(ctx, s)
	case *engine.CreateTableAs:
		db.mu.RLock()
		out, err := db.catalog.ExecuteSelect(ctx, s.Select)
		db.mu.RUnlock()
		if err != nil {
			return nil, err
		}
		db.RegisterTable(s.Name, out)
		return &Result{Message: fmt.Sprintf("table %s created: %d rows, %d columns", s.Name, out.NumRows(), out.NumCols())}, nil
	case *engine.SelectStmt:
		return db.execSelect(ctx, s)
	default:
		return nil, fmt.Errorf("tabula: unsupported statement %T", st)
	}
}

// resolveLoss maps the HAVING clause's loss name to a loss.Func.
func (db *DB) resolveLoss(name string, targets []string) (loss.Func, error) {
	db.mu.RLock()
	decl, declared := db.aggregates[strings.ToLower(name)]
	db.mu.RUnlock()
	if declared {
		return loss.Compile(decl, targets, db.metric)
	}
	if ctor, ok := builtinLossNames[strings.ToLower(name)]; ok {
		return ctor(targets, db.metric)
	}
	return nil, fmt.Errorf("tabula: unknown loss function %q (declare it with CREATE AGGREGATE or use a built-in: mean_loss, heatmap_loss, regression_loss, histogram_loss)", name)
}

func (db *DB) execCreateCube(ctx context.Context, s *engine.CreateSamplingCube) (*Result, error) {
	db.mu.RLock()
	tbl, err := db.catalog.Table(s.Source)
	db.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	f, err := db.resolveLoss(s.LossName, s.TargetAttrs)
	if err != nil {
		return nil, err
	}
	p := core.DefaultParams(f, s.Threshold, s.CubedAttrs...)
	if db.workers > 0 {
		p.Workers = db.workers
	}
	if db.params != nil {
		db.params(&p)
	}
	// Serialize builds of the same cube name; builds of different cubes
	// (and all queries) proceed concurrently.
	name := strings.ToLower(s.CubeName)
	entry, _ := db.cubes.entry(name, true)
	entry.buildMu.Lock()
	defer entry.buildMu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cube, err := core.Build(obs.WithStages(ctx, db.stages), tbl, p)
	if err != nil {
		return nil, err
	}
	entry.cube.Store(cube)
	cube.RegisterMetrics(db.metrics, name)
	st := cube.Stats()
	return &Result{Message: fmt.Sprintf(
		"sampling cube %s created: %d/%d iceberg cells, %d samples persisted, %s",
		s.CubeName, st.NumIcebergCells, st.NumCells, st.NumPersistedSamples, st.InitTime)}, nil
}

func (db *DB) execSelect(ctx context.Context, s *engine.SelectStmt) (*Result, error) {
	// Cube query?
	if cube, ok := db.CubeByName(s.From); ok {
		if err := validateCubeProjection(s); err != nil {
			return nil, err
		}
		eq, in, err := cubePredicates(s.Where)
		if err != nil {
			return nil, err
		}
		if len(in) > 0 {
			// Fold the equality predicates into single-value IN lists.
			for _, c := range eq {
				in = append(in, core.ConditionIn{Attr: c.Attr, Values: []dataset.Value{c.Value}})
			}
			res, err := cube.QueryIn(ctx, in)
			if err != nil {
				return nil, err
			}
			return &Result{Table: res.Sample, FromGlobal: res.FromGlobal}, nil
		}
		res, err := cube.Query(ctx, eq)
		if err != nil {
			return nil, err
		}
		return &Result{Table: res.Sample, FromGlobal: res.FromGlobal}, nil
	}
	db.mu.RLock()
	out, err := db.catalog.ExecuteSelect(ctx, s)
	db.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	return &Result{Table: out}, nil
}

// validateCubeProjection enforces the dialect's cube-query form:
// SELECT sample (or *) FROM cube.
func validateCubeProjection(s *engine.SelectStmt) error {
	if s.Star {
		return nil
	}
	if len(s.Items) != 1 {
		return fmt.Errorf("tabula: cube queries select exactly one item: sample")
	}
	cr, ok := s.Items[0].Expr.(*engine.ColRef)
	if !ok || !strings.EqualFold(cr.Name, "sample") {
		return fmt.Errorf("tabula: cube queries must SELECT sample, got %s", s.Items[0].Expr.String())
	}
	if len(s.GroupBy) != 0 || s.Having != nil {
		return fmt.Errorf("tabula: cube queries do not support GROUP BY or HAVING")
	}
	return nil
}

// cubePredicates translates a conjunction of equality and IN predicates
// into cube query conditions.
func cubePredicates(e engine.Expr) ([]core.Condition, []core.ConditionIn, error) {
	if e == nil {
		return nil, nil, nil
	}
	var eq []core.Condition
	var in []core.ConditionIn
	var walk func(e engine.Expr) error
	walk = func(e engine.Expr) error {
		switch x := e.(type) {
		case *engine.Binary:
			switch x.Op {
			case engine.OpAnd:
				if err := walk(x.L); err != nil {
					return err
				}
				return walk(x.R)
			case engine.OpEq:
				cr, crOK := x.L.(*engine.ColRef)
				lit, litOK := x.R.(*engine.Lit)
				if !crOK || !litOK {
					// Allow "literal = column" too.
					cr, crOK = x.R.(*engine.ColRef)
					lit, litOK = x.L.(*engine.Lit)
				}
				if !crOK || !litOK {
					return fmt.Errorf("tabula: cube predicates take the form attribute = literal, got %s", x.String())
				}
				eq = append(eq, core.Condition{Attr: cr.Name, Value: lit.V})
				return nil
			default:
				return fmt.Errorf("tabula: cube WHERE clauses support only = and IN predicates joined by AND, got %s", x.String())
			}
		case *engine.InList:
			cr, ok := x.X.(*engine.ColRef)
			if !ok {
				return fmt.Errorf("tabula: IN needs an attribute on the left, got %s", x.X.String())
			}
			c := core.ConditionIn{Attr: cr.Name}
			for _, v := range x.Values {
				lit, ok := v.(*engine.Lit)
				if !ok {
					return fmt.Errorf("tabula: IN list entries must be literals, got %s", v.String())
				}
				c.Values = append(c.Values, lit.V)
			}
			in = append(in, c)
			return nil
		default:
			return fmt.Errorf("tabula: cube WHERE clauses support only = and IN predicates joined by AND, got %s", e.String())
		}
	}
	if err := walk(e); err != nil {
		return nil, nil, err
	}
	return eq, in, nil
}

// LoadCSV reads a CSV stream (with header) into a table registered under
// name, using the supplied schema for typing.
func (db *DB) LoadCSV(name string, r io.Reader, schema Schema) (*Table, error) {
	t, err := dataset.ReadCSV(r, schema)
	if err != nil {
		return nil, err
	}
	db.RegisterTable(name, t)
	return t, nil
}
