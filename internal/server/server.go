// Package server exposes a Tabula DB over HTTP — the deployment shape
// the paper describes: a middleware between visualization dashboards
// (which speak JSON over HTTP) and the data system.
//
// Endpoints (the versioned surface; every /v1/* route also answers at
// its legacy unversioned path, which additionally emits a
// "Deprecation: true" header plus a Link to its successor):
//
//	POST /v1/exec         {"sql": "..."}                      → DDL / SELECT
//	POST /v1/query        {"cube": "c", "where": {"a": "v"}}  → materialized sample
//	POST /v1/query/batch  {"cube": "c", "queries": [{...},…]} → a viewport in one round trip
//	POST /v1/append       {"cube": "c", "rows": [[...], …]}   → incremental ingest
//	GET  /v1/cubes                                            → registered cubes
//	GET  /v1/stats?cube=c                                     → initialization stats
//	GET  /v1/cache                                            → response-cache stats
//	GET  /v1/metrics                                          → Prometheus text exposition (404 when disabled)
//	GET  /healthz                                             → liveness (unversioned, never deprecated)
//	GET  /                                                    → built-in dashboard demo page
//	GET  /debug/pprof/…                                       → net/http/pprof (only WithPprof(true))
//
// Query bodies (/v1/query, /v1/query/batch) are decoded in one pass,
// without reflection, into pooled scratch whose strings are substrings
// of the body (decode.go); a body over maxQueryBody is a 413. /v1/exec
// and /v1/append bodies are bounded too (maxExecBody, maxAppendBody).
//
// Observability: with WithMetrics, every route records request counts
// by status class, a latency histogram and response bytes; the response
// cache and each cube export their counters through the same registry
// (see internal/obs). Each request carries an ID — X-Request-Id or
// generated — echoed in the response and threaded through the request
// context into error logs.
//
// The serving path is built around the cube's immutability. A sample's
// wire bytes are materialized once, on its first serve, into a
// write-once cell the cube keeps beside the sample (internal/wire): its
// JSON, compressed on its own. Every 200 after that is stitched from
// those bytes — one gzip member by concatenation when the client
// accepts gzip, the same bytes inflated when it does not — with a
// Content-Length that is a sum. Responses carry strong ETags naming
// {cube, epoch, shard, shard generation, sample} (If-None-Match → 304),
// where the epoch names the cube instance, drawn anew by every Build
// or Load; an Append bumps only the generations of the shards it
// touched, so ETags of untouched shards survive it, and a sample that
// survives in a touched shard answers under a new ETag with the bytes
// it already had. A viewport body carries each physical sample once.
// The one cache left is a byte-budget LRU of assembled gzip viewport
// bodies, keyed by the viewport's identity list.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"

	"github.com/tabula-db/tabula"
	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/obs"
	"github.com/tabula-db/tabula/internal/respcache"
	"github.com/tabula-db/tabula/internal/wire"
)

// DefaultCacheBytes is the default byte budget of the response cache,
// which holds assembled gzip viewport bodies.
const DefaultCacheBytes = 64 << 20

// Server wraps a tabula.DB with HTTP handlers. Every handler passes the
// request's context down the query path, so a disconnecting client or a
// server shutdown aborts in-flight scans instead of letting them run to
// completion against a closed socket.
type Server struct {
	db      *tabula.DB
	mux     *http.ServeMux
	cache   *respcache.Cache
	gzip    bool
	metrics *obs.Registry
	// wireFill times first touches of samples (tabula_wire_fill_seconds):
	// the encode-and-compress cost no longer shows up as a cache miss.
	wireFill *obs.Histogram
	pprof    bool
	logf     func(format string, args ...any)
}

// Option configures a Server. The server mirrors tabula.Open's
// functional-options idiom; zero options is a working default.
type Option func(*Server)

// WithCacheBytes sets the response cache's byte budget. A budget <= 0
// disables it: every viewport body is stitched anew from the samples'
// resident bytes.
func WithCacheBytes(n int64) Option {
	return func(s *Server) { s.cache = respcache.New(n) }
}

// WithGzip enables or disables gzip response variants (default on).
func WithGzip(enabled bool) Option {
	return func(s *Server) { s.gzip = enabled }
}

// WithMetrics arms per-route HTTP metrics and the GET /v1/metrics
// exposition on the given registry (nil leaves metrics off — routes
// serve identically and /v1/metrics 404s). Pass the same registry to
// tabula.WithMetrics to expose the DB's query, append and build-stage
// metrics through the same endpoint.
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Server) { s.metrics = reg }
}

// WithPprof mounts net/http/pprof under GET /debug/pprof/ (default
// off: profiling endpoints expose heap contents and must be opted
// into).
func WithPprof(enabled bool) Option {
	return func(s *Server) { s.pprof = enabled }
}

// WithLogger redirects the server's error log (short writes, encode
// failures). The default is log.Printf.
func WithLogger(logf func(format string, args ...any)) Option {
	return func(s *Server) { s.logf = logf }
}

// New builds a Server over the DB.
func New(db *tabula.DB, opts ...Option) *Server {
	s := &Server{
		db:    db,
		mux:   http.NewServeMux(),
		cache: respcache.New(DefaultCacheBytes),
		gzip:  true,
		logf:  log.Printf,
	}
	for _, o := range opts {
		o(s)
	}
	s.cache.RegisterMetrics(s.metrics)
	s.wireFill = s.metrics.Histogram("tabula_wire_fill_seconds",
		"Time to encode and compress a sample's wire bytes on its first touch.", obs.LatencyBuckets)

	// Each API route serves under /v1 and, for compatibility, at its
	// pre-versioning path; the legacy alias answers identically but
	// marks itself superseded. Both carry their own metrics series, so
	// client migration off the legacy paths is visible in /v1/metrics.
	routes := []struct {
		v1     string
		legacy string
		h      http.HandlerFunc
	}{
		{"POST /v1/exec", "POST /exec", s.handleExec},
		{"POST /v1/query", "POST /query", s.handleQuery},
		{"POST /v1/query/batch", "POST /query/batch", s.handleQueryBatch},
		{"POST /v1/append", "POST /append", s.handleAppend},
		{"GET /v1/cubes", "GET /cubes", s.handleCubes},
		{"GET /v1/stats", "GET /stats", s.handleStats},
		{"GET /v1/cache", "GET /cache", s.handleCacheStats},
		{"GET /v1/metrics", "GET /metrics", s.handleMetrics},
	}
	for _, rt := range routes {
		v1Path := routePath(rt.v1)
		s.mux.HandleFunc(rt.v1, s.instrument(v1Path, rt.h))
		s.mux.HandleFunc(rt.legacy, s.instrument(routePath(rt.legacy), deprecate(v1Path, rt.h)))
	}
	s.mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /{$}", s.instrument("/", s.handleDemo))
	if s.pprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// routePath strips the method from a ServeMux pattern, yielding the
// route label used in metrics series.
func routePath(pattern string) string {
	if i := strings.IndexByte(pattern, ' '); i >= 0 {
		return pattern[i+1:]
	}
	return pattern
}

// deprecate marks a legacy route superseded: responses gain a
// "Deprecation: true" header (draft-ietf-httpapi-deprecation-header
// shape) and a Link pointing at the versioned successor. Behavior is
// otherwise byte-identical to the successor, ETags included.
func deprecate(successor string, h http.HandlerFunc) http.HandlerFunc {
	link := "<" + successor + `>; rel="successor-version"`
	return func(w http.ResponseWriter, r *http.Request) {
		hd := w.Header()
		hd.Set("Deprecation", "true")
		hd.Set("Link", link)
		h(w, r)
	}
}

// ServeHTTP implements http.Handler. It assigns the request its ID
// (X-Request-Id, or generated), echoes it in the response, and threads
// it through the context for log correlation before routing.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get("X-Request-Id")
	if id == "" {
		id = nextRequestID()
	}
	w.Header().Set("X-Request-Id", id)
	r = r.WithContext(withRequestID(r.Context(), id))
	s.mux.ServeHTTP(w, r)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

type execRequest struct {
	SQL string `json:"sql"`
}

// maxExecBody bounds a /v1/exec body, one SQL statement. A longer body
// is a 413.
const maxExecBody = 1 << 20

// maxAppendBody bounds a /v1/append body: about a hundred thousand
// taxi rows in display form. A longer body is a 413; larger ingests
// send several batches.
const maxAppendBody = 16 << 20

// queryResponse is the /exec wire shape; Sample holds the table's
// pre-encoded JSON (see appendTableJSON).
type queryResponse struct {
	Sample     json.RawMessage `json:"sample,omitempty"`
	FromGlobal bool            `json:"from_global"`
	Message    string          `json:"message,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// writeBody writes a fully materialized response: Content-Length is set
// from the byte length, and short writes are logged instead of being
// silently dropped (once the status line is out there is nothing else
// to do with the error, but it must not vanish).
func (s *Server) writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	if n, err := w.Write(body); err != nil {
		s.logf("server: response write failed after %d/%d bytes: %v", n, len(body), err)
	}
}

// writeJSON marshals v to a buffer first, so the status line and
// Content-Length are only committed for a body that fully encoded.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		s.logf("server: encoding %T response: %v", v, err)
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	s.writeBody(w, status, b)
}

func (s *Server) writeErr(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, errorResponse{Error: err.Error()})
}

// writeBodyErr answers a request body that could not be read or
// decoded: 413 past the route's limit, 400 otherwise.
func (s *Server) writeBodyErr(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	s.writeErr(w, status, fmt.Errorf("bad request body: %w", err))
}

func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	var req execRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxExecBody)).Decode(&req); err != nil {
		s.writeBodyErr(w, err)
		return
	}
	if req.SQL == "" {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("missing sql"))
		return
	}
	res, err := s.db.Exec(r.Context(), req.SQL)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	resp := queryResponse{FromGlobal: res.FromGlobal, Message: res.Message}
	if res.Table != nil {
		resp.Sample = appendTableJSON(nil, res.Table)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// writeEncoded writes a 200 whose body is already in its wire encoding.
func (s *Server) writeEncoded(w http.ResponseWriter, r *http.Request, body []byte, gzipped bool) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if gzipped {
		h.Set("Content-Encoding", "gzip")
	}
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	if n, err := w.Write(body); err != nil {
		s.rlogf(r.Context(), "server: response write failed after %d/%d bytes: %v", n, len(body), err)
	}
}

// writeParts serves a body held as segments: stitched into one gzip
// member when the client accepts gzip and the body is worth it, inflated
// otherwise — the same resident bytes either way, through a pooled
// buffer and one Write.
func (s *Server) writeParts(w http.ResponseWriter, r *http.Request, parts []*wire.Segment) {
	gzipped := s.gzip && wire.RawLen(parts) >= gzipMinBytes && acceptsGzip(r)
	bp := getBuf()
	var body []byte
	var err error
	if gzipped {
		body = wire.AppendGzip(*bp, parts)
	} else {
		body, err = wire.AppendIdentity(*bp, parts)
	}
	if err == nil {
		s.writeEncoded(w, r, body, gzipped)
	} else {
		s.writeErr(w, http.StatusInternalServerError, err)
	}
	*bp = body[:0]
	putBuf(bp)
}

// noPredicates is the WHERE clause of a body without one: the apex
// cell. Shared read-only.
var noPredicates = map[string]string{}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	qb := getQueryBody()
	defer putQueryBody(qb)
	if err := qb.read(w, r, false); err != nil {
		s.writeBodyErr(w, err)
		return
	}
	cube := qb.cube
	if _, ok := s.db.CubeByName(cube); !ok {
		s.writeErr(w, http.StatusNotFound, fmt.Errorf("unknown cube %q", cube))
		return
	}
	where := qb.where
	if where == nil {
		where = noPredicates
	}
	resp, err := s.db.Do(r.Context(), tabula.QueryRequest{Cube: cube, Where: where})
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	res := resp.Result
	qb.ident = appendIdentity(qb.ident[:0], res)
	etag := etagFor(cube, string(qb.ident))
	h := w.Header()
	h.Set("ETag", etag)
	h.Set("Vary", "Accept-Encoding")
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	payload, err := s.payloadSegment(cube, res)
	if err != nil {
		s.writeErr(w, http.StatusInternalServerError, err)
		return
	}
	fromGlobal := 0
	if res.FromGlobal {
		fromGlobal = 1
	}
	s.writeParts(w, r, []*wire.Segment{segQueryPrefix, payload, segFromGlobal[fromGlobal]})
}

// handleCacheStats reports the response cache's counters plus each
// cube's generation vector — the invalidation frontier: a cached entry
// is still servable exactly when its shard's generation matches the
// vector.
func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	st := s.cache.Stats()
	cubes := make(map[string]any)
	for _, name := range s.db.Cubes() {
		if cube, ok := s.db.CubeByName(name); ok {
			cubes[name] = map[string]any{
				"version":     cube.Generation(),
				"shards":      cube.NumShards(),
				"generations": cube.Generations(),
			}
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"enabled":   s.cache != nil,
		"entries":   st.Entries,
		"bytes":     st.Bytes,
		"hits":      st.Hits,
		"misses":    st.Misses,
		"shared":    st.Shared,
		"evictions": st.Evictions,
		"cubes":     cubes,
	})
}

type appendRequest struct {
	Cube string     `json:"cube"`
	Rows [][]string `json:"rows"` // values in display form, schema order
}

// handleAppend ingests new rows into an appendable cube: the streaming
// maintenance path exposed over HTTP. Row values arrive in display form
// (points as "x y") and are parsed against the cube's schema.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	var req appendRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAppendBody)).Decode(&req); err != nil {
		s.writeBodyErr(w, err)
		return
	}
	cube, ok := s.db.CubeByName(req.Cube)
	if !ok {
		s.writeErr(w, http.StatusNotFound, fmt.Errorf("unknown cube %q", req.Cube))
		return
	}
	if !cube.Appendable() {
		s.writeErr(w, http.StatusConflict, fmt.Errorf("cube %q was not built with EnableAppend", req.Cube))
		return
	}
	schema := cube.Schema()
	batch := dataset.NewTable(schema)
	for ri, row := range req.Rows {
		if len(row) != len(schema) {
			s.writeErr(w, http.StatusBadRequest, fmt.Errorf("row %d has %d values, schema has %d", ri, len(row), len(schema)))
			return
		}
		vals := make([]dataset.Value, len(schema))
		for c, field := range schema {
			v, err := dataset.ParseValue(field.Type, row[c])
			if err != nil {
				s.writeErr(w, http.StatusBadRequest, fmt.Errorf("row %d column %q: %w", ri, field.Name, err))
				return
			}
			vals[c] = v
		}
		if err := batch.AppendRow(vals...); err != nil {
			s.writeErr(w, http.StatusBadRequest, err)
			return
		}
	}
	st, err := s.db.Append(r.Context(), req.Cube, batch)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	shards := st.ShardsTouched
	if shards == nil {
		shards = []int{}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"rows_appended":     st.RowsAppended,
		"cells_touched":     st.CellsTouched,
		"cells_now_iceberg": st.CellsNowIceberg,
		"cells_now_global":  st.CellsNowGlobal,
		"samples_rebuilt":   st.SamplesRebuilt,
		"samples_kept":      st.SamplesKept,
		"shards_touched":    shards,
		"elapsed_ms":        st.Elapsed.Milliseconds(),
	})
}

func (s *Server) handleCubes(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string][]string{"cubes": s.db.Cubes()})
}

// handleStats reports a cube's inventory, footprint and build timings.
// real_run_ms is the real run: fetching the iceberg cells' raw rows and,
// unless selection samples them on demand, drawing every cell's local
// sample. For a loss with per-row costs (heatmap, histogram) selection
// does sample on demand, so real_run_ms is the fetch alone and
// sample_selection_ms also holds the greedy sampling of the cells the
// cover pass keeps; it always holds materializing the persisted samples.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("cube")
	cube, ok := s.db.CubeByName(name)
	if !ok {
		s.writeErr(w, http.StatusNotFound, fmt.Errorf("unknown cube %q", name))
		return
	}
	st, wst := cube.Stats(), cube.WireStats()
	s.writeJSON(w, http.StatusOK, map[string]any{
		"loss":                cube.LossName(),
		"theta":               cube.Theta(),
		"generation":          cube.Generation(),
		"shards":              cube.NumShards(),
		"generations":         cube.Generations(),
		"cubed_attrs":         cube.CubedAttrs(),
		"cuboids":             st.NumCuboids,
		"iceberg_cuboids":     st.NumIcebergCuboids,
		"cells":               st.NumCells,
		"iceberg_cells":       st.NumIcebergCells,
		"persisted_samples":   st.NumPersistedSamples,
		"global_sample_size":  st.GlobalSampleSize,
		"global_sample_bytes": st.GlobalSampleBytes,
		"cube_table_bytes":    st.CubeTableBytes,
		"sample_table_bytes":  st.SampleTableBytes,
		"total_bytes":         st.TotalBytes(),
		"wire_bytes":          wst.Bytes,
		"wire_cells_filled":   wst.CellsFilled,
		"init_ms":             st.InitTime.Milliseconds(),
		"dry_run_ms":          st.DryRunTime.Milliseconds(),
		"real_run_ms":         st.RealRunTime.Milliseconds(),
		"sample_selection_ms": st.SelectionTime.Milliseconds(),
	})
}
