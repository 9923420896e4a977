package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"testing"

	"github.com/tabula-db/tabula"
)

// Serving-path benchmarks: req/s (ns/op), B/op and allocs/op for the
// dashboard hot path, in process. Requests accept gzip, as dashboards
// do, unless the benchmark says otherwise; bench/ measures the same
// paths over sockets.

func benchCubeServer(b *testing.B, opts ...Option) *Server {
	b.Helper()
	db := tabula.Open()
	params := tabula.DefaultParams(tabula.NewHistogramLoss("fare_amount"), 1.0, "payment_type", "vendor_name")
	cube, err := tabula.Build(tabula.GenerateTaxi(5000, 77), params)
	if err != nil {
		b.Fatal(err)
	}
	db.RegisterCube("c", cube)
	return New(db, opts...)
}

// benchWheres is a repeated-cell traffic pattern: a handful of hot
// cells, the shape a popular dashboard viewport produces.
var benchWheres = []map[string]string{
	{"payment_type": "cash"},
	{"payment_type": "credit"},
	{"payment_type": "cash", "vendor_name": "CMT"},
	{"payment_type": "credit", "vendor_name": "VTS"},
	{"vendor_name": "CMT"},
}

// nullResponseWriter discards bodies so the benchmark measures the
// serving path, not a response buffer.
type nullResponseWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *nullResponseWriter) Header() http.Header { return w.h }
func (w *nullResponseWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}
func (w *nullResponseWriter) WriteHeader(s int) { w.status = s }

func marshalQueryBodies(b *testing.B) [][]byte {
	b.Helper()
	bodies := make([][]byte, len(benchWheres))
	for i, where := range benchWheres {
		raw, err := json.Marshal(map[string]any{"cube": "c", "where": where})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = raw
	}
	return bodies
}

// serveBench serves the bodies round robin, b.N requests in all, and
// returns the response body bytes written.
func serveBench(b *testing.B, s *Server, path string, bodies [][]byte, acceptEncoding string) int {
	w := &nullResponseWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, err := http.NewRequest("POST", path, bytes.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			b.Fatal(err)
		}
		req.Header.Set("Accept-Encoding", acceptEncoding)
		clear(w.h)
		w.status = 0
		s.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
	return w.n
}

// BenchmarkServeQuery: repeated-cell traffic through the full handler
// (decode, lock-free cube lookup, one gzip member stitched from the
// samples' resident bytes). The first pass over the cells fills them.
func BenchmarkServeQuery(b *testing.B) {
	serveBench(b, benchCubeServer(b), "/v1/query", marshalQueryBodies(b), "gzip")
}

// BenchmarkServeQueryIdentity: the same traffic from a client that does
// not accept gzip — every body is inflated from the resident bytes.
func BenchmarkServeQueryIdentity(b *testing.B) {
	serveBench(b, benchCubeServer(b), "/v1/query", marshalQueryBodies(b), "identity")
}

// BenchmarkServeQueryBatch: a 100-cell viewport per request, its member
// stitched from the envelope's stored blocks and the resident payloads.
// The gzip200 variant stitches a dashboard's 64-cell viewport over five
// cubed attributes — cells in every shard, most of them answered by the
// global sample — per request, and reports the body it ships. The
// revalidate variant is the same viewport's warm pan: sent with the
// ETag of its last answer and answered 304 — decode, resolve, hash, no
// body.
func BenchmarkServeQueryBatch(b *testing.B) {
	b.Run("stitch", func(b *testing.B) { benchBatch(b, benchCubeServer(b)) })
	b.Run("gzip200", func(b *testing.B) {
		s, body := viewportServer(b)
		var batch struct{ Queries []map[string]string }
		if err := json.Unmarshal(body, &batch); err != nil {
			b.Fatal(err)
		}
		resp, err := s.db.Do(context.Background(), tabula.QueryRequest{Cube: "c", Batch: batch.Queries})
		if err != nil {
			b.Fatal(err)
		}
		shards, global := make(map[int]bool), 0
		for _, res := range resp.Results {
			shards[res.Shard] = true
			if res.FromGlobal {
				global++
			}
		}
		if len(shards) < 8 || global == 0 {
			b.Fatalf("fixture: the viewport spans %d shards with %d global cells, want at least 8 and 1", len(shards), global)
		}
		n := serveBench(b, s, "/v1/query/batch", [][]byte{body}, "gzip")
		b.ReportMetric(float64(n)/float64(b.N), "body_B/op")
	})
	b.Run("revalidate", func(b *testing.B) {
		s, body := viewportServer(b)
		rv := newRevalidation(b, s, "/v1/query/batch", body)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if status := rv.serve(); status != http.StatusNotModified {
				b.Fatalf("status %d", status)
			}
		}
	})
}

// viewportServer serves a cube over five cubed attributes and returns
// it with a 64-cell batch body over that cube, one fully constrained
// cell per input row.
func viewportServer(tb testing.TB) (*Server, []byte) {
	tb.Helper()
	db := tabula.Open()
	tbl := tabula.GenerateTaxi(5000, 77)
	attrs := tabula.TaxiCubedAttrs()[:5]
	params := tabula.DefaultParams(tabula.NewHistogramLoss("fare_amount"), 1.0, attrs...)
	cube, err := tabula.Build(tbl, params)
	if err != nil {
		tb.Fatal(err)
	}
	db.RegisterCube("c", cube)
	schema := tbl.Schema()
	queries := make([]map[string]string, 64)
	for i := range queries {
		where := make(map[string]string, len(attrs))
		for _, a := range attrs {
			where[a] = tbl.Value(i, schema.ColumnIndex(a)).String()
		}
		queries[i] = where
	}
	body, err := json.Marshal(map[string]any{"cube": "c", "queries": queries})
	if err != nil {
		tb.Fatal(err)
	}
	return New(db), body
}

// revalidation replays one request carrying If-None-Match with the ETag
// its first answer had. The request and its body reader are reused, so
// allocations per serve are the server's own.
type revalidation struct {
	s    *Server
	req  *http.Request
	raw  []byte
	body *reusableBody
	w    *nullResponseWriter
}

type reusableBody struct{ bytes.Reader }

func (*reusableBody) Close() error { return nil }

func newRevalidation(tb testing.TB, s *Server, path string, body []byte) *revalidation {
	tb.Helper()
	rv := &revalidation{s: s, raw: body, body: new(reusableBody), w: &nullResponseWriter{h: make(http.Header)}}
	req, err := http.NewRequest("POST", path, nil)
	if err != nil {
		tb.Fatal(err)
	}
	req.Body, req.ContentLength = rv.body, int64(len(body))
	req.Header.Set("Accept-Encoding", "gzip")
	rv.req = req
	if status := rv.serve(); status != http.StatusOK {
		tb.Fatalf("first request: status %d", status)
	}
	req.Header.Set("If-None-Match", rv.w.h.Get("ETag"))
	if status := rv.serve(); status != http.StatusNotModified {
		tb.Fatalf("revalidation: status %d, want 304", status)
	}
	return rv
}

func (rv *revalidation) serve() int {
	rv.body.Reset(rv.raw)
	clear(rv.w.h)
	rv.w.status = 0
	rv.s.ServeHTTP(rv.w, rv.req)
	return rv.w.status
}

func benchBatch(b *testing.B, s *Server) {
	var queries []map[string]string
	for len(queries) < 100 {
		queries = append(queries, benchWheres[len(queries)%len(benchWheres)])
	}
	body, err := json.Marshal(map[string]any{"cube": "c", "queries": queries})
	if err != nil {
		b.Fatal(err)
	}
	serveBench(b, s, "/v1/query/batch", [][]byte{body}, "gzip")
}

// BenchmarkServeQueryMetrics is BenchmarkServeQuery with the full
// observability surface armed (per-route instruments, request counters,
// latency histogram). Comparing its ns/op and allocs/op against
// BenchmarkServeQuery is the metrics-overhead contract: the delta must
// be atomic-ops-only — 0 extra allocs — because every instrument is
// pre-registered and the status writer is pooled.
func BenchmarkServeQueryMetrics(b *testing.B) {
	reg := tabula.NewMetricsRegistry()
	s := benchCubeServer(b, WithMetrics(reg))
	serveBench(b, s, "/v1/query", marshalQueryBodies(b), "gzip")
	if v, ok := reg.Value("tabula_http_request_duration_seconds",
		tabula.MetricLabel{Name: "route", Value: "/v1/query"}); !ok || v < float64(b.N) {
		b.Fatalf("histogram recorded %v observations of at least %d", v, b.N)
	}
}

// BenchmarkFillPayload is a sample's first touch: encode its JSON and
// compress it into a segment, through the pooled buffer and compressor.
func BenchmarkFillPayload(b *testing.B) {
	s := benchCubeServer(b)
	tbl := tabula.GenerateTaxi(1000, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seg, err := s.payloadSegment("c", &tabula.QueryResult{Sample: tbl})
		if err != nil || seg.Len == 0 {
			b.Fatal(seg, err)
		}
	}
}

// The warm pan's two 304 paths stay within a fixed allocation budget: a
// 64-cell viewport and a single cell, each revalidated with the ETag of
// its last answer. Decoding with encoding/json, they took about 1 200
// and 40.
func TestRevalidationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	s, body := viewportServer(t)
	var batch struct{ Queries []map[string]string }
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	single, err := json.Marshal(map[string]any{"cube": "c", "where": batch.Queries[0]})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path    string
		body    []byte
		ceiling float64
	}{
		{"/v1/query/batch", body, 50},
		{"/v1/query", single, 20},
	} {
		rv := newRevalidation(t, s, tc.path, tc.body)
		allocs := testing.AllocsPerRun(200, func() {
			if status := rv.serve(); status != http.StatusNotModified {
				t.Fatalf("%s: status %d", tc.path, status)
			}
		})
		t.Logf("%s 304: %v allocs", tc.path, allocs)
		if allocs > tc.ceiling {
			t.Errorf("%s 304: %v allocs, ceiling %v", tc.path, allocs, tc.ceiling)
		}
	}
}

// A cold viewport — a 200 that no validator answers — allocates less
// than the gzip body it ships: the member is stitched into a pooled
// buffer from the envelope's stored blocks and the samples' resident
// bytes, and nothing body-sized is made per request. The requests are
// 100 orderings of one 64-cell viewport, each its own identity list and
// ETag, served after a few others have filled the samples' cells and
// the pools.
func TestColdViewportAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	s, body := viewportServer(t)
	var batch struct {
		Cube    string              `json:"cube"`
		Queries []map[string]string `json:"queries"`
	}
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	const warm, cold = 3, 100
	rng := rand.New(rand.NewSource(1))
	var serves []*revalidation
	for range warm + cold {
		rng.Shuffle(len(batch.Queries), func(i, j int) { batch.Queries[i], batch.Queries[j] = batch.Queries[j], batch.Queries[i] })
		raw, err := json.Marshal(batch)
		if err != nil {
			t.Fatal(err)
		}
		rv := &revalidation{s: s, raw: raw, body: new(reusableBody), w: &nullResponseWriter{h: make(http.Header)}}
		if rv.req, err = http.NewRequest("POST", "/v1/query/batch", nil); err != nil {
			t.Fatal(err)
		}
		rv.req.Body, rv.req.ContentLength = rv.body, int64(len(raw))
		rv.req.Header.Set("Accept-Encoding", "gzip")
		serves = append(serves, rv)
	}
	for _, rv := range serves[:warm] {
		if status := rv.serve(); status != http.StatusOK {
			t.Fatalf("warm-up: status %d", status)
		}
	}
	etags := make(map[string]bool)
	minBody := math.MaxInt
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, rv := range serves[warm:] {
		if status := rv.serve(); status != http.StatusOK || rv.w.h.Get("Content-Encoding") != "gzip" {
			t.Fatalf("status %d, Content-Encoding %q, want a gzip 200", status, rv.w.h.Get("Content-Encoding"))
		}
		etags[rv.w.h.Get("ETag")] = true
		minBody = min(minBody, rv.w.n)
	}
	runtime.ReadMemStats(&after)
	if len(etags) != cold {
		t.Fatalf("fixture: %d distinct ETags over %d orderings, want every request cold", len(etags), cold)
	}
	perRequest := (after.TotalAlloc - before.TotalAlloc) / cold
	t.Logf("%d bytes allocated per cold viewport; the smallest body is %d bytes", perRequest, minBody)
	if perRequest >= uint64(minBody) {
		t.Errorf("a cold viewport allocates %d bytes, not less than its %d-byte body", perRequest, minBody)
	}
}
