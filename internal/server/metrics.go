package server

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tabula-db/tabula/internal/obs"
)

// HTTP observability. Every route is wrapped by instrument(), which
// pre-registers the route's instruments at wiring time (New) so the
// request path touches only closure-captured pointers: one pooled
// status-recording writer, one time.Now pair, and three atomic
// operations. With metrics disabled (nil registry) instrument returns
// the handler unchanged — the instrumented and bare servers run the
// same code per request except for those atomics, which is what
// bench/'s obs.overhead_pct measures.

// statusWriter records the response status and body size flowing
// through a handler. Instances are pooled; reset reattaches them to the
// next request's ResponseWriter.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (sw *statusWriter) reset(w http.ResponseWriter) {
	sw.ResponseWriter = w
	sw.status = http.StatusOK
	sw.bytes = 0
}

// WriteHeader records the status line.
func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

// Write counts body bytes actually written.
func (sw *statusWriter) Write(b []byte) (int, error) {
	n, err := sw.ResponseWriter.Write(b)
	sw.bytes += n
	return n, err
}

var swPool = sync.Pool{New: func() any { return new(statusWriter) }}

// statusClasses label the tabula_http_requests_total series; statuses
// outside 2xx–5xx are clamped into the nearest class.
var statusClasses = [4]string{"2xx", "3xx", "4xx", "5xx"}

// instrument wraps h with per-route metrics: request counts by status
// class, a latency histogram, and cumulative response bytes. With
// metrics disabled it returns h unchanged. Instruments are registered
// here, once per route at wiring time, so serving allocates nothing
// for metrics.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	if s.metrics == nil {
		return h
	}
	rl := obs.Label{Name: "route", Value: route}
	var byClass [4]*obs.Counter
	for i, class := range statusClasses {
		byClass[i] = s.metrics.Counter("tabula_http_requests_total",
			"HTTP requests served, by route and status class.",
			rl, obs.Label{Name: "code", Value: class})
	}
	latency := s.metrics.Histogram("tabula_http_request_duration_seconds",
		"HTTP request latency, by route.", obs.LatencyBuckets, rl)
	respBytes := s.metrics.Counter("tabula_http_response_bytes_total",
		"HTTP response body bytes written, by route.", rl)
	return func(w http.ResponseWriter, r *http.Request) {
		sw := swPool.Get().(*statusWriter)
		sw.reset(w)
		start := time.Now()
		h(sw, r)
		latency.Observe(time.Since(start).Seconds())
		class := sw.status/100 - 2
		if class < 0 {
			class = 0
		} else if class > 3 {
			class = 3
		}
		byClass[class].Inc()
		respBytes.Add(uint64(sw.bytes))
		sw.reset(nil)
		swPool.Put(sw)
	}
}

// handleMetrics serves the registry in Prometheus text exposition
// format (0.0.4). With metrics disabled the route 404s, making the
// disabled mode observable to scrapers instead of silently empty.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.metrics == nil {
		http.Error(w, "metrics disabled", http.StatusNotFound)
		return
	}
	b := s.metrics.AppendPrometheus(nil)
	h := w.Header()
	h.Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	if n, err := w.Write(b); err != nil {
		s.rlogf(r.Context(), "server: metrics write failed after %d/%d bytes: %v", n, len(b), err)
	}
}

// Request IDs: every request carries an ID — the client's X-Request-Id
// if present, else a generated one — echoed in the response header and
// threaded through the request context so log lines emitted anywhere
// down the serving path can be correlated with the request that caused
// them. IDs are generated from a per-process prefix plus an atomic
// sequence: unique enough to grep a log, cheap enough for the hot path.

type requestIDKey struct{}

var (
	reqIDSeq    atomic.Uint64
	reqIDPrefix = strconv.FormatInt(time.Now().UnixNano()&0xfffffff, 36) + "-"
)

func nextRequestID() string {
	return reqIDPrefix + strconv.FormatUint(reqIDSeq.Add(1), 36)
}

// withRequestID stores the ID in ctx.
func withRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFrom returns the request ID threaded through ctx by
// ServeHTTP, or "" outside a request.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// rlogf logs through the server's logger with the request ID appended,
// so multi-line failures interleaved across concurrent requests stay
// attributable.
func (s *Server) rlogf(ctx context.Context, format string, args ...any) {
	if id := RequestIDFrom(ctx); id != "" {
		s.logf(format+" request_id=%s", append(args, id)...)
		return
	}
	s.logf(format, args...)
}
