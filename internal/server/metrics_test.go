package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/tabula-db/tabula"
	"github.com/tabula-db/tabula/internal/obs"
)

// newMetricsServer builds a metrics-armed DB+server pair over an
// appendable cube registered as "c".
func newMetricsServer(t *testing.T) (*obs.Registry, *httptest.Server) {
	t.Helper()
	reg := tabula.NewMetricsRegistry()
	db := tabula.Open(tabula.WithMetrics(reg))
	params := tabula.DefaultParams(tabula.NewHistogramLoss("fare_amount"), 1.0, "payment_type", "vendor_name")
	params.EnableAppend = true
	cube, err := tabula.Build(tabula.GenerateTaxi(3000, 31), params) // newCubeServer's cube: the cell fixtures hold
	if err != nil {
		t.Fatal(err)
	}
	db.RegisterCube("c", cube)
	ts := httptest.NewServer(New(db, WithMetrics(reg)))
	t.Cleanup(ts.Close)
	return reg, ts
}

// scrape fetches the exposition and returns it as text plus a parsed
// series map: full series name (with rendered labels) -> value.
func scrape(t *testing.T, url string) (string, map[string]float64) {
	t.Helper()
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics content-type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	series := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		series[line[:sp]] = v
	}
	return text, series
}

// TestMetricsExposition checks the wire format: every non-comment line
// is `name[{labels}] value`, every family has HELP and TYPE headers,
// and the layers' key families all show up through one endpoint.
func TestMetricsExposition(t *testing.T) {
	_, ts := newMetricsServer(t)
	// Traffic across layers: a query, an append, a cache stats read.
	postJSON(t, ts.URL+"/v1/query", map[string]any{"cube": "c", "where": map[string]string{"payment_type": "cash"}})
	postJSON(t, ts.URL+"/v1/append", map[string]any{"cube": "c", "rows": [][]string{
		{"CMT", "Mon", "1", "cash", "standard", "N", "Mon", "12.5", "0", "2.3", "-73.98 40.75"},
	}})

	text, series := scrape(t, ts.URL)
	lineRE := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[-+]?Inf|[-+0-9.eE]+)$`)
	families := make(map[string]bool)
	for _, line := range strings.Split(text, "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE "):
			families[strings.Fields(line)[2]] = true
		default:
			if !lineRE.MatchString(line) {
				t.Errorf("malformed exposition line %q", line)
			}
		}
	}
	for _, want := range []string{
		"tabula_http_requests_total",
		"tabula_http_request_duration_seconds",
		"tabula_http_response_bytes_total",
		"tabula_db_queries_total",
		"tabula_append_total",
		"tabula_append_duration_seconds",
		"tabula_cube_version",
		"tabula_cube_shard_generation",
		"tabula_wire_fills_total",
		"tabula_wire_fill_seconds",
		"tabula_wire_cells",
		"tabula_wire_resident_bytes",
	} {
		if !families[want] {
			t.Errorf("family %s missing HELP/TYPE headers", want)
		}
		found := false
		for name := range series {
			if name == want || strings.HasPrefix(name, want+"{") || strings.HasPrefix(name, want+"_") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no series of family %s in exposition", want)
		}
	}
}

// TestMetricsMonotonicAcrossAppends drives queries and appends in
// alternation and checks that counters never move backwards — appends
// publish new snapshots, and the registry must survive them (gauges
// re-sample the new snapshot; counters keep accumulating).
func TestMetricsMonotonicAcrossAppends(t *testing.T) {
	reg, ts := newMetricsServer(t)
	var lastQueries, lastAppends, lastVersion float64
	for round := 0; round < 3; round++ {
		postJSON(t, ts.URL+"/v1/query", map[string]any{"cube": "c", "where": map[string]string{"payment_type": "cash"}})
		postJSON(t, ts.URL+"/v1/append", map[string]any{"cube": "c", "rows": [][]string{
			{"VTS", "Fri", "2", "credit", "jfk", "N", "Fri", "52.0", "10.4", "17.1", "-73.78 40.64"},
		}})
		_, series := scrape(t, ts.URL)
		queries := series[`tabula_db_queries_total{kind="values"}`]
		appends := series[`tabula_append_total{cube="c"}`]
		version := series[`tabula_cube_version{cube="c"}`]
		if queries < lastQueries || queries < float64(round+1) {
			t.Fatalf("round %d: query counter went %v -> %v", round, lastQueries, queries)
		}
		if appends != float64(round+1) {
			t.Fatalf("round %d: append counter %v", round, appends)
		}
		if version <= lastVersion {
			t.Fatalf("round %d: cube version %v -> %v not monotonic", round, lastVersion, version)
		}
		lastQueries, lastAppends, lastVersion = queries, appends, version
	}
	_ = lastAppends
	// The registry's direct view must agree with the exposition.
	if v, ok := reg.Value("tabula_append_total", obs.Label{Name: "cube", Value: "c"}); !ok || v != 3 {
		t.Fatalf("registry Value(tabula_append_total) = %v, %v", v, ok)
	}
}

// TestMetricsHistogramCounts checks the histogram contract on a live
// route: the +Inf bucket is cumulative (== _count), bucket counts never
// decrease with increasing le, and the per-route request count equals
// the histogram's observation count and the status-class counter sum.
func TestMetricsHistogramCounts(t *testing.T) {
	_, ts := newMetricsServer(t)
	const n = 7
	for i := 0; i < n; i++ {
		postJSON(t, ts.URL+"/v1/query", map[string]any{"cube": "c", "where": map[string]string{"payment_type": "cash"}})
	}
	text, series := scrape(t, ts.URL)

	count := series[`tabula_http_request_duration_seconds_count{route="/v1/query"}`]
	if count != n {
		t.Fatalf("duration _count = %v, want %d", count, n)
	}
	inf := series[`tabula_http_request_duration_seconds_bucket{route="/v1/query",le="+Inf"}`]
	if inf != count {
		t.Fatalf("+Inf bucket %v != _count %v", inf, count)
	}
	// Buckets are cumulative in exposition order.
	var prev float64 = -1
	rows := 0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, `tabula_http_request_duration_seconds_bucket{route="/v1/query",`) {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v < prev {
			t.Fatalf("bucket counts decreased: %q after %v", line, prev)
		}
		prev = v
		rows++
	}
	if rows != len(obs.LatencyBuckets)+1 {
		t.Fatalf("%d bucket rows, want %d", rows, len(obs.LatencyBuckets)+1)
	}
	// Status-class counters sum to the same request count.
	var classSum float64
	for _, class := range []string{"2xx", "3xx", "4xx", "5xx"} {
		classSum += series[fmt.Sprintf(`tabula_http_requests_total{code=%q,route="/v1/query"}`, class)]
	}
	if classSum != count {
		t.Fatalf("status-class sum %v != request count %v", classSum, count)
	}
}

// TestWireMetrics: a sample's first serve shows up as one fill, one
// fill-time observation, one more filled cell and its resident bytes —
// and never again for that sample — while GET /v1/stats reports the
// same bytes beside, not inside, the cube's footprint.
func TestWireMetrics(t *testing.T) {
	_, ts := newMetricsServer(t)
	_, series := scrape(t, ts.URL)
	if got := series[`tabula_wire_cells{cube="c"}`] + series[`tabula_wire_resident_bytes{cube="c"}`] + series[`tabula_wire_fill_seconds_count`]; got != 0 {
		t.Fatalf("wire series before any serve: %v", series)
	}
	_, before := getJSON(t, ts.URL+"/v1/stats?cube=c")

	queries := []map[string]string{cellIceberg, cellGlobal, cellIceberg, cellSharedA, cellSharedB}
	for round := 0; round < 2; round++ {
		for _, where := range queries {
			doQuery(t, ts.URL+"/v1/query", map[string]any{"cube": "c", "where": where}, acceptGzip)
		}
		doQuery(t, ts.URL+"/v1/query/batch", map[string]any{"cube": "c", "queries": queries}, nil)
	}
	_, series = scrape(t, ts.URL)
	// The iceberg cell's sample, the global sample, and the one sample
	// behind the two shared cells.
	const distinct = 3
	for name, want := range map[string]float64{
		`tabula_wire_fills_total{cube="c"}`:                        distinct,
		`tabula_wire_fill_seconds_count`:                           distinct,
		`tabula_wire_fill_seconds_bucket{le="+Inf"}`:               distinct,
		`tabula_wire_cells{cube="c"}`:                              distinct,
		`tabula_http_requests_total{code="2xx",route="/v1/query"}`: float64(2 * len(queries)),
	} {
		if got := series[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	resident := series[`tabula_wire_resident_bytes{cube="c"}`]
	if resident <= 0 {
		t.Fatalf("tabula_wire_resident_bytes = %v after %d fills", resident, distinct)
	}

	_, after := getJSON(t, ts.URL+"/v1/stats?cube=c")
	if after["wire_bytes"] != resident || after["wire_cells_filled"] != float64(distinct) {
		t.Errorf("/v1/stats reports wire_bytes %v in %v cells, the gauges %v in %d", after["wire_bytes"], after["wire_cells_filled"], resident, distinct)
	}
	if before["wire_bytes"] != 0.0 || before["wire_cells_filled"] != 0.0 {
		t.Errorf("/v1/stats before any serve: wire_bytes %v, wire_cells_filled %v", before["wire_bytes"], before["wire_cells_filled"])
	}
	// Fig. 9's three components stay exact: filling cells moves none of
	// them, and total_bytes is still their sum.
	for _, k := range []string{"global_sample_bytes", "cube_table_bytes", "sample_table_bytes", "total_bytes"} {
		if after[k] != before[k] {
			t.Errorf("/v1/stats %s moved from %v to %v when cells were filled", k, before[k], after[k])
		}
	}
	if sum := after["global_sample_bytes"].(float64) + after["cube_table_bytes"].(float64) + after["sample_table_bytes"].(float64); after["total_bytes"] != sum {
		t.Errorf("total_bytes %v is not the sum of its three components %v", after["total_bytes"], sum)
	}
}

// TestMetricsDisabled: a server without WithMetrics serves every route
// identically but 404s the exposition endpoints.
func TestMetricsDisabled(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/v1/metrics", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s with metrics disabled: status %d, want 404", path, resp.StatusCode)
		}
	}
	// Routes still serve.
	resp, out := getJSON(t, ts.URL+"/v1/cubes")
	if resp.StatusCode != http.StatusOK || out["cubes"] == nil {
		t.Fatalf("cubes with metrics disabled: %d %v", resp.StatusCode, out)
	}
}

// TestRequestIDs: the server echoes a client-supplied X-Request-Id and
// generates unique ones otherwise — with or without metrics.
func TestRequestIDs(t *testing.T) {
	_, ts := newTestServer(t)
	req, err := http.NewRequest("GET", ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "dashboard-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "dashboard-42" {
		t.Fatalf("echoed request id %q", got)
	}

	seen := make(map[string]bool)
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id := resp.Header.Get("X-Request-Id")
		if id == "" || seen[id] {
			t.Fatalf("generated request id %q (seen=%v)", id, seen[id])
		}
		seen[id] = true
	}
}

// TestRequestIDInLogs: rlogf appends the ID carried by the request
// context, so failures deep in the serving path stay attributable.
func TestRequestIDInLogs(t *testing.T) {
	var lines []string
	db := tabula.Open()
	s := New(db, WithLogger(func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}))
	s.rlogf(withRequestID(context.Background(), "rid-7"), "boom: %d", 3)
	if len(lines) != 1 || lines[0] != "boom: 3 request_id=rid-7" {
		t.Fatalf("rlogf output %q", lines)
	}
	s.rlogf(context.Background(), "plain: %d", 4)
	if len(lines) != 2 || lines[1] != "plain: 4" {
		t.Fatalf("rlogf without id %q", lines[1])
	}
}

// TestPprofGated: profiling routes exist only with WithPprof(true).
func TestPprofGated(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without opt-in: %d", resp.StatusCode)
	}

	db := tabula.Open()
	on := httptest.NewServer(New(db, WithPprof(true)))
	defer on.Close()
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index: %d %.80s", resp.StatusCode, body)
	}
}
