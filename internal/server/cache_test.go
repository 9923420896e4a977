package server

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/tabula-db/tabula"
)

// newCubeServer builds a server over an appendable two-attribute taxi
// cube registered as "c".
func newCubeServer(t *testing.T, opts ...Option) (*Server, *httptest.Server, *tabula.Cube) {
	t.Helper()
	db := tabula.Open()
	cube := buildTaxiCube(t, 31)
	db.RegisterCube("c", cube)
	s := New(db, opts...)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts, cube
}

// buildTaxiCube builds the appendable cube newCubeServer serves, over
// 3 000 taxi rows generated from seed.
func buildTaxiCube(t *testing.T, seed int64) *tabula.Cube {
	t.Helper()
	params := tabula.DefaultParams(tabula.NewHistogramLoss("fare_amount"), 1.0, "payment_type", "vendor_name")
	params.EnableAppend = true
	cube, err := tabula.Build(tabula.GenerateTaxi(3000, seed), params)
	if err != nil {
		t.Fatal(err)
	}
	return cube
}

// doQuery posts a /query request with optional extra headers and returns
// the raw response (body NOT auto-decompressed: Accept-Encoding is under
// test control).
func doQuery(t *testing.T, url string, body any, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept-Encoding", "identity")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func TestQueryETagAndNotModified(t *testing.T) {
	_, ts, _ := newCubeServer(t)
	q := map[string]any{"cube": "c", "where": map[string]string{"payment_type": "cash"}}

	resp, body := doQuery(t, ts.URL+"/query", q, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("missing ETag")
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Fatalf("Content-Length %q, body %d bytes", cl, len(body))
	}
	var out struct {
		Sample struct {
			NumRows int `json:"num_rows"`
		} `json:"sample"`
	}
	if err := json.Unmarshal(body, &out); err != nil || out.Sample.NumRows == 0 {
		t.Fatalf("body: %v %s", err, body)
	}

	// Revalidation: same cell, If-None-Match → 304, empty body.
	resp, body = doQuery(t, ts.URL+"/query", q, map[string]string{"If-None-Match": etag})
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation status %d", resp.StatusCode)
	}
	if len(body) != 0 {
		t.Fatalf("304 carried %d body bytes", len(body))
	}
	if got := resp.Header.Get("ETag"); got != etag {
		t.Fatalf("304 ETag %q, want %q", got, etag)
	}

	// If-None-Match compares weakly (RFC 9110 §13.1.2): the validator a
	// compressing proxy rewrote to W/"…" still names this response, alone
	// or anywhere in a list.
	for _, inm := range []string{
		"W/" + etag,
		`"stale", ` + etag,
		`W/"stale",W/` + etag + ` , "other"`,
		"*",
	} {
		resp, body = doQuery(t, ts.URL+"/query", q, map[string]string{"If-None-Match": inm})
		if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
			t.Errorf("If-None-Match %q: status %d with %d body bytes, want 304", inm, resp.StatusCode, len(body))
		}
	}

	// A non-matching validator serves the full body again.
	for _, inm := range []string{`"stale"`, `W/"stale", "other"`, strings.Trim(etag, `"`)} {
		resp, body = doQuery(t, ts.URL+"/query", q, map[string]string{"If-None-Match": inm})
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Errorf("If-None-Match %q: %d, %d bytes, want a full 200", inm, resp.StatusCode, len(body))
		}
	}
}

func TestAcceptsGzipWeights(t *testing.T) {
	for _, tc := range []struct {
		header string
		want   bool
	}{
		{"", false},
		{"identity", false},
		{"gzip", true},
		{"GZIP", true},
		{"deflate, gzip", true},
		{"br;q=1.0, gzip;q=0.8, *;q=0.1", true},
		{"gzip;q=1", true},
		{"gzip;q=0.001", true},
		{"gzip ; Q = 0.5", true},
		{"gzip;q=0", false},
		{"gzip;q=0.0", false},
		{"gzip;q=0.00", false},
		{"gzip;q=0.000", false},
		{"gzip; q=0.0", false},
		{"GZip;Q=0", false},
		{"deflate;q=1, gzip;q=0.0", false},
		{"gzip;q=", false},
		{"gzip;q=abc", false},
		{"x-gzip-like", false},
		{",", false},
		{" , ,gzip", true},
		{"identity,,gzip;q=0.000", false},
		{"gzip;", true},
		{"gzip;;q=0", false},
		{"gzip;level=1;q=0.5", true},
		{"gzip;q=0.5;q=0", true},
	} {
		r := &http.Request{Header: http.Header{"Accept-Encoding": {tc.header}}}
		if got := acceptsGzip(r); got != tc.want {
			t.Errorf("acceptsGzip(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}

// Identities and viewport hashes are ETags clients hold across server
// upgrades: they must stay the strings
// "e{epoch:hex}.s{shard}.g{generation}.{class}" and 64-bit FNV-1a over
// "e{epoch:hex}", then each result's "s{shard}.g{generation}.{class}",
// each followed by a 0 byte, whatever builds them. (They do not survive
// a rebuild or a Load: those draw a new epoch.)
func TestIdentityAndViewportHashFormat(t *testing.T) {
	const epoch = 0x9f3c
	results := []*tabula.QueryResult{
		{Epoch: epoch, Shard: 3, Generation: 1, SampleID: 7},
		{Epoch: epoch, Shard: 15, Generation: 12345678901234, SampleID: 0},
		{Epoch: epoch, Shard: 0, Generation: 2, SampleID: -1, FromGlobal: true},
		{Epoch: epoch, Shard: -1, Generation: 0, SampleID: -1},
		{Epoch: epoch, Shard: 3, Generation: 1, SampleID: 7},
	}
	want := fnv.New64a()
	fmt.Fprintf(want, "e%x\x00", epoch)
	for _, res := range results {
		class := "e"
		switch {
		case res.FromGlobal:
			class = "g"
		case res.SampleID >= 0:
			class = fmt.Sprintf("s%d", res.SampleID)
		}
		shardIdent := fmt.Sprintf("s%d.g%d.%s", res.Shard, res.Generation, class)
		if got, want := string(appendIdentity(nil, res)), fmt.Sprintf("e%x.%s", epoch, shardIdent); got != want {
			t.Errorf("appendIdentity(%+v) = %q, want %q", *res, got, want)
		}
		want.Write([]byte(shardIdent))
		want.Write([]byte{0})
	}
	if got, _ := viewportHash(nil, results); got != want.Sum64() {
		t.Fatalf("viewportHash = %x, want FNV-1a %x", got, want.Sum64())
	}
	for _, e := range []uint64{0, 0xffffffffffffffff} {
		res := &tabula.QueryResult{Epoch: e, Shard: 3, Generation: 1, SampleID: 7}
		if got, want := string(appendIdentity(nil, res)), fmt.Sprintf("e%x.s3.g1.s7", e); got != want {
			t.Errorf("appendIdentity(%+v) = %q, want %q", *res, got, want)
		}
	}
}

func TestETagMatchesLists(t *testing.T) {
	const etag = `"c.s3.g1.s7"`
	for _, tc := range []struct {
		header string
		want   bool
	}{
		{"", false},
		{etag, true},
		{"W/" + etag, true},
		{"w/" + etag, false},
		{"*", true},
		{" * ", true},
		{",", false},
		{",, ," + etag + ",", true},
		{`"other",,W/"c.s3.g1.s7"`, true},
		{"W/c.s3.g1.s7", false},
		{"c.s3.g1.s7", false},
		{`W/"c.s3.g1"`, false},
	} {
		if got := etagMatches(tc.header, etag); got != tc.want {
			t.Errorf("etagMatches(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}

// An Append publishes a new snapshot: the ETag must change and the
// response must be served fresh (no 304 against the old validator).
func TestAppendSwapsETagAndServesFreshBytes(t *testing.T) {
	_, ts, cube := newCubeServer(t)
	q := map[string]any{"cube": "c", "where": map[string]string{"payment_type": "cash"}}

	resp, body1 := doQuery(t, ts.URL+"/query", q, nil)
	etag1 := resp.Header.Get("ETag")
	gen1 := cube.Generation()

	// Ingest a batch through the HTTP path.
	resp, raw := doQuery(t, ts.URL+"/append", map[string]any{
		"cube": "c",
		"rows": [][]string{
			{"CMT", "Mon", "1", "cash", "standard", "N", "Mon", "12.5", "0", "2.3", "-73.98 40.75"},
		},
	}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: %d %s", resp.StatusCode, raw)
	}
	if g := cube.Generation(); g != gen1+1 {
		t.Fatalf("generation %d after append, want %d", g, gen1+1)
	}

	// The old validator must NOT revalidate: the snapshot changed.
	resp, body2 := doQuery(t, ts.URL+"/query", q, map[string]string{"If-None-Match": etag1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-append status %d (old ETag must not 304)", resp.StatusCode)
	}
	etag2 := resp.Header.Get("ETag")
	if etag2 == etag1 {
		t.Fatalf("ETag unchanged across append: %q", etag1)
	}
	if len(body2) == 0 {
		t.Fatal("post-append body empty")
	}
	// Both bodies decode; the new one reflects the new snapshot (the
	// cash histogram sample grew or was rebuilt — at minimum it must be
	// a valid sample payload).
	for _, b := range [][]byte{body1, body2} {
		var out map[string]any
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatalf("body decode: %v", err)
		}
	}
}

func TestGzipNegotiation(t *testing.T) {
	_, ts, _ := newCubeServer(t)
	q := map[string]any{"cube": "c", "where": map[string]string{"payment_type": "cash"}}

	resp, identity := doQuery(t, ts.URL+"/query", q, nil)
	if enc := resp.Header.Get("Content-Encoding"); enc != "" {
		t.Fatalf("identity request got Content-Encoding %q", enc)
	}

	resp, raw := doQuery(t, ts.URL+"/query", q, map[string]string{"Accept-Encoding": "gzip"})
	if enc := resp.Header.Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("Content-Encoding %q, want gzip (body %d bytes)", enc, len(identity))
	}
	if resp.Header.Get("Content-Length") != strconv.Itoa(len(raw)) {
		t.Fatal("gzip Content-Length mismatch")
	}
	if len(raw) >= len(identity) {
		t.Fatalf("gzip body %d bytes >= identity %d", len(raw), len(identity))
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	inflated, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inflated, identity) {
		t.Fatal("gzip variant does not inflate to the identity body")
	}

	// A zero weight opts out, however it is spelled.
	for _, ae := range []string{"gzip;q=0", "gzip;q=0.0"} {
		resp, _ = doQuery(t, ts.URL+"/query", q, map[string]string{"Accept-Encoding": ae})
		if enc := resp.Header.Get("Content-Encoding"); enc != "" {
			t.Fatalf("Accept-Encoding %q got Content-Encoding %q", ae, enc)
		}
	}
}

// N concurrent first touches of one sample fill its cell once: every
// request is served, by whichever encoding it asked for, from the bytes
// a single encode produced.
func TestConcurrentFirstTouchFillsOnce(t *testing.T) {
	reg := tabula.NewMetricsRegistry()
	_, ts, cube := newCubeServer(t, WithMetrics(reg))
	where := map[string]string{"payment_type": "dispute", "vendor_name": "CMT"}
	const n = 16
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			enc := []string{"gzip", "identity"}[i%2]
			resp, body := doQuery(t, ts.URL+"/query", map[string]any{"cube": "c", "where": where},
				map[string]string{"Accept-Encoding": enc})
			if resp.StatusCode != http.StatusOK || len(body) == 0 {
				t.Errorf("status %d, %d bytes", resp.StatusCode, len(body))
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	if fills, _ := reg.Value("tabula_wire_fills_total", tabula.MetricLabel{Name: "cube", Value: "c"}); fills != 1 {
		t.Fatalf("%v fills for %d concurrent first touches of one sample, want 1", fills, n)
	}
	if st := cube.WireStats(); st.CellsFilled != 1 {
		t.Fatalf("%d cells filled, want 1", st.CellsFilled)
	}
	for i := 2; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[i%2]) {
			t.Fatalf("request %d and request %d asked for the same encoding and got different bytes", i, i%2)
		}
	}
}

// GET /v1/cache reports each cube's version and generation vector, the
// invalidation frontier, and nothing else: no body is cached, so there
// are no cache counters. An append moves the version and the vector.
func TestCacheStatsEndpoint(t *testing.T) {
	_, ts, cube := newCubeServer(t)
	check := func(when string) {
		t.Helper()
		resp, raw := do(t, "GET", ts.URL+"/v1/cache", nil, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", when, resp.StatusCode)
		}
		var out map[string]map[string]struct {
			Version     uint64   `json:"version"`
			Shards      int      `json:"shards"`
			Generations []uint64 `json:"generations"`
		}
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("%s: %v in %s", when, err, raw)
		}
		c, ok := out["cubes"]["c"]
		if len(out) != 1 || len(out["cubes"]) != 1 || !ok {
			t.Fatalf("%s: %s, want the cubes section alone, with cube c", when, raw)
		}
		if c.Version != cube.Generation() || c.Shards != cube.NumShards() || !slices.Equal(c.Generations, cube.Generations()) {
			t.Fatalf("%s: reported %+v, the cube is at version %d over %d shards with generations %v",
				when, c, cube.Generation(), cube.NumShards(), cube.Generations())
		}
	}
	doQuery(t, ts.URL+"/v1/query/batch", map[string]any{"cube": "c", "queries": viewportSamplesTwice}, acceptGzip)
	check("after a viewport")
	before := cube.Generations()
	resp, raw := doQuery(t, ts.URL+"/v1/append", map[string]any{"cube": "c", "rows": [][]string{
		{"CMT", "Mon", "1", "cash", "standard", "N", "Mon", "12.5", "0", "2.3", "-73.98 40.75"},
	}}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: %d %s", resp.StatusCode, raw)
	}
	if cube.Generation() != 2 || slices.Equal(cube.Generations(), before) {
		t.Fatalf("fixture: the append left version %d and generations %v", cube.Generation(), cube.Generations())
	}
	check("after an append")
}

// WithCacheBytes has no effect: with a budget of 0 and with the old
// default, every body, encoding and ETag is the same, gzip or not.
func TestCacheDisabled(t *testing.T) {
	db := tabula.Open()
	db.RegisterCube("c", buildTaxiCube(t, 31))
	var got [2][]fetched
	for i, budget := range []int64{0, DefaultCacheBytes} {
		ts := httptest.NewServer(New(db, WithCacheBytes(budget)))
		got[i] = append(fetchAll(t, ts.URL), fetchAll(t, ts.URL)...)
		ts.Close()
	}
	for i := range got[0] {
		a, b := got[0][i], got[1][i]
		if !bytes.Equal(a.body, b.body) || a.etag != b.etag || a.encoding != b.encoding {
			t.Fatalf("response %d: budget 0 served %s %q, the default budget %s %q", i, a.etag, a.encoding, b.etag, b.encoding)
		}
	}
}

func TestBatchViewport(t *testing.T) {
	_, ts, cube := newCubeServer(t)
	// A 100-cell viewport: the cross product of payment types and
	// vendors plus repeats — the shape a map pan generates.
	payments := []string{"cash", "credit", "dispute", "no charge", "unknown"}
	vendors := []string{"CMT", "VTS", "DDS", "TAX"}
	var queries []map[string]string
	for len(queries) < 100 {
		for _, p := range payments {
			for _, v := range vendors {
				if len(queries) >= 100 {
					break
				}
				queries = append(queries, map[string]string{"payment_type": p, "vendor_name": v})
			}
		}
	}
	resp, body := doQuery(t, ts.URL+"/query/batch", map[string]any{"cube": "c", "queries": queries}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Results []struct {
			Payload    int    `json:"payload"`
			Shard      int    `json:"shard"`
			Generation uint64 `json:"generation"`
			FromGlobal bool   `json:"from_global"`
		} `json:"results"`
		Payloads []struct {
			Columns []string `json:"columns"`
			NumRows int      `json:"num_rows"`
		} `json:"payloads"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("batch decode: %v", err)
	}
	if len(out.Results) != 100 {
		t.Fatalf("%d results, want 100", len(out.Results))
	}
	// Every cell-addressed result is stamped with its answering shard's
	// current generation (the whole batch resolved on one snapshot).
	gens := cube.Generations()
	for i, r := range out.Results {
		if r.Shard < -1 || r.Shard >= len(gens) {
			t.Fatalf("result %d names shard %d of %d", i, r.Shard, len(gens))
		}
		if r.Shard >= 0 && r.Generation != gens[r.Shard] {
			t.Fatalf("result %d: generation %d, shard %d is at %d", i, r.Generation, r.Shard, gens[r.Shard])
		}
	}
	// Dedup: 100 cells over a 20-cell domain cannot need 100 payloads.
	if len(out.Payloads) >= 100 || len(out.Payloads) == 0 {
		t.Fatalf("%d payloads for 100 queries, expected deduplication", len(out.Payloads))
	}
	for i, r := range out.Results {
		if r.Payload < 0 || r.Payload >= len(out.Payloads) {
			t.Fatalf("result %d references payload %d of %d", i, r.Payload, len(out.Payloads))
		}
	}
	// Repeated cells must reference the same payload index.
	if out.Results[0].Payload != out.Results[20].Payload {
		t.Fatalf("identical cells got payloads %d and %d", out.Results[0].Payload, out.Results[20].Payload)
	}

	// A batch result must agree with the equivalent single query.
	resp, single := doQuery(t, ts.URL+"/query", map[string]any{"cube": "c", "where": queries[0]}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatal("single query failed")
	}
	var sout struct {
		Sample struct {
			NumRows int `json:"num_rows"`
		} `json:"sample"`
		FromGlobal bool `json:"from_global"`
	}
	if err := json.Unmarshal(single, &sout); err != nil {
		t.Fatal(err)
	}
	if sout.FromGlobal != out.Results[0].FromGlobal {
		t.Fatal("batch and single disagree on from_global")
	}
	if sout.Sample.NumRows != out.Payloads[out.Results[0].Payload].NumRows {
		t.Fatalf("batch payload has %d rows, single query %d",
			out.Payloads[out.Results[0].Payload].NumRows, sout.Sample.NumRows)
	}

	// Batch revalidation: the viewport ETag 304s until the snapshot swaps.
	resp, _ = doQuery(t, ts.URL+"/query/batch", map[string]any{"cube": "c", "queries": queries}, nil)
	batchTag := resp.Header.Get("ETag")
	resp, b304 := doQuery(t, ts.URL+"/query/batch", map[string]any{"cube": "c", "queries": queries},
		map[string]string{"If-None-Match": batchTag})
	if resp.StatusCode != http.StatusNotModified || len(b304) != 0 {
		t.Fatalf("batch revalidation: %d, %d bytes", resp.StatusCode, len(b304))
	}
}

func TestBatchErrors(t *testing.T) {
	_, ts, _ := newCubeServer(t)
	resp, _ := doQuery(t, ts.URL+"/query/batch", map[string]any{"cube": "ghost", "queries": []map[string]string{{"a": "b"}}}, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost cube: %d", resp.StatusCode)
	}
	resp, _ = doQuery(t, ts.URL+"/query/batch", map[string]any{"cube": "c", "queries": []map[string]string{}}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: %d", resp.StatusCode)
	}
	resp, _ = doQuery(t, ts.URL+"/query/batch", map[string]any{"cube": "c", "queries": []map[string]string{{"nope": "x"}}}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad attribute: %d", resp.StatusCode)
	}
}
