package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/tabula-db/tabula"
	"github.com/tabula-db/tabula/internal/wire"
)

var acceptGzip = map[string]string{"Accept-Encoding": "gzip"}

// readMember reads b as exactly one gzip member — trailer CRC and size
// verified, no byte after it — and returns what it inflates to.
func readMember(t *testing.T, b []byte) []byte {
	t.Helper()
	br := bytes.NewReader(b)
	zr, err := gzip.NewReader(br)
	if err != nil {
		t.Fatal(err)
	}
	zr.Multistream(false)
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("reading gzip member: %v", err)
	}
	if br.Len() != 0 {
		t.Fatalf("%d bytes follow the gzip member", br.Len())
	}
	return out
}

// wantQueryBody is the /v1/query body by the identity encoder: the
// sample's JSON inside the response envelope.
func wantQueryBody(res *tabula.QueryResult) []byte {
	b := appendTableJSON([]byte(`{"sample":`), res.Sample)
	return fmt.Appendf(b, `,"from_global":%v}`, res.FromGlobal)
}

// wantBatchBody is the /v1/query/batch body by the identity encoder,
// with the payload dedup written out the long way: one payload per
// physical sample, however many shards reach it.
func wantBatchBody(results []*tabula.QueryResult) []byte {
	index := make(map[*wire.Cell]int)
	var payloads [][]byte
	var entries []string
	for _, res := range results {
		j, ok := index[res.Wire]
		if !ok {
			j = len(payloads)
			index[res.Wire] = j
			payloads = append(payloads, appendTableJSON(nil, res.Sample))
		}
		entries = append(entries, fmt.Sprintf(`{"payload":%d,"shard":%d,"generation":%d,"from_global":%v}`,
			j, res.Shard, res.Generation, res.FromGlobal))
	}
	return []byte(`{"results":[` + strings.Join(entries, ",") + `],"payloads":[` + string(bytes.Join(payloads, []byte(","))) + `]}`)
}

// checkBothEncodings requests body at path with and without gzip and
// checks each 200 against want: the identity body byte for byte, the
// gzip body as a single member inflating to it. It returns the gzip
// response's raw bytes (nil if the body went out uncompressed).
func checkBothEncodings(t *testing.T, url string, body any, want []byte) []byte {
	t.Helper()
	resp, identity := doQuery(t, url, body, nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Encoding") != "" {
		t.Fatalf("identity request: status %d, Content-Encoding %q", resp.StatusCode, resp.Header.Get("Content-Encoding"))
	}
	if !bytes.Equal(identity, want) {
		t.Fatalf("identity body differs from the identity encoder's:\n got %.300s\nwant %.300s", identity, want)
	}
	resp, raw := doQuery(t, url, body, acceptGzip)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gzip request: status %d", resp.StatusCode)
	}
	if cl := resp.Header.Get("Content-Length"); cl != fmt.Sprint(len(raw)) {
		t.Fatalf("Content-Length %s for %d body bytes", cl, len(raw))
	}
	if len(want) < gzipMinBytes {
		if enc := resp.Header.Get("Content-Encoding"); enc != "" || !bytes.Equal(raw, want) {
			t.Fatalf("a %d-byte body went out with Content-Encoding %q", len(want), enc)
		}
		return nil
	}
	if enc := resp.Header.Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("Content-Encoding %q for a %d-byte body, want gzip", enc, len(want))
	}
	if got := readMember(t, raw); !bytes.Equal(got, want) {
		t.Fatalf("gzip body inflates to something else than the identity encoder's output:\n got %.300s\nwant %.300s", got, want)
	}
	return raw
}

// The cells of newCubeServer's cube the tests below lean on.
var (
	cellIceberg = map[string]string{"payment_type": "dispute", "vendor_name": "CMT"}
	cellGlobal  = map[string]string{"payment_type": "cash"}
	// The global sample again, through another shard than cellGlobal's.
	cellGlobalB = map[string]string{"payment_type": "credit"}
	cellEmpty   = map[string]string{"payment_type": "barter"}
	// One representative sample, reached through two shards.
	cellSharedA = map[string]string{"payment_type": "dispute"}
	cellSharedB = map[string]string{"payment_type": "dispute", "vendor_name": "VTS"}
	// Shares cellSharedB's shard, not its sample.
	cellNeighbour = map[string]string{"payment_type": "dispute", "vendor_name": "DDS"}
)

func mustQuery(t *testing.T, cube *tabula.Cube, where map[string]string) *tabula.QueryResult {
	t.Helper()
	res, err := cube.QueryByValues(context.Background(), where)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Every 200 of /v1/query and /v1/query/batch is, for a gzip client, one
// RFC 1952 member that inflates to exactly what the identity encoder
// writes, and is those bytes themselves for a client without gzip.
func TestGzipBodiesAreSingleMembersOfIdentityBytes(t *testing.T) {
	for _, cacheBytes := range []int64{DefaultCacheBytes, 0} {
		_, ts, cube := newCubeServer(t, WithCacheBytes(cacheBytes))
		a, b := mustQuery(t, cube, cellSharedA), mustQuery(t, cube, cellSharedB)
		if a.Sample != b.Sample || a.Shard == b.Shard || a.Wire != b.Wire {
			t.Fatalf("fixture: %v and %v should share one sample across two shards", cellSharedA, cellSharedB)
		}
		if res := mustQuery(t, cube, cellIceberg); res.FromGlobal || res.SampleID < 0 {
			t.Fatalf("fixture: %v should be an iceberg cell", cellIceberg)
		}
		if res := mustQuery(t, cube, cellEmpty); res.Shard != -1 || res.Sample.NumRows() != 0 {
			t.Fatalf("fixture: %v should address an empty population", cellEmpty)
		}

		for _, where := range []map[string]string{cellIceberg, cellGlobal, cellEmpty, cellSharedA, cellSharedB} {
			want := wantQueryBody(mustQuery(t, cube, where))
			// Twice: the first touch fills the sample's cell, the second
			// finds it filled.
			for i := 0; i < 2; i++ {
				checkBothEncodings(t, ts.URL+"/v1/query", map[string]any{"cube": "c", "where": where}, want)
			}
		}

		for name, queries := range map[string][]map[string]string{
			"duplicates":       {cellIceberg, cellGlobal, cellIceberg, cellIceberg, cellGlobal},
			"two shards":       {cellSharedA, cellSharedB, cellSharedA},
			"global twice":     {cellGlobal, cellGlobalB, cellGlobal},
			"every kind":       {cellEmpty, cellGlobal, cellIceberg, cellSharedB, cellNeighbour, cellEmpty},
			"one empty answer": {cellEmpty},
		} {
			results, err := cube.QueryBatchByValues(context.Background(), queries)
			if err != nil {
				t.Fatal(err)
			}
			want := wantBatchBody(results)
			for i := 0; i < 2; i++ { // assembled, then (with a cache) served assembled
				if raw := checkBothEncodings(t, ts.URL+"/v1/query/batch", map[string]any{"cube": "c", "queries": queries}, want); raw == nil && name != "one empty answer" {
					t.Errorf("batch %q was not compressed", name)
				}
			}
		}
		// iceberg, global, empty, the neighbour, and the shared sample once.
		if st := cube.WireStats(); st.CellsFilled != 5 {
			t.Errorf("cache budget %d: %d cells filled, want 5", cacheBytes, st.CellsFilled)
		}
	}
}

// Bytes follow the sample, not the shard generation: across an Append, a
// sample that survives in a touched shard answers under a new ETag from
// the very bytes it held before, and a rebuilt sample starts empty.
func TestAppendKeepsSurvivingSampleBytes(t *testing.T) {
	_, ts, cube := newCubeServer(t)
	survivor := map[string]any{"cube": "c", "where": cellSharedB}
	rebuilt := map[string]any{"cube": "c", "where": cellNeighbour}

	resp, survivorBody := doQuery(t, ts.URL+"/v1/query", survivor, acceptGzip)
	survivorTag := resp.Header.Get("ETag")
	resp, rebuiltBody := doQuery(t, ts.URL+"/v1/query", rebuilt, acceptGzip)
	rebuiltTag := resp.Header.Get("ETag")
	before, beforeRebuilt := mustQuery(t, cube, cellSharedB), mustQuery(t, cube, cellNeighbour)
	seg := before.Wire.Filled()
	if seg == nil || beforeRebuilt.Wire.Filled() == nil {
		t.Fatal("serving a sample did not fill its cell")
	}

	// Three outlying dispute/DDS fares: the neighbour cell's sample no
	// longer satisfies θ and is rebuilt; the survivor's shard is touched
	// (it is the neighbour's shard) but its sample is not.
	resp, raw := doQuery(t, ts.URL+"/v1/append", map[string]any{"cube": "c", "rows": [][]string{
		{"DDS", "Wed", "3", "dispute", "standard", "N", "Wed", "400", "0", "0.8", "-73.97 40.76"},
		{"DDS", "Wed", "3", "dispute", "standard", "N", "Wed", "401", "0", "0.8", "-73.97 40.76"},
		{"DDS", "Wed", "3", "dispute", "standard", "N", "Wed", "402", "0", "0.8", "-73.97 40.76"},
	}}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: %d %s", resp.StatusCode, raw)
	}

	after, afterRebuilt := mustQuery(t, cube, cellSharedB), mustQuery(t, cube, cellNeighbour)
	if after.Generation == before.Generation || after.Sample != before.Sample {
		t.Fatalf("fixture: the append should touch %v's shard and keep its sample", cellSharedB)
	}
	if afterRebuilt.Sample == beforeRebuilt.Sample {
		t.Fatalf("fixture: the append should rebuild %v's sample", cellNeighbour)
	}
	if afterRebuilt.Wire == beforeRebuilt.Wire || afterRebuilt.Wire.Filled() != nil {
		t.Fatal("a rebuilt sample did not get a fresh, empty cell")
	}

	resp, body := doQuery(t, ts.URL+"/v1/query", survivor, map[string]string{"Accept-Encoding": "gzip", "If-None-Match": survivorTag})
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") == survivorTag {
		t.Fatalf("surviving sample: status %d, ETag %q (was %q)", resp.StatusCode, resp.Header.Get("ETag"), survivorTag)
	}
	if !bytes.Equal(body, survivorBody) {
		t.Fatal("surviving sample served different bytes after the append")
	}
	if got := after.Wire.Filled(); got != seg || &got.Deflate[0] != &seg.Deflate[0] {
		t.Fatal("surviving sample was re-encoded: its cell no longer holds the same backing slice")
	}

	resp, body = doQuery(t, ts.URL+"/v1/query", rebuilt, map[string]string{"Accept-Encoding": "gzip", "If-None-Match": rebuiltTag})
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") == rebuiltTag || bytes.Equal(body, rebuiltBody) {
		t.Fatalf("rebuilt sample: status %d, ETag %q (was %q), same bytes: %v", resp.StatusCode, resp.Header.Get("ETag"), rebuiltTag, bytes.Equal(body, rebuiltBody))
	}
	if !bytes.Equal(readMember(t, body), wantQueryBody(afterRebuilt)) {
		t.Fatal("rebuilt sample's body is not its identity encoding")
	}
	if afterRebuilt.Wire.Filled() == nil {
		t.Fatal("serving the rebuilt sample did not fill its cell")
	}
}

// A viewport body carries each physical sample once: the global sample
// and a persisted one, each reached through two shards, are one payload
// apiece, and every result points at its own cell's sample — with and
// without the viewport tier, gzip or not. Results keep their per-shard
// stamps.
func TestViewportShipsEachSampleOnce(t *testing.T) {
	for _, cacheBytes := range []int64{DefaultCacheBytes, 0} {
		_, ts, cube := newCubeServer(t, WithCacheBytes(cacheBytes))
		g1, g2 := mustQuery(t, cube, cellGlobal), mustQuery(t, cube, cellGlobalB)
		if !g1.FromGlobal || !g2.FromGlobal || g1.Shard == g2.Shard {
			t.Fatalf("fixture: %v and %v should reach the global sample through two shards", cellGlobal, cellGlobalB)
		}
		a, b := mustQuery(t, cube, cellSharedA), mustQuery(t, cube, cellSharedB)
		if a.FromGlobal || a.Sample != b.Sample || a.Shard == b.Shard {
			t.Fatalf("fixture: %v and %v should reach one persisted sample through two shards", cellSharedA, cellSharedB)
		}
		results, err := cube.QueryBatchByValues(context.Background(), viewportSamplesTwice)
		if err != nil {
			t.Fatal(err)
		}
		samples := make(map[*tabula.Table]bool)
		for _, res := range results {
			samples[res.Sample] = true
		}

		for _, hdr := range []map[string]string{nil, acceptGzip} {
			resp, raw := doQuery(t, ts.URL+"/v1/query/batch", map[string]any{"cube": "c", "queries": viewportSamplesTwice}, hdr)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}
			body := raw
			if resp.Header.Get("Content-Encoding") == "gzip" {
				body = readMember(t, raw)
			}
			var got struct {
				Results []struct {
					Payload    int    `json:"payload"`
					Shard      int    `json:"shard"`
					Generation uint64 `json:"generation"`
					FromGlobal bool   `json:"from_global"`
				} `json:"results"`
				Payloads []json.RawMessage `json:"payloads"`
			}
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			if len(got.Payloads) != len(samples) || len(got.Results) != len(results) {
				t.Fatalf("cache %d, %v: %d payloads for %d distinct samples, %d results for %d cells",
					cacheBytes, hdr, len(got.Payloads), len(samples), len(got.Results), len(results))
			}
			for i, r := range got.Results {
				res := results[i]
				if r.Shard != res.Shard || r.Generation != res.Generation || r.FromGlobal != res.FromGlobal {
					t.Fatalf("result %d stamped %+v, the cell answered shard %d generation %d global %v", i, r, res.Shard, res.Generation, res.FromGlobal)
				}
				if !bytes.Equal(got.Payloads[r.Payload], appendTableJSON(nil, res.Sample)) {
					t.Fatalf("result %d points at payload %d, which is not its own sample", i, r.Payload)
				}
			}
		}
	}
}

// Registering another cube under a taken name serves the new cube's
// bytes at once: its answers are the ones a fresh server gives, under
// the fresh server's ETags, and no ETag of the replaced cube earns a
// 304 — single cells and viewports, gzip and identity, with the
// viewport tier and without.
func TestReplacedCubeServesItsOwnBytes(t *testing.T) {
	var viewport []map[string]string
	for _, p := range []string{"", "cash", "credit", "dispute", "no charge"} {
		for _, v := range []string{"", "CMT", "VTS", "DDS"} {
			where := map[string]string{}
			if p != "" {
				where["payment_type"] = p
			}
			if v != "" {
				where["vendor_name"] = v
			}
			viewport = append(viewport, where)
		}
	}
	requests := []struct {
		path string
		body map[string]any
	}{
		{"/v1/query", map[string]any{"cube": "c", "where": cellGlobal}},
		{"/v1/query/batch", map[string]any{"cube": "c", "queries": viewport}},
	}
	encodings := []string{"gzip", "identity"}
	for _, cacheBytes := range []int64{DefaultCacheBytes, 0} {
		s, ts, _ := newCubeServer(t, WithCacheBytes(cacheBytes))
		type answer struct {
			etag string
			body []byte
		}
		var old []answer
		for _, rq := range requests {
			for _, enc := range encodings {
				resp, body := doQuery(t, ts.URL+rq.path, rq.body, map[string]string{"Accept-Encoding": enc})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: status %d", rq.path, resp.StatusCode)
				}
				old = append(old, answer{resp.Header.Get("ETag"), body})
			}
		}

		replacement := buildTaxiCube(t, 99)
		s.db.RegisterCube("c", replacement)
		db := tabula.Open()
		db.RegisterCube("c", replacement)
		fresh := httptest.NewServer(New(db, WithCacheBytes(cacheBytes)))
		t.Cleanup(fresh.Close)
		k := 0
		for _, rq := range requests {
			for _, enc := range encodings {
				was := old[k]
				k++
				resp, body := doQuery(t, ts.URL+rq.path, rq.body, map[string]string{"Accept-Encoding": enc, "If-None-Match": was.etag})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("cache %d, %s %s: status %d for the replaced cube's ETag %s", cacheBytes, rq.path, enc, resp.StatusCode, was.etag)
				}
				if bytes.Equal(body, was.body) {
					t.Fatalf("cache %d, %s %s: the replaced cube's body was served", cacheBytes, rq.path, enc)
				}
				wantResp, want := doQuery(t, fresh.URL+rq.path, rq.body, map[string]string{"Accept-Encoding": enc})
				if !bytes.Equal(body, want) || resp.Header.Get("ETag") != wantResp.Header.Get("ETag") {
					t.Fatalf("cache %d, %s %s: the body (ETag %s) is not a fresh server's (ETag %s)",
						cacheBytes, rq.path, enc, resp.Header.Get("ETag"), wantResp.Header.Get("ETag"))
				}
			}
		}
	}
}

// fetched is one response of fetchAll.
type fetched struct {
	body           []byte
	etag, encoding string
}

// viewportSamplesTwice reaches the global sample and one persisted
// sample each through two shards, besides an empty and an iceberg cell.
var viewportSamplesTwice = []map[string]string{cellGlobal, cellSharedA, cellEmpty, cellSharedB, cellIceberg, cellGlobalB, cellGlobal}

// fetchAll requests every body with gzip and without, returning the
// responses in a fixed order.
func fetchAll(t *testing.T, url string) []fetched {
	t.Helper()
	var out []fetched
	for _, hdr := range []map[string]string{acceptGzip, nil} {
		for _, where := range []map[string]string{cellIceberg, cellGlobal, cellEmpty, cellSharedA, cellSharedB, cellNeighbour} {
			resp, body := doQuery(t, url+"/v1/query", map[string]any{"cube": "c", "where": where}, hdr)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%v: status %d", where, resp.StatusCode)
			}
			out = append(out, fetched{body, resp.Header.Get("ETag"), resp.Header.Get("Content-Encoding")})
		}
		resp, body := doQuery(t, url+"/v1/query/batch", map[string]any{"cube": "c", "queries": viewportSamplesTwice}, hdr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch: status %d", resp.StatusCode)
		}
		out = append(out, fetched{body, resp.Header.Get("ETag"), resp.Header.Get("Content-Encoding")})
	}
	return out
}

// A cube restored by Load starts with empty cells and fills them with
// the bytes the saved cube served: same bodies, compressed or not —
// viewports that reach one sample through several shards included —
// under new validators, since the loaded cube is another instance.
func TestSaveLoadServesIdenticalBytes(t *testing.T) {
	_, ts, cube := newCubeServer(t)
	want := fetchAll(t, ts.URL)

	var file bytes.Buffer
	if err := cube.Save(&file); err != nil {
		t.Fatal(err)
	}
	loaded, err := tabula.LoadCube(&file)
	if err != nil {
		t.Fatal(err)
	}
	if st := loaded.WireStats(); st.CellsFilled != 0 || st.Bytes != 0 {
		t.Fatalf("a loaded cube starts with %+v, want empty cells", st)
	}
	db := tabula.Open()
	db.RegisterCube("c", loaded)
	ts2 := httptest.NewServer(New(db))
	defer ts2.Close()
	got := fetchAll(t, ts2.URL)
	for i := range want {
		if !bytes.Equal(got[i].body, want[i].body) || got[i].encoding != want[i].encoding {
			t.Fatalf("response %d differs after Save → Load:\n got %.200q (%s)\nwant %.200q (%s)", i, got[i].body, got[i].encoding, want[i].body, want[i].encoding)
		}
		if got[i].etag == want[i].etag {
			t.Fatalf("response %d: the loaded cube answers under the saved cube's ETag %s", i, got[i].etag)
		}
	}
	if st := loaded.WireStats(); st != cube.WireStats() {
		t.Fatalf("loaded cube holds %+v, the saved one %+v", st, cube.WireStats())
	}
}

// Assembly is deterministic: with the viewport cache off, so that every
// body is stitched (and its envelope compressed) per request by whatever
// pooled compressor comes up, equal ETags still mean byte-equal bodies.
func TestEqualETagMeansEqualBytesWithoutCache(t *testing.T) {
	_, ts, _ := newCubeServer(t, WithCacheBytes(0))
	first := fetchAll(t, ts.URL)
	for round := 0; round < 5; round++ {
		// Leave other history in the pooled compressors between rounds.
		doQuery(t, ts.URL+"/v1/query/batch", map[string]any{"cube": "c",
			"queries": []map[string]string{cellNeighbour, cellGlobal, cellEmpty}[:1+round%3]}, acceptGzip)
		again := fetchAll(t, ts.URL)
		for i := range first {
			if !bytes.Equal(again[i].body, first[i].body) || again[i].etag != first[i].etag || again[i].encoding != first[i].encoding {
				t.Fatalf("round %d: response part %d changed between identical requests", round, i)
			}
		}
	}
}
