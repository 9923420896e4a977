package server

import (
	"bytes"
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"strings"
	"testing"
)

// queryRequest and batchRequest are the two request bodies as
// encoding/json structs: the oracle the hand-written decoder is held to.
type queryRequest struct {
	Cube  string            `json:"cube"`
	Where map[string]string `json:"where"`
}

type batchRequest struct {
	Cube    string              `json:"cube"`
	Queries []map[string]string `json:"queries"`
}

// sameCell compares two predicate maps, nil apart from empty.
func sameCell(a, b map[string]string) bool {
	return (a == nil) == (b == nil) && maps.Equal(a, b)
}

// checkDecode decodes body as both request shapes, through pooled
// scratch (so state left over from earlier bodies would show), and
// holds each result to json.Unmarshal: the same accept/reject decision
// and, when accepted, the same cube and the same cells.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()

	var q queryRequest
	wantErr := json.Unmarshal(body, &q)
	qb := getQueryBody()
	err := qb.decode(string(body), false)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("query body %q: decoder error %v, encoding/json error %v", body, err, wantErr)
	}
	if err == nil && (qb.cube != q.Cube || !sameCell(qb.where, q.Where)) {
		t.Fatalf("query body %q: decoded cube %q where %v, encoding/json says %q %v", body, qb.cube, qb.where, q.Cube, q.Where)
	}
	putQueryBody(qb)

	var b batchRequest
	wantErr = json.Unmarshal(body, &b)
	qb = getQueryBody()
	err = qb.decode(string(body), true)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("batch body %q: decoder error %v, encoding/json error %v", body, err, wantErr)
	}
	if err == nil {
		if qb.cube != b.Cube || len(qb.cells) != len(b.Queries) {
			t.Fatalf("batch body %q: decoded cube %q, %d cells; encoding/json says %q, %d", body, qb.cube, len(qb.cells), b.Cube, len(b.Queries))
		}
		for i := range qb.cells {
			if !sameCell(qb.cells[i], b.Queries[i]) {
				t.Fatalf("batch body %q: cell %d decoded as %v, encoding/json says %v", body, i, qb.cells[i], b.Queries[i])
			}
		}
	}
	putQueryBody(qb)
}

// decodeSeeds cover the contract's corners: escapes and \u surrogates,
// invalid UTF-8, null cells and values, duplicate members, case-folded
// member names, unknown members of every JSON type, trailing bytes,
// wrong types and malformed JSON.
var decodeSeeds = []string{
	`{"cube":"c","where":{"payment_type":"cash","vendor_name":"CMT"}}`,
	`{"cube":"c","queries":[{"a":"1"},{"b":"2","c":"3"},{}]}`,
	` {"cube" : "c" ,"where":{ } } `,
	// Escapes and surrogates.
	`{"cube":"c\"\\\/\b\f\n\r\t\u00e9","where":{"k\u0041":"v\n"}}`,
	`{"cube":"\ud83d\ude00","where":{"a":"\ud800","b":"\udc00x","c":"\ud800\u0041","d":"\ud800\ud800\udc00","e":"\uDBFF\uDFFF"}}`,
	`{"queries":[{"\ud83d":"\ude00"}]}`,
	// Invalid UTF-8, in keys and values, as a literal U+FFFD, and inside
	// an otherwise escaped string.
	"{\"cube\":\"\xff\xfe\",\"where\":{\"\xc3\":\"\xed\xa0\x80\",\"\xef\xbf\xbd\":\"\\n\x80\"}}",
	"{\"queries\":[{\"a\xe2\x82\":\"ok\"}]}",
	// Nulls.
	`{"cube":null,"queries":[null,{"a":null},null]}`,
	`{"cube":"x","cube":null,"where":{"a":null}}`,
	`null`,
	` null `,
	// Duplicates: the last member wins, and repeated objects merge.
	`{"cube":"a","cube":"b","where":{"a":"1","a":"2"},"where":{"b":"3"}}`,
	`{"where":{"a":"1"},"where":null,"where":{"c":"3"}}`,
	`{"queries":[{"a":"1","a":"2"},{"x":"1"}],"queries":[{"b":"3"}],"queries":[{"c":"4"},{"d":"5"}]}`,
	`{"queries":[{"a":"1"},{"b":"2"}],"queries":[],"queries":[{"c":"3"},{"d":"4"}]}`,
	`{"queries":[{"a":"1"},{"b":"2"}],"queries":null,"queries":[{"c":"3"},{"d":"4"}]}`,
	`{"queries":[{"a":"1"},{"b":"2"}],"queries":[null],"queries":[{"c":"3"},{"d":"4"}]}`,
	// Case-folded member names.
	`{"Cube":"x","QUERIES":[{}],"Where":{"a":"b"}}`,
	`{"querieſ":[{"a":"b"}],"cuBE":"k","wHeRe":{"x":"y"}}`,
	`{"\u0043ube":"y","cubes":"z","cub":"w"}`,
	// Unknown members of every JSON type.
	`{"s":"x\u0000","n":-1.5e+10,"m":0,"e":1E-2,"t":true,"f":false,"z":null,"o":{"a":[1,{"b":[]}],"c":{}},"a":[],"cube":"c","queries":[{"a":"b"}],"where":{"a":"b"}}`,
	// Trailing bytes.
	`{"cube":"c"} x`,
	`{"cube":"c"}{}`,
	`{"cube":"c"}  ` + "\n\t\r",
	`{"cube":"c"},`,
	// Wrong types.
	``,
	` `,
	`[]`,
	`"c"`,
	`1`,
	`true`,
	`{"cube":1}`,
	`{"cube":{}}`,
	`{"where":[]}`,
	`{"where":"a"}`,
	`{"queries":{}}`,
	`{"queries":[1]}`,
	`{"queries":[[]]}`,
	`{"where":{"a":1}}`,
	`{"queries":[{"a":true}]}`,
	`{"queries":[{"a":{"b":"c"}}]}`,
	// Malformed JSON.
	`{"a":01}`,
	`{"a":1.}`,
	`{"a":-}`,
	`{"a":.5}`,
	`{"a":1e}`,
	`{"a":+1}`,
	"{\"a\":\"\x01\"}",
	`{"a":"\u12"}`,
	`{"a":"\u12G4"}`,
	`{"a":"\q"}`,
	`{"a":"\`,
	`{"a":"x`,
	`{"a",}`,
	`{"a":1,}`,
	`{"a":[1,]}`,
	`{"a":[1 2]}`,
	`{"a":nul}`,
	`{"a":nulll}`,
	`{"a":tru}`,
	`{'a':1}`,
	`{"cube":"c"`,
	`{"queries":[{"a":"b"}`,
	`[`,
	`{`,
	"\xef\xbb\xbf{}",
}

// deepBodies nest at and past the depth limit: the top-level object
// plus 9999 arrays is encoding/json's limit exactly; one more is
// rejected. They are too slow to mutate, so they are not fuzz seeds.
var deepBodies = []string{
	`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	`{"x":` + strings.Repeat(`{"y":`, 9999) + `1` + strings.Repeat("}", 9999) + `}`,
	`{"x":` + strings.Repeat(`{"y":`, 10000) + `1` + strings.Repeat("}", 10000) + `}`,
}

func TestDecodeQueryBodySeeds(t *testing.T) {
	for _, body := range append(decodeSeeds, deepBodies...) {
		checkDecode(t, []byte(body))
	}
}

// FuzzDecodeQueryBody holds the request decoder to json.Unmarshal into
// the old request structs on every input, as both body shapes.
func FuzzDecodeQueryBody(f *testing.F) {
	for _, body := range decodeSeeds {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
	})
}

// Keys and values that need no rewriting are substrings of the body,
// and the maps are the scratch's own: decoding through warm pooled
// scratch allocates nothing.
func TestDecodeAliasesTheBody(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	src := `{"cube":"c","queries":[{"a":"1","b":"2"},{"a":"3"}]}`
	allocs := testing.AllocsPerRun(100, func() {
		qb := getQueryBody()
		if err := qb.decode(src, true); err != nil || len(qb.cells) != 2 || qb.cells[0]["b"] != "2" {
			t.Fatalf("decode: %v, cells %v", err, qb.cells)
		}
		putQueryBody(qb)
	})
	if allocs != 0 {
		t.Fatalf("decoding a body without escapes into warm scratch: %v allocs, want 0", allocs)
	}
}

// postOverLimit posts a JSON body one string longer than limit to url,
// with a Content-Length and without one (chunked), and wants a 413 with
// the usual error shape both times.
func postOverLimit(t *testing.T, url string, limit int) {
	t.Helper()
	big := `{"cube":"c","pad":"` + strings.Repeat("x", limit) + `"}`
	for _, chunked := range []bool{false, true} {
		var body io.Reader = strings.NewReader(big)
		if chunked {
			body = io.MultiReader(body) // hides the length: sent chunked
		}
		req, err := http.NewRequest("POST", url, body)
		if err != nil {
			t.Fatal(err)
		}
		if chunked && req.ContentLength != 0 {
			t.Fatalf("request has Content-Length %d, want a chunked body", req.ContentLength)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]any
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || out["error"] == nil {
			t.Fatalf("%s chunked=%v: %d %v (%v), want 413 with an error", url, chunked, resp.StatusCode, out, err)
		}
	}
}

// A body past maxQueryBody is a 413 with the usual error shape on both
// routes, with a Content-Length or without one (chunked).
func TestQueryBodyLimit(t *testing.T) {
	_, ts, _ := newCubeServer(t)
	for _, path := range []string{"/v1/query", "/v1/query/batch"} {
		postOverLimit(t, ts.URL+path, maxQueryBody)
	}
	// A body just under the limit is read and decoded as usual.
	pad := maxQueryBody - len(`{"cube":"c","pad":""}`)
	resp, _ := doQuery(t, ts.URL+"/v1/query", map[string]any{"cube": "c", "pad": strings.Repeat("x", pad)}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("body of exactly maxQueryBody bytes: %d", resp.StatusCode)
	}
}

// /v1/exec and /v1/append bodies are bounded the same way, each by its
// own limit, and a body within it is still served.
func TestExecAndAppendBodyLimits(t *testing.T) {
	_, ts, _ := newCubeServer(t)
	postOverLimit(t, ts.URL+"/v1/exec", maxExecBody)
	postOverLimit(t, ts.URL+"/v1/append", maxAppendBody)

	resp, raw := doQuery(t, ts.URL+"/v1/exec", map[string]any{"sql": "SELECT sample FROM c WHERE payment_type = 'cash'"}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exec within the limit: %d %s", resp.StatusCode, raw)
	}
	resp, raw = doQuery(t, ts.URL+"/v1/append", map[string]any{"cube": "c", "rows": [][]string{
		{"CMT", "Wed", "1", "cash", "standard", "N", "Wed", "12", "1", "2.5", "-73.97 40.76"},
	}}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append within the limit: %d %s", resp.StatusCode, raw)
	}
}

// Trailing bytes after the request object are a 400 (json.Decoder used
// to ignore them).
func TestQueryBodyTrailingBytes(t *testing.T) {
	_, ts, _ := newCubeServer(t)
	for path, body := range map[string]string{
		"/v1/query":       `{"cube":"c","where":{}} {}`,
		"/v1/query/batch": `{"cube":"c","queries":[{}]}x`,
	} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s with trailing bytes: %d, want 400", path, resp.StatusCode)
		}
	}
}

// BenchmarkDecodeQueryBody decodes a 64-cell, five-attribute viewport
// body through pooled scratch.
func BenchmarkDecodeQueryBody(b *testing.B) {
	_, body := viewportServer(b)
	src := string(body)
	b.ReportAllocs()
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		qb := getQueryBody()
		if err := qb.decode(src, true); err != nil {
			b.Fatal(err)
		}
		putQueryBody(qb)
	}
}
