package server

import (
	"bytes"
	"io"
	"net/http"
	"testing"

	"github.com/tabula-db/tabula/internal/obs"
)

// The /v1 surface and its legacy unversioned aliases must answer
// byte-identically — same handler, same bytes, same ETags — with the
// legacy path additionally marked deprecated. These tests pin that
// contract, including cross-surface ETag revalidation (a dashboard
// migrated to /v1 keeps its conditional-request cache warm).

func buildWebCube(t *testing.T, ts string) {
	t.Helper()
	resp, out := postJSON(t, ts+"/v1/exec", map[string]string{"sql": `
		CREATE TABLE web_cube AS
		SELECT payment_type, vendor_name, SAMPLING(*, 0.1) AS sample
		FROM nyctaxi
		GROUPBY CUBE(payment_type, vendor_name)
		HAVING mean_loss(fare_amount, Sam_global) > 0.1`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exec: %d %v", resp.StatusCode, out)
	}
}

// do issues one request and returns the response with its body read.
func do(t *testing.T, method, url string, body []byte, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestV1LegacyEquivalence(t *testing.T) {
	_, ts := newTestServer(t)
	buildWebCube(t, ts.URL)

	cases := []struct {
		method string
		v1     string
		legacy string
		body   string
	}{
		{"POST", "/v1/query", "/query", `{"cube":"web_cube","where":{"payment_type":"cash"}}`},
		{"POST", "/v1/query/batch", "/query/batch", `{"cube":"web_cube","queries":[{"payment_type":"cash"},{"payment_type":"credit"}]}`},
		{"GET", "/v1/cubes", "/cubes", ""},
		{"GET", "/v1/stats?cube=web_cube", "/stats?cube=web_cube", ""},
		{"GET", "/v1/cache", "/cache", ""},
	}
	for _, tc := range cases {
		var body []byte
		if tc.body != "" {
			body = []byte(tc.body)
		}
		v1Resp, v1Body := do(t, tc.method, ts.URL+tc.v1, body, nil)
		lgResp, lgBody := do(t, tc.method, ts.URL+tc.legacy, body, nil)

		if v1Resp.StatusCode != lgResp.StatusCode {
			t.Errorf("%s: status v1=%d legacy=%d", tc.v1, v1Resp.StatusCode, lgResp.StatusCode)
		}
		// Every route compared is deterministic: /cache reports the
		// cubes' generation vectors, which reads do not move.
		if !bytes.Equal(v1Body, lgBody) {
			t.Errorf("%s: bodies differ:\nv1:     %.200s\nlegacy: %.200s", tc.v1, v1Body, lgBody)
		}
		if v1, lg := v1Resp.Header.Get("ETag"), lgResp.Header.Get("ETag"); v1 != lg {
			t.Errorf("%s: ETag v1=%q legacy=%q", tc.v1, v1, lg)
		}

		// Deprecation marking: legacy only.
		if got := lgResp.Header.Get("Deprecation"); got != "true" {
			t.Errorf("%s: legacy Deprecation header %q", tc.legacy, got)
		}
		wantLink := "<" + trimQuery(tc.v1) + `>; rel="successor-version"`
		if got := lgResp.Header.Get("Link"); got != wantLink {
			t.Errorf("%s: legacy Link %q, want %q", tc.legacy, got, wantLink)
		}
		if got := v1Resp.Header.Get("Deprecation"); got != "" {
			t.Errorf("%s: v1 route carries Deprecation %q", tc.v1, got)
		}
	}
}

func trimQuery(p string) string {
	if i := bytes.IndexByte([]byte(p), '?'); i >= 0 {
		return p[:i]
	}
	return p
}

// TestV1LegacyETagRevalidation: an ETag obtained on one surface
// revalidates on the other — identity is a property of the payload, not
// the path.
func TestV1LegacyETagRevalidation(t *testing.T) {
	_, ts := newTestServer(t)
	buildWebCube(t, ts.URL)
	body := []byte(`{"cube":"web_cube","where":{"payment_type":"cash"}}`)

	v1Resp, _ := do(t, "POST", ts.URL+"/v1/query", body, nil)
	etag := v1Resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("v1 query returned no ETag")
	}
	for _, path := range []string{"/query", "/v1/query"} {
		resp, respBody := do(t, "POST", ts.URL+path, body, map[string]string{"If-None-Match": etag})
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("%s with v1 ETag: status %d", path, resp.StatusCode)
		}
		if len(respBody) != 0 {
			t.Fatalf("%s: 304 carried a %d-byte body", path, len(respBody))
		}
	}
	// And a legacy-obtained ETag revalidates on v1.
	lgResp, _ := do(t, "POST", ts.URL+"/query", body, nil)
	resp, _ := do(t, "POST", ts.URL+"/v1/query", body, map[string]string{"If-None-Match": lgResp.Header.Get("ETag")})
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("v1 with legacy ETag: status %d", resp.StatusCode)
	}
}

// TestV1AppendAlias: both append paths ingest; the legacy one is
// deprecated.
func TestV1AppendAlias(t *testing.T) {
	reg, ts := newMetricsServer(t)
	row := `{"cube":"c","rows":[["CMT","Mon","1","cash","standard","N","Mon","12.5","0","2.3","-73.98 40.75"]]}`
	for i, path := range []string{"/v1/append", "/append"} {
		resp, body := do(t, "POST", ts.URL+path, []byte(row), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", path, resp.StatusCode, body)
		}
		if dep := resp.Header.Get("Deprecation"); (dep == "true") != (i == 1) {
			t.Fatalf("%s: Deprecation %q", path, dep)
		}
	}
	// Both aliases fed the same cube counters.
	if v, ok := reg.Value("tabula_append_total", obs.Label{Name: "cube", Value: "c"}); !ok || v != 2 {
		t.Fatalf("append_total after both aliases: %v, %v", v, ok)
	}
}
