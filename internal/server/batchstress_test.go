package server

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
)

// Concurrent batch viewports during appends, with the response cache
// disabled so EVERY request assembles its body — first touches of the
// samples each append rebuilds included — against snapshots that are
// being republished underneath it. Run under -race via `make check`;
// each response must still be a complete, well-formed viewport whose
// payload references are in range.
func TestConcurrentBatchAssemblyDuringAppends(t *testing.T) {
	_, ts, _ := newCubeServer(t, WithCacheBytes(0))

	payments := []string{"cash", "credit", "dispute", "no charge", "unknown"}
	vendors := []string{"CMT", "VTS", "DDS"}
	var queries []map[string]string
	for _, p := range payments {
		queries = append(queries, map[string]string{"payment_type": p})
		for _, v := range vendors {
			queries = append(queries, map[string]string{"payment_type": p, "vendor_name": v})
		}
	}
	// Duplicates exercise the payload dedup; an unknown value resolves
	// through the legacy slow path to an empty-population cell.
	queries = append(queries, queries...)
	queries = append(queries, map[string]string{"payment_type": "barter"})

	stop := make(chan struct{})
	var appends sync.WaitGroup
	appends.Add(1)
	go func() {
		defer appends.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, raw := doQuery(t, ts.URL+"/append", map[string]any{
				"cube": "c",
				"rows": [][]string{
					{"DDS", "Wed", "3", "dispute", "standard", "N", "Wed", "7.5", "0", "0.8", "-73.97 40.76"},
				},
			}, nil)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("append: %d %s", resp.StatusCode, raw)
				return
			}
		}
	}()

	var clients sync.WaitGroup
	for c := 0; c < 4; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			for i := 0; i < 12; i++ {
				// Half the clients take the stitched gzip member, half the
				// inflated bytes.
				var hdr map[string]string
				if c%2 == 0 {
					hdr = acceptGzip
				}
				resp, body := doQuery(t, ts.URL+"/query/batch", map[string]any{"cube": "c", "queries": queries}, hdr)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("batch: %d %s", resp.StatusCode, body)
					return
				}
				if resp.Header.Get("Content-Encoding") == "gzip" {
					zr, err := gzip.NewReader(bytes.NewReader(body))
					if err == nil {
						body, err = io.ReadAll(zr)
					}
					if err != nil {
						t.Errorf("batch gzip body: %v", err)
						return
					}
				}
				var out struct {
					Results []struct {
						Payload int `json:"payload"`
					} `json:"results"`
					Payloads []json.RawMessage `json:"payloads"`
				}
				if err := json.Unmarshal(body, &out); err != nil {
					t.Errorf("batch body: %v", err)
					return
				}
				if len(out.Results) != len(queries) {
					t.Errorf("batch returned %d results for %d queries", len(out.Results), len(queries))
					return
				}
				for _, res := range out.Results {
					if res.Payload < 0 || res.Payload >= len(out.Payloads) {
						t.Errorf("payload index %d out of range [0,%d)", res.Payload, len(out.Payloads))
						return
					}
				}
			}
		}(c)
	}
	clients.Wait()
	close(stop)
	appends.Wait()
}
