package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"

	"github.com/tabula-db/tabula"
	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/geo"
)

const checkViewports = 8

// checker runs the correctness checks of one run, outside the timed phases.
// Every check counts as an attempted operation and every violation as a
// failed one.
type checker struct {
	e                 *env
	attempted, failed int
	firstErr          string
}

func (k *checker) fail(format string, args ...any) {
	k.failed++
	if k.firstErr == "" {
		k.firstErr = fmt.Sprintf(format, args...)
	}
}

// post sends an identity-encoded request and returns the decoded body.
func (k *checker) post(path string, body []byte, into any) error {
	resp, err := k.e.hc.Post(k.e.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", path, resp.StatusCode, raw)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	return dec.Decode(into)
}

type wireTable struct {
	Rows    [][]any `json:"rows"`
	NumRows int     `json:"num_rows"`
}

type wireQuery struct {
	Sample     wireTable `json:"sample"`
	FromGlobal bool      `json:"from_global"`
}

func wireFloat(v any) (float64, error) {
	if v == nil {
		return math.NaN(), nil // the encoder writes non-finite floats as null
	}
	n, ok := v.(json.Number)
	if !ok {
		return 0, fmt.Errorf("want a number, got %T", v)
	}
	return n.Float64()
}

// tableOf rebuilds a sample table from its wire form.
func tableOf(schema dataset.Schema, wt wireTable) (*dataset.Table, error) {
	if wt.NumRows != len(wt.Rows) {
		return nil, fmt.Errorf("num_rows %d for %d rows", wt.NumRows, len(wt.Rows))
	}
	t := dataset.NewTable(schema)
	vals := make([]dataset.Value, len(schema))
	for ri, row := range wt.Rows {
		if len(row) != len(schema) {
			return nil, fmt.Errorf("row %d has %d values, schema has %d", ri, len(row), len(schema))
		}
		for c, f := range schema {
			var err error
			switch f.Type {
			case dataset.Int64:
				n, ok := row[c].(json.Number)
				if !ok {
					return nil, fmt.Errorf("row %d column %s: want an integer, got %T", ri, f.Name, row[c])
				}
				var i int64
				i, err = strconv.ParseInt(n.String(), 10, 64)
				vals[c] = dataset.IntValue(i)
			case dataset.Float64:
				var x float64
				x, err = wireFloat(row[c])
				vals[c] = dataset.FloatValue(x)
			case dataset.String:
				s, ok := row[c].(string)
				if !ok {
					return nil, fmt.Errorf("row %d column %s: want a string, got %T", ri, f.Name, row[c])
				}
				vals[c] = dataset.StringValue(s)
			case dataset.Point:
				xy, ok := row[c].([]any)
				if !ok || len(xy) != 2 {
					return nil, fmt.Errorf("row %d column %s: want [lon, lat]", ri, f.Name)
				}
				var p geo.Point
				if p.X, err = wireFloat(xy[0]); err == nil {
					p.Y, err = wireFloat(xy[1])
				}
				vals[c] = dataset.PointValue(p)
			}
			if err != nil {
				return nil, fmt.Errorf("row %d column %s: %w", ri, f.Name, err)
			}
		}
		if err := t.AppendRow(vals...); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// rowIndex maps every raw row to its domain index per cubed attribute, so
// selecting a cell's raw rows is integer comparisons.
func rowIndex(t *dataset.Table, domains [][]string) [][]int32 {
	attrs := cubedAttrs()
	out := make([][]int32, len(attrs))
	for ai, name := range attrs {
		col := t.Schema().ColumnIndex(name)
		codes := make([]int32, t.NumRows())
		for r := range codes {
			// A value outside the domain (there is none: appends are
			// checked) lands on an index whose value differs, or past
			// the end, and so matches no predicate wrongly.
			v := t.Value(r, col).String()
			k := sort.SearchStrings(domains[ai], v)
			if k == len(domains[ai]) || domains[ai][k] != v {
				k = -1
			}
			codes[r] = int32(k)
		}
		out[ai] = codes
	}
	return out
}

// checkGuarantee verifies the paper's one-sentence guarantee against raw
// data: for seed-chosen cells, the sample served over /v1/query has
// loss(raw rows of the cell, sample) ≤ θ — whether it is the cell's own
// sample or the global one.
func (k *checker) checkGuarantee(cells int, rng *rand.Rand) {
	e := k.e
	index := rowIndex(e.table, e.preds.domains)
	attrs := cubedAttrs()
	for n := 0; n < cells; n++ {
		k.attempted++
		qi := rng.Intn(len(e.preds.where))
		where := e.preds.where[qi]
		var got wireQuery
		if err := k.post("/v1/query", e.preds.bodies[qi], &got); err != nil {
			k.fail("guarantee check: %v", err)
			continue
		}
		sample, err := tableOf(e.table.Schema(), got.Sample)
		if err != nil {
			k.fail("guarantee check: cell %v: %v", where, err)
			continue
		}
		want := make([]int32, len(attrs))
		for ai, name := range attrs {
			want[ai] = -1
			if v, ok := where[name]; ok {
				want[ai] = int32(sort.SearchStrings(e.preds.domains[ai], v)) // Q only holds domain values
			}
		}
		var rows []int32
		for r := 0; r < e.table.NumRows(); r++ {
			match := true
			for ai := range attrs {
				if want[ai] >= 0 && index[ai][r] != want[ai] {
					match = false
					break
				}
			}
			if match {
				rows = append(rows, int32(r))
			}
		}
		l := e.w.lossFunc.Loss(dataset.NewView(e.table, rows), dataset.FullView(sample))
		if !(l <= e.w.theta*(1+1e-9)) {
			k.fail("guarantee violated: cell %v (from_global=%v, %d raw rows, %d sample rows) has loss %g > θ=%g",
				where, got.FromGlobal, len(rows), sample.NumRows(), l, e.w.theta)
		}
	}
}

type wireBatch struct {
	Results []struct {
		Payload int `json:"payload"`
	} `json:"results"`
	Payloads []wireTable `json:"payloads"`
}

// checkViewports verifies that a batch answers every cell, that each result
// points at a shipped payload, and — in process, where the snapshot version
// is visible — that all results of one batch share one version.
func (k *checker) checkViewports() {
	e := k.e
	for vi := 0; vi < checkViewports && vi < len(e.traffic.viewports); vi++ {
		k.attempted++
		v := e.traffic.viewports[vi]
		var got wireBatch
		if err := k.post("/v1/query/batch", v.body, &got); err != nil {
			k.fail("viewport check: %v", err)
			continue
		}
		if len(got.Results) != len(v.cells) {
			k.fail("viewport check: %d results for %d cells", len(got.Results), len(v.cells))
			continue
		}
		for _, r := range got.Results {
			if r.Payload < 0 || r.Payload >= len(got.Payloads) {
				k.fail("viewport check: result references payload %d of %d", r.Payload, len(got.Payloads))
				break
			}
		}
		resp, err := e.db.Do(context.Background(), tabula.QueryRequest{Cube: cubeName, Batch: v.cells})
		if err != nil {
			k.fail("viewport check: %v", err)
			continue
		}
		for _, r := range resp.Results {
			if r.Version != resp.Results[0].Version {
				k.fail("viewport check: one batch mixes snapshot versions %d and %d", resp.Results[0].Version, r.Version)
				break
			}
		}
	}
}

// checkVersion verifies that the cube's version is 1 plus the number of
// acknowledged appends.
func (k *checker) checkVersion(acked int) uint64 {
	k.attempted++
	var cache struct {
		Cubes map[string]struct {
			Version uint64 `json:"version"`
		} `json:"cubes"`
	}
	if err := k.e.getJSON("/v1/cache", &cache); err != nil {
		k.fail("version check: %v", err)
		return 0
	}
	v := cache.Cubes[cubeName].Version
	if v != uint64(1+acked) {
		k.fail("version check: cube version %d after %d acknowledged appends", v, acked)
	}
	return v
}
