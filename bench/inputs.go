package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"sort"

	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/nyctaxi"
)

// Request kinds, also the index into per-kind arrays.
const (
	kQuery = iota
	kViewport
	numKinds
)

var kindPath = [numKinds]string{"/v1/query", "/v1/query/batch"}

// request is one scheduled read: a kind and an index into that kind's
// pre-marshalled bodies.
type request struct {
	kind uint8
	key  int32
}

// predicates is the query universe Q of one table: every conjunctive
// equality predicate over the cubed attributes (each attribute absent or one
// of its domain values), shuffled — the order is the popularity rank of hot
// traffic — with the JSON body of the /v1/query request for each. Like the
// table it is fixed by dataSeed: which cells are popular decides how large
// the popular payloads are, and that should not differ between two runs
// whose numbers are compared.
type predicates struct {
	domains [][]string // per cubed attribute: sorted display values
	where   []map[string]string
	bodies  [][]byte
}

// attrDomains lists the distinct display values of each cubed attribute.
func attrDomains(t *dataset.Table) [][]string {
	attrs := cubedAttrs()
	out := make([][]string, len(attrs))
	for ai, name := range attrs {
		col := t.Schema().ColumnIndex(name)
		seen := make(map[string]bool)
		for r := 0; r < t.NumRows(); r++ {
			seen[t.Value(r, col).String()] = true
		}
		vals := make([]string, 0, len(seen))
		for v := range seen {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		out[ai] = vals
	}
	return out
}

func makePredicates(t *dataset.Table) (*predicates, error) {
	rng := rand.New(rand.NewSource(dataSeed))
	p := &predicates{domains: attrDomains(t)}
	attrs := cubedAttrs()
	var walk func(ai int, cur map[string]string)
	walk = func(ai int, cur map[string]string) {
		if ai == len(attrs) {
			w := make(map[string]string, len(cur))
			for k, v := range cur {
				w[k] = v
			}
			p.where = append(p.where, w)
			return
		}
		walk(ai+1, cur)
		for _, v := range p.domains[ai] {
			cur[attrs[ai]] = v
			walk(ai+1, cur)
		}
		delete(cur, attrs[ai])
	}
	walk(0, map[string]string{})
	rng.Shuffle(len(p.where), func(i, j int) { p.where[i], p.where[j] = p.where[j], p.where[i] })
	p.bodies = make([][]byte, len(p.where))
	for i, w := range p.where {
		b, err := json.Marshal(map[string]any{"cube": cubeName, "where": w})
		if err != nil {
			return nil, err
		}
		p.bodies[i] = b
	}
	return p, nil
}

// viewport is one /v1/query/batch request: its cells and its JSON body.
type viewport struct {
	cells []map[string]string
	body  []byte
}

// makeViewport draws viewportCells cells from pool (indexes into p.where).
func makeViewport(p *predicates, pool []int32, rng *rand.Rand) (viewport, error) {
	v := viewport{cells: make([]map[string]string, viewportCells)}
	for i := range v.cells {
		v.cells[i] = p.where[pool[rng.Intn(len(pool))]]
	}
	b, err := json.Marshal(map[string]any{"cube": cubeName, "queries": v.cells})
	if err != nil {
		return viewport{}, err
	}
	v.body = b
	return v, nil
}

// traffic is everything the read side sends, fixed before the first timed
// request: bodies, the paced schedule, and one cyclic sequence per
// closed-loop client.
type traffic struct {
	viewports []viewport
	paced     []request
	closed    [][]request
}

const closedSeqLen = 4096

// makeTraffic draws the workload's read schedule from rng, the run's seed.
// pool is the set of cells reads are drawn from (all of Q when hot, the
// iceberg cells otherwise). Hot traffic picks cells and viewports by zipf
// rank, from 32 viewports that are as fixed as Q is; cold traffic walks
// shuffles of the pool and never repeats a viewport within the paced phase.
func makeTraffic(w *workload, p *predicates, pool []int32, nPaced int, rng *rand.Rand) (*traffic, error) {
	if len(pool) == 0 {
		return nil, fmt.Errorf("no cells to draw reads from")
	}
	tr := &traffic{}
	addViewport := func(rng *rand.Rand) (int32, error) {
		v, err := makeViewport(p, pool, rng)
		if err != nil {
			return 0, err
		}
		tr.viewports = append(tr.viewports, v)
		return int32(len(tr.viewports) - 1), nil
	}
	var cellZipf, viewZipf *rand.Zipf
	var coldOrder []int
	coldNext := 0
	if w.hot {
		fixed := rand.New(rand.NewSource(dataSeed))
		for i := 0; i < fixedViewport; i++ {
			if _, err := addViewport(fixed); err != nil {
				return nil, err
			}
		}
		cellZipf = rand.NewZipf(rng, zipfS, 1, uint64(len(pool)-1))
		viewZipf = rand.NewZipf(rng, zipfS, 1, fixedViewport-1)
	}
	// Every tenth read is a viewport, so that the mix is exactly 90/10 in
	// every run, however short.
	draw := func(i int) (request, error) {
		if i%10 == 9 {
			if w.hot {
				return request{kind: kViewport, key: int32(viewZipf.Uint64())}, nil
			}
			key, err := addViewport(rng)
			return request{kind: kViewport, key: key}, err
		}
		if w.hot {
			return request{kind: kQuery, key: pool[cellZipf.Uint64()]}, nil
		}
		// Cold reads walk a shuffle of the pool, over and over: uniform, but
		// every run reads every cell about equally often, so that the median
		// over cells whose payloads differ a hundredfold in size does not
		// depend on which ones a seed happened to draw, and no cell comes
		// back while the small cache could still hold it.
		if coldNext == 0 {
			coldOrder = rng.Perm(len(pool))
		}
		key := pool[coldOrder[coldNext]]
		coldNext = (coldNext + 1) % len(pool)
		return request{kind: kQuery, key: key}, nil
	}
	seq := func(n int) ([]request, error) {
		out := make([]request, n)
		for i := range out {
			r, err := draw(i)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}
	var err error
	if tr.paced, err = seq(nPaced); err != nil {
		return nil, err
	}
	tr.closed = make([][]request, maxConns)
	for c := range tr.closed {
		if tr.closed[c], err = seq(closedSeqLen); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// appendBody returns the i-th /v1/append batch: appendRows generated rows in
// display form. A categorical value outside the cube's domains would leave
// the cube read-only, so such a row is an input error, not something to send.
func appendBody(seed int64, i int, domains [][]string) ([]byte, error) {
	t := nyctaxi.Generate(appendRows, seed+1000+int64(i))
	attrs := cubedAttrs()
	rows := make([][]string, t.NumRows())
	for r := range rows {
		row := make([]string, t.NumCols())
		for c := range row {
			row[c] = t.Value(r, c).String()
		}
		for ai, name := range attrs {
			v := row[t.Schema().ColumnIndex(name)]
			if k := sort.SearchStrings(domains[ai], v); k == len(domains[ai]) || domains[ai][k] != v {
				return nil, fmt.Errorf("append batch %d row %d: %s=%q is outside the base table's domain", i, r, name, v)
			}
		}
		rows[r] = row
	}
	return json.Marshal(map[string]any{"cube": cubeName, "rows": rows})
}

// inputHasher accumulates inputs_sha256 over every input: the raw table, the
// query universe, the read schedule and the append batches.
type inputHasher struct{ h hash.Hash }

func newInputHasher() *inputHasher { return &inputHasher{h: sha256.New()} }

func (ih *inputHasher) sum() string { return hex.EncodeToString(ih.h.Sum(nil)) }

func (ih *inputHasher) bytes(b []byte) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
	ih.h.Write(n[:])
	ih.h.Write(b)
}

func (ih *inputHasher) table(t *dataset.Table) {
	buf := make([]byte, 0, 16*t.NumRows())
	for c, f := range t.Schema() {
		buf = buf[:0]
		switch f.Type {
		case dataset.Int64:
			for _, v := range t.Ints(c) {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
			}
		case dataset.Float64:
			for _, v := range t.Floats(c) {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		case dataset.Point:
			for _, p := range t.Points(c) {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.X))
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Y))
			}
		case dataset.String:
			codes, dict := t.StringCodes(c)
			for _, s := range dict {
				ih.bytes([]byte(s))
			}
			for _, code := range codes {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(code))
			}
		}
		ih.bytes([]byte(f.Name))
		ih.bytes(buf)
	}
}

func (ih *inputHasher) traffic(p *predicates, tr *traffic) {
	for _, b := range p.bodies {
		ih.bytes(b)
	}
	for _, v := range tr.viewports {
		ih.bytes(v.body)
	}
	seqs := append([][]request{tr.paced}, tr.closed...)
	for _, seq := range seqs {
		buf := make([]byte, 0, 5*len(seq))
		for _, r := range seq {
			buf = append(buf, r.kind)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(r.key))
		}
		ih.bytes(buf)
	}
}
