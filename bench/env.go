package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tabula-db/tabula"
	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/server"
)

// maxConns is the number of keep-alive connections the generator drives in
// the timed phases; it shares the host's cores with the server, so it never
// uses more than two.
const maxConns = 2

// env is one set-up system under test: a DB and server wired exactly as
// cmd/tabula-server wires them, listening on a loopback socket, plus the
// inputs derived from the seed.
type env struct {
	w    *workload
	seed int64

	table *dataset.Table // owned (and grown) by the cube once it is built
	reg   *tabula.MetricsRegistry
	db    *tabula.DB
	srv   *server.Server
	hs    *http.Server
	done  chan error // receives Serve's return value
	base  string
	hc    *http.Client    // set-up, scrapes and checks; never in a timed phase
	conns [maxConns]*conn // the dashboard connections every phase drives

	preds   *predicates
	pool    []int32 // cells reads are drawn from
	iceberg []int32 // Q_ice: cells answered from_global:false
	traffic *traffic
	// etags is the dashboard's validator memory, per kind and body index.
	etags [numKinds][]atomic.Pointer[string]

	stats cubeStats
}

// cubeStats is the subset of GET /v1/stats the benchmark reports.
type cubeStats struct {
	Cells             int   `json:"cells"`
	IcebergCells      int   `json:"iceberg_cells"`
	PersistedSamples  int   `json:"persisted_samples"`
	GlobalSampleBytes int64 `json:"global_sample_bytes"`
	CubeTableBytes    int64 `json:"cube_table_bytes"`
	SampleTableBytes  int64 `json:"sample_table_bytes"`
	TotalBytes        int64 `json:"total_bytes"`
}

// newEnv generates the table, opens the DB, and starts the server. It does
// not build the cube.
func newEnv(w *workload, seed int64, sz scale) (*env, error) {
	e := &env{w: w, seed: seed}
	var err error
	if e.table, err = w.makeTable(sz); err != nil {
		return nil, err
	}
	if e.preds, err = makePredicates(e.table); err != nil {
		return nil, err
	}
	e.reg = tabula.NewMetricsRegistry()
	e.db = tabula.Open(tabula.WithMetrics(e.reg),
		tabula.WithBuildParams(func(p *tabula.Params) { p.EnableAppend = true }))
	e.db.RegisterTable(tableName, e.table)
	e.srv = server.New(e.db, server.WithCacheBytes(w.cacheBytes), server.WithMetrics(e.reg))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.hs = &http.Server{Handler: e.srv}
	e.done = make(chan error, 1)
	go func() { e.done <- e.hs.Serve(ln) }()
	e.base = "http://" + ln.Addr().String()
	e.hc = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:    1,
		DisableCompression: true, // gzip is negotiated by hand
	}}
	for i := range e.conns {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, closeAfter(e, err)
		}
		e.conns[i] = &conn{e: e, nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc),
			revalidate: w.hot, buf: make([]byte, 0, 256<<10), seen: make(map[string]uint32)}
	}
	return e, nil
}

// close stops the server and waits for its serve loop to end.
func (e *env) close() error {
	for _, c := range e.conns {
		if c != nil {
			//lint:ignore droppederr nothing is in flight on the socket, and Shutdown below closes the server's end regardless
			_ = c.nc.Close()
		}
	}
	e.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serveErr := <-e.done; err == nil && !errors.Is(serveErr, http.ErrServerClosed) {
		err = serveErr
	}
	return err
}

// getBytes fetches the body of a GET route.
func (e *env) getBytes(path string) ([]byte, error) {
	resp, err := e.hc.Get(e.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %.200s", path, resp.StatusCode, body)
	}
	return body, nil
}

// getJSON decodes the JSON document of a GET route.
func (e *env) getJSON(path string, into any) error {
	body, err := e.getBytes(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, into)
}

// build issues the workload's CREATE TABLE … SAMPLING through POST /v1/exec
// and returns the round trip in seconds.
func (e *env) build() (float64, error) {
	body, err := json.Marshal(map[string]string{"sql": e.w.createSQL()})
	if err != nil {
		return 0, err
	}
	start := time.Now()
	resp, err := e.hc.Post(e.base+"/v1/exec", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	msg, err := io.ReadAll(resp.Body)
	elapsed := time.Since(start).Seconds()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("POST /v1/exec: status %d: %s", resp.StatusCode, msg)
	}
	return elapsed, nil
}

// prepareServe readies the read side against the built cube: it reads the
// cube's stats, classifies Q into iceberg and global cells, draws the read
// schedule for a serving phase of the given length, and makes one untimed
// pass over the cells it reads from.
func (e *env) prepareServe(serveSeconds float64) error {
	if err := e.getJSON("/v1/stats?cube="+cubeName, &e.stats); err != nil {
		return err
	}
	cube, ok := e.db.CubeByName(cubeName)
	if !ok {
		return fmt.Errorf("cube %q is not registered", cubeName)
	}
	e.iceberg = e.iceberg[:0]
	for i, where := range e.preds.where {
		res, err := cube.QueryByValues(context.Background(), where)
		if err != nil {
			return err
		}
		if !res.FromGlobal {
			e.iceberg = append(e.iceberg, int32(i))
		}
	}
	e.pool = e.iceberg
	if e.w.hot {
		e.pool = make([]int32, len(e.preds.where))
		for i := range e.pool {
			e.pool[i] = int32(i)
		}
	}
	nPaced := int(e.w.rate * serveSeconds * e.w.pacedShare)
	var err error
	e.traffic, err = makeTraffic(e.w, e.preds, e.pool, nPaced, rand.New(rand.NewSource(e.seed)))
	if err != nil {
		return err
	}
	e.etags[kQuery] = make([]atomic.Pointer[string], len(e.preds.bodies))
	e.etags[kViewport] = make([]atomic.Pointer[string], len(e.traffic.viewports))
	// One untimed pass over the cells reads are drawn from, shared by both
	// connections as two dashboards opening at once would share it: the
	// server encodes and compresses on both cores. It fills a hot workload's
	// cache and validators. A cold workload's cache keeps next to none of it;
	// there the pass takes the server from the state the build left it in to
	// the one it has under traffic — without it the first three seconds of
	// reads ran a fifth slower than the rest.
	warm := make([]request, 0, len(e.pool)+fixedViewport)
	for _, qi := range e.pool {
		warm = append(warm, request{kind: kQuery, key: qi})
	}
	for i := 0; e.w.hot && i < fixedViewport; i++ {
		warm = append(warm, request{kind: kViewport, key: int32(i)})
	}
	var wg sync.WaitGroup
	for ci, c := range e.conns {
		wg.Add(1)
		go func(ci int, c *conn) {
			defer wg.Done()
			for i := ci; i < len(warm); i += len(e.conns) {
				c.read(warm[i])
			}
		}(ci, c)
	}
	wg.Wait()
	for _, c := range e.conns {
		if c.failed > 0 {
			return fmt.Errorf("warm-up pass: %d of %d requests failed: %s", c.failed, c.attempted, c.firstErr)
		}
	}
	return nil
}

// conn is one dashboard connection: a keep-alive socket on which the
// goroutine that uses it writes each request and reads the response itself.
// http.Transport would put two goroutines and two channel hand-offs between
// the caller and the socket, and their wake-ups were a large and unsteady
// part of a 50 µs round trip. It owns its read buffer and counters and is
// used by one goroutine at a time.
type conn struct {
	e   *env
	nc  net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
	buf []byte
	// seen maps ETag+encoding to the checksum of the body it arrived with:
	// equal strong ETags must mean byte-equal bodies.
	seen map[string]uint32

	// revalidate makes the connection remember ETags and offer them back.
	revalidate bool

	attempted, failed int
	firstErr          string
	notModified       int
	revalidations     int // requests sent with If-None-Match
}

// do sends req and returns the response, whose body the caller must read to
// the end before the next request.
func (c *conn) do(req *http.Request) (*http.Response, error) {
	if err := req.Write(c.bw); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	return http.ReadResponse(c.br, req)
}

func (c *conn) fail(format string, args ...any) bool {
	c.failed++
	if c.firstErr == "" {
		c.firstErr = fmt.Sprintf(format, args...)
	}
	return false
}

func (c *conn) bodyOf(r request) []byte {
	if r.kind == kViewport {
		return c.e.traffic.viewports[r.key].body
	}
	return c.e.preds.bodies[r.key]
}

// newRequest builds one dashboard read as the client sends it: gzip is
// accepted, and the remembered validator for that body, if any, is offered.
func (c *conn) newRequest(r request) (req *http.Request, sent string, err error) {
	req, err = http.NewRequest(http.MethodPost, c.e.base+kindPath[r.kind], bytes.NewReader(c.bodyOf(r)))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept-Encoding", "gzip")
	if c.revalidate {
		if p := c.e.etags[r.kind][r.key].Load(); p != nil {
			sent = *p
			req.Header.Set("If-None-Match", sent)
		}
	}
	return req, sent, nil
}

// read issues one dashboard read and validates the response without
// inflating it: status 200 or 304, a 304 only for the validator that was
// sent, a complete body in the negotiated encoding, and the same bytes as
// any earlier response carrying the same ETag.
func (c *conn) read(r request) bool {
	c.attempted++
	req, sent, err := c.newRequest(r)
	if err != nil {
		return c.fail("%v", err)
	}
	if sent != "" {
		c.revalidations++
	}
	resp, err := c.do(req)
	if err != nil {
		return c.fail("%s: %v", kindPath[r.kind], err)
	}
	c.buf, err = readAll(resp.Body, c.buf[:0])
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return c.fail("%s: reading body: %v", kindPath[r.kind], err)
	}
	etag := resp.Header.Get("ETag")
	switch resp.StatusCode {
	case http.StatusNotModified:
		c.notModified++
		if sent == "" || etag != sent {
			return c.fail("%s: 304 with ETag %q for If-None-Match %q", kindPath[r.kind], etag, sent)
		}
		return true
	case http.StatusOK:
	default:
		return c.fail("%s: status %d: %.200s", kindPath[r.kind], resp.StatusCode, c.buf)
	}
	enc := resp.Header.Get("Content-Encoding")
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(c.buf)) {
		return c.fail("%s: Content-Length %s for %d body bytes", kindPath[r.kind], cl, len(c.buf))
	}
	if !wellFramed(c.buf, enc) {
		return c.fail("%s: malformed %q body of %d bytes", kindPath[r.kind], enc, len(c.buf))
	}
	if etag == "" {
		return c.fail("%s: 200 without an ETag", kindPath[r.kind])
	}
	sum := crc32.ChecksumIEEE(c.buf)
	if old, ok := c.seen[etag+enc]; ok && old != sum {
		return c.fail("%s: two different bodies under ETag %s", kindPath[r.kind], etag)
	}
	c.seen[etag+enc] = sum
	if c.revalidate {
		c.e.etags[r.kind][r.key].Store(&etag)
	}
	return true
}

// wellFramed is the timed phases' cheap body check; the correctness check
// decodes bodies in full outside them.
func wellFramed(body []byte, encoding string) bool {
	if encoding == "gzip" {
		return len(body) > 18 && body[0] == 0x1f && body[1] == 0x8b
	}
	return len(body) >= 2 && body[0] == '{' && body[len(body)-1] == '}'
}

// readAll appends r to buf until EOF, reusing buf's capacity.
func readAll(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// appendAck is the part of the /v1/append response the benchmark reads.
type appendAck struct {
	RowsAppended   int   `json:"rows_appended"`
	CellsTouched   int   `json:"cells_touched"`
	SamplesRebuilt int   `json:"samples_rebuilt"`
	ShardsTouched  []int `json:"shards_touched"`

	roundTripMS float64 // measured by postAppend, not part of the response
}

// postAppend sends one pre-marshalled batch; a rejected batch is a failure.
func (c *conn) postAppend(body []byte) (appendAck, bool) {
	c.attempted++
	var ack appendAck
	req, err := http.NewRequest(http.MethodPost, c.e.base+"/v1/append", bytes.NewReader(body))
	if err != nil {
		return ack, c.fail("/v1/append: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := c.do(req)
	if err != nil {
		return ack, c.fail("/v1/append: %v", err)
	}
	c.buf, err = readAll(resp.Body, c.buf[:0])
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return ack, c.fail("/v1/append: reading body: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		return ack, c.fail("/v1/append: status %d: %.200s", resp.StatusCode, c.buf)
	}
	if err := json.Unmarshal(c.buf, &ack); err != nil {
		return ack, c.fail("/v1/append: %v", err)
	}
	if ack.RowsAppended != appendRows {
		return ack, c.fail("/v1/append: acknowledged %d of %d rows", ack.RowsAppended, appendRows)
	}
	ack.roundTripMS = float64(time.Since(start)) / 1e6
	return ack, true
}
