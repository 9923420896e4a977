package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"time"

	"github.com/tabula-db/tabula"
	"github.com/tabula-db/tabula/internal/respcache"
	"github.com/tabula-db/tabula/internal/server"
)

const (
	replayRequests = 2000 // requests of the paced schedule the replay issues
	missCells      = 300  // distinct payloads the miss-penalty pass touches
	hitGets        = 20000
)

// memWriter is the in-memory http.ResponseWriter the replay serves into.
type memWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *memWriter) Header() http.Header         { return w.h }
func (w *memWriter) WriteHeader(status int)      { w.status = status }
func (w *memWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

func (w *memWriter) reset() {
	clear(w.h)
	w.status, w.n = http.StatusOK, 0
}

// since is the elapsed time in microseconds.
func since(t time.Time) float64 { return float64(time.Since(t)) / 1e3 }

// layerTimes are the per-request timings of one replay pass, in
// microseconds, per request kind.
type layerTimes struct {
	handler, do, core [numKinds][]float64
}

// replayPass issues reqs sequentially and in process: each request is served
// by the handler into memory — with the validators and headers the socket
// client would send — and, when layers is set, answered again through DB.Do
// and through the cube itself, so that each layer's time can be read off
// and subtracted. With a tracer, each call is also recorded as a span under
// a per-request root.
func (e *env) replayPass(h http.Handler, reqs []request, tr *tracer, layers bool) (*layerTimes, error) {
	cube, ok := e.db.CubeByName(cubeName)
	if !ok {
		return nil, fmt.Errorf("cube %q is not registered", cubeName)
	}
	ctx := context.Background()
	c := &conn{e: e, revalidate: e.w.hot}
	mw := &memWriter{h: make(http.Header)}
	lt := &layerTimes{}
	for i, r := range reqs {
		req, _, err := c.newRequest(r)
		if err != nil {
			return nil, err
		}
		mw.reset()
		root := tr.start("request", -1, i)
		t0 := time.Now()
		id := tr.start("server.ServeHTTP", root, i)
		h.ServeHTTP(mw, req)
		tr.end(id)
		lt.handler[r.kind] = append(lt.handler[r.kind], since(t0))
		if mw.status != http.StatusOK && mw.status != http.StatusNotModified {
			return nil, fmt.Errorf("replay: %s answered %d", kindPath[r.kind], mw.status)
		}
		if etag := mw.h.Get("ETag"); c.revalidate && etag != "" {
			e.etags[r.kind][r.key].Store(&etag)
		}
		if layers {
			q := tabula.QueryRequest{Cube: cubeName}
			if r.kind == kViewport {
				q.Batch = e.traffic.viewports[r.key].cells
			} else {
				q.Where = e.preds.where[r.key]
			}
			t0 = time.Now()
			id = tr.start("tabula.DB.Do", root, i)
			_, err = e.db.Do(ctx, q)
			tr.end(id)
			lt.do[r.kind] = append(lt.do[r.kind], since(t0))
			if err != nil {
				return nil, err
			}
			t0 = time.Now()
			if r.kind == kViewport {
				id = tr.start("core.QueryBatchByValues", root, i)
				_, err = cube.QueryBatchByValues(ctx, q.Batch)
			} else {
				id = tr.start("core.QueryByValues", root, i)
				_, err = cube.QueryByValues(ctx, q.Where)
			}
			tr.end(id)
			lt.core[r.kind] = append(lt.core[r.kind], since(t0))
			if err != nil {
				return nil, err
			}
		}
		tr.end(root)
	}
	return lt, nil
}

// abHandlerP50 serves every /v1/query of reqs through each variant in turn —
// alternating which goes first, so that neither always finds the caches
// warmed by the other and slow drift of the host hits both alike — and
// returns each variant's median handler time in microseconds.
func (e *env) abHandlerP50(reqs []request, variants [2]func(http.ResponseWriter, *http.Request)) ([2]float64, error) {
	c := &conn{e: e, revalidate: e.w.hot}
	mw := &memWriter{h: make(http.Header)}
	var took [2][]float64
	for i, r := range reqs {
		if r.kind != kQuery {
			continue
		}
		for n := range variants {
			v := (i + n) % len(variants)
			req, _, err := c.newRequest(r)
			if err != nil {
				return [2]float64{}, err
			}
			mw.reset()
			t0 := time.Now()
			variants[v](mw, req)
			took[v] = append(took[v], since(t0))
		}
	}
	return [2]float64{percentile(took[0], 0.5), percentile(took[1], 0.5)}, nil
}

// payloadCell is one cell standing for a distinct cached payload.
type payloadCell struct {
	key  int32 // index into Q
	name string
}

// distinctPayloads picks one iceberg cell per distinct {shard, generation,
// sample} identity, in Q order.
func (e *env) distinctPayloads() ([]payloadCell, error) {
	cube, ok := e.db.CubeByName(cubeName)
	if !ok {
		return nil, fmt.Errorf("cube %q is not registered", cubeName)
	}
	seen := make(map[string]bool)
	var out []payloadCell
	for _, qi := range e.iceberg {
		res, err := cube.QueryByValues(context.Background(), e.preds.where[qi])
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("p|%s|s%d.g%d.s%d", cubeName, res.Shard, res.Generation, res.SampleID)
		if !seen[name] {
			seen[name] = true
			out = append(out, payloadCell{key: qi, name: name})
		}
		if len(out) == missCells {
			break
		}
	}
	return out, nil
}

// missPenalties serves each distinct payload twice from a fresh server with
// an empty cache of the workload's size — first a miss (encode, compress,
// insert, evict), then a hit — once negotiating gzip and once not. It
// returns the per-cell miss−hit differences with gzip, the first-request
// times with and without gzip, and each identity body's size.
func (e *env) missPenalties(cells []payloadCell) (penalty, gzFirst, idFirst []float64, sizes []int) {
	mw := &memWriter{h: make(http.Header)}
	for _, gz := range []bool{true, false} {
		srv := server.New(e.db, server.WithCacheBytes(e.w.cacheBytes))
		for _, pc := range cells {
			var took [2]float64
			for n := range took {
				req, err := http.NewRequest(http.MethodPost, kindPath[kQuery], bytes.NewReader(e.preds.bodies[pc.key]))
				if err != nil {
					panic(err) // a constant method and path
				}
				if gz {
					req.Header.Set("Accept-Encoding", "gzip")
				}
				mw.reset()
				t0 := time.Now()
				srv.ServeHTTP(mw, req)
				took[n] = since(t0)
			}
			if gz {
				penalty = append(penalty, took[0]-took[1])
				gzFirst = append(gzFirst, took[0])
			} else {
				idFirst = append(idFirst, took[0])
				sizes = append(sizes, mw.n)
			}
		}
	}
	return penalty, gzFirst, idFirst, sizes
}

// cacheGetNS times respcache.Get directly, with the workload's budget and
// the real key names and payload sizes: a pass of first touches (misses,
// with the inserts and evictions they cause) and a pass over resident keys
// (hits). Payloads are slices of one shared buffer, so fills allocate
// nothing.
func cacheGetNS(budget int64, cells []payloadCell, sizes []int) (missNS, hitNS float64, err error) {
	largest := 0
	for _, s := range sizes {
		if s > largest {
			largest = s
		}
	}
	zero := make([]byte, largest)
	size := 0
	fill := func() ([]byte, error) { return zero[:size], nil }
	cache := respcache.New(budget)
	t0 := time.Now()
	for i, pc := range cells {
		size = sizes[i]
		if _, err := cache.Get(pc.name, fill); err != nil {
			return 0, 0, err
		}
	}
	missNS = float64(time.Since(t0)) / float64(len(cells))

	// The most recently inserted keys that fit in half the budget are
	// certainly resident.
	var resident []string
	for i, held := len(cells)-1, int64(0); i >= 0 && held+int64(sizes[i]) <= budget/2; i-- {
		held += int64(sizes[i])
		resident = append(resident, cells[i].name)
	}
	if len(resident) == 0 {
		return 0, 0, fmt.Errorf("no payload fits in half of the %d-byte cache", budget)
	}
	before := cache.Stats().Hits
	t0 = time.Now()
	for i := 0; i < hitGets; i++ {
		if _, err := cache.Get(resident[i%len(resident)], fill); err != nil {
			return 0, 0, err
		}
	}
	hitNS = float64(time.Since(t0)) / hitGets
	if got := cache.Stats().Hits - before; got != hitGets {
		return 0, 0, fmt.Errorf("respcache: %d of %d gets of resident keys were hits", got, hitGets)
	}
	return missNS, hitNS, nil
}

// newTwin is a second server over the same DB with an empty cache of the
// workload's size, with or without the HTTP metrics layer.
func newTwin(e *env, metrics bool) *server.Server {
	opts := []server.Option{server.WithCacheBytes(e.w.cacheBytes)}
	if metrics {
		opts = append(opts, server.WithMetrics(tabula.NewMetricsRegistry()))
	}
	return server.New(e.db, opts...)
}
