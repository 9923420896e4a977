package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"github.com/tabula-db/tabula"
	"github.com/tabula-db/tabula/internal/wire"
)

// POST /query/batch answers a whole dashboard viewport in one round
// trip. A map pan/zoom bursts into dozens of per-cell queries; issuing
// them individually pays per-request HTTP and JSON overhead dozens of
// times, and — because representative sample selection assigns one
// sample to many cells — ships the same payload bytes repeatedly. The
// batch endpoint resolves every cell against ONE cube snapshot (all
// results share a snapshot Version; a concurrent Append can never tear
// the viewport), dedupes cells that resolve to the same physical
// sample — through any shard — and ships each distinct sample's
// payload once, referenced by index:
//
//	request:  {"cube":"c","queries":[{"a":"x"},{"a":"y"},…]}
//	response: {"results":[{"payload":0,"shard":3,"generation":2,"from_global":false},…],
//	           "payloads":[{"columns":…,"rows":…},…]}
//
// results[i] answers queries[i]; results[i].payload indexes payloads;
// shard/generation stamp the answering shard so a client can correlate
// cells with the generation vector reported by GET /cache. The body is
// a pure function of the per-result identities — each names one
// physical sample within the cube's epoch, and it deliberately carries
// no cube-wide version — so its ETag (the identity-list hash) stays
// valid across appends that do not touch the viewport's shards, and a
// panned-back dashboard keeps revalidating with 304s while the cube
// streams.

// maxBatchQueries bounds one viewport request.
const maxBatchQueries = 4096

func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	qb := getQueryBody()
	defer putQueryBody(qb)
	if err := qb.read(w, r, true); err != nil {
		s.writeBodyErr(w, err)
		return
	}
	cube, queries := qb.cube, qb.cells
	if len(queries) == 0 {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("empty queries list"))
		return
	}
	if len(queries) > maxBatchQueries {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("batch of %d queries exceeds the limit of %d", len(queries), maxBatchQueries))
		return
	}
	if _, ok := s.db.CubeByName(cube); !ok {
		s.writeErr(w, http.StatusNotFound, fmt.Errorf("unknown cube %q", cube))
		return
	}
	resp, err := s.db.Do(r.Context(), tabula.QueryRequest{Cube: cube, Batch: queries})
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	results := resp.Results

	var hash uint64
	hash, qb.ident = viewportHash(qb.ident, results)
	ident := "b" + strconv.FormatUint(hash, 16)
	etag := etagFor(cube, ident)
	h := w.Header()
	h.Set("ETag", etag)
	h.Set("Vary", "Accept-Encoding")
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}

	// Dedup: one payload per distinct physical sample, in
	// first-appearance order. A sample's wire cell is its identity: the
	// global sample, or a representative shared by cells of several
	// shards, is one cell however many shards lead to it, so it ships
	// once per body.
	resultIdx := make([]int, len(results))
	payloadIdx := make(map[*wire.Cell]int, 16)
	var distinct []*tabula.QueryResult
	for i, res := range results {
		j, ok := payloadIdx[res.Wire]
		if !ok {
			j = len(distinct)
			payloadIdx[res.Wire] = j
			distinct = append(distinct, res)
		}
		resultIdx[i] = j
	}

	// Assembled gzip bodies are cached per identity-list hash:
	// dashboards across users repeat pan positions, so a hot viewport is
	// stitched once — and stays stitched across appends that miss its
	// shards — and a cached one is served without looking at a sample.
	// A body too small to compress is not worth an entry; it falls
	// through and is laid out again, which at that size costs nothing.
	if s.gzip && acceptsGzip(r) {
		body, err := s.cache.Get(viewportKey(cube, ident), func() ([]byte, error) {
			parts, err := s.viewportParts(r.Context(), cube, results, resultIdx, distinct)
			if err != nil {
				return nil, err
			}
			if wire.RawLen(parts) < gzipMinBytes {
				return nil, errSmallBody
			}
			return wire.AppendGzip(make([]byte, 0, wire.GzipLen(parts)), parts), nil
		})
		if err == nil {
			s.writeEncoded(w, r, body, true)
			return
		}
		if !errors.Is(err, errSmallBody) {
			s.writeErr(w, http.StatusInternalServerError, err)
			return
		}
	}
	parts, err := s.viewportParts(r.Context(), cube, results, resultIdx, distinct)
	if err != nil {
		s.writeErr(w, http.StatusInternalServerError, err)
		return
	}
	s.writeParts(w, r, parts)
}

// errSmallBody keeps a viewport below gzipMinBytes out of the cache; it
// is served inflated instead.
var errSmallBody = errors.New("server: viewport body below the gzip threshold")

// viewportParts lays a viewport body out as segments: the envelope —
// the per-result list, which only this request can know, compressed
// here — then each distinct payload's resident bytes, comma-separated,
// then the closing glue. First touches fill their samples' cells one
// after another, with a ctx poll per payload.
func (s *Server) viewportParts(ctx context.Context, cube string, results []*tabula.QueryResult, resultIdx []int, distinct []*tabula.QueryResult) ([]*wire.Segment, error) {
	bp := getBuf()
	b := append(*bp, `{"results":[`...)
	for i, res := range results {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"payload":`...)
		b = strconv.AppendInt(b, int64(resultIdx[i]), 10)
		b = append(b, `,"shard":`...)
		b = strconv.AppendInt(b, int64(res.Shard), 10)
		b = append(b, `,"generation":`...)
		b = strconv.AppendUint(b, res.Generation, 10)
		if res.FromGlobal {
			b = append(b, `,"from_global":true}`...)
		} else {
			b = append(b, `,"from_global":false}`...)
		}
	}
	b = append(b, `],"payloads":[`...)
	envelope, err := wire.Compress(b)
	*bp = b[:0]
	putBuf(bp)
	if err != nil {
		return nil, err
	}
	parts := make([]*wire.Segment, 0, 2*len(distinct)+1)
	parts = append(parts, envelope)
	for j, res := range distinct {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		payload, err := s.payloadSegment(cube, res)
		if err != nil {
			return nil, err
		}
		if j > 0 {
			parts = append(parts, segComma)
		}
		parts = append(parts, payload)
	}
	return append(parts, segBatchTail), nil
}
