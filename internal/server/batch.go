package server

import (
	"context"
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
// cells with the generation vector reported by GET /v1/cache. The body is
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
	etag := etagFor(cube, "b"+strconv.FormatUint(hash, 16))
	h := w.Header()
	h.Set("ETag", etag)
	h.Set("Vary", "Accept-Encoding")
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}

	parts, err := s.viewportParts(r.Context(), cube, results)
	if err != nil {
		s.writeErr(w, http.StatusInternalServerError, err)
		return
	}
	s.writeParts(w, r, parts)
}

// viewportParts lays a viewport body out as segments: the envelope —
// the per-result list, which only this request can know, framed as
// stored blocks so no compressor runs — then each distinct payload's
// resident bytes, comma-separated, then the closing glue. Payloads are
// deduplicated per physical sample, in first-appearance order: a
// sample's wire cell is its identity, so the global sample, or a
// representative shared by cells of several shards, is one cell however
// many shards lead to it and ships once per body. First touches fill
// their samples' cells one after another, with a ctx poll per payload.
func (s *Server) viewportParts(ctx context.Context, cube string, results []*tabula.QueryResult) ([]*wire.Segment, error) {
	payloadIdx := make(map[*wire.Cell]int, 16)
	var distinct []*tabula.QueryResult
	bp := getBuf()
	b := append(*bp, `{"results":[`...)
	for i, res := range results {
		j, ok := payloadIdx[res.Wire]
		if !ok {
			j = len(distinct)
			payloadIdx[res.Wire] = j
			distinct = append(distinct, res)
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"payload":`...)
		b = strconv.AppendInt(b, int64(j), 10)
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
	envelope := wire.Store(b)
	*bp = b[:0]
	putBuf(bp)

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
