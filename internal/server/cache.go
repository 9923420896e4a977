package server

import (
	"hash/fnv"
	"net/http"
	"strconv"
	"strings"

	"github.com/tabula-db/tabula"
)

// Response identities, validators and content negotiation.
//
// A cell response is named by the core identity contract: a {shard,
// shard generation, sample id} triple names immutable bytes forever, so
// the identity of a response is "s{shard}.g{generation}.{class}" under
// the cube's name. It is the response's ETag, and the ordered list of a
// viewport's identities hashes to the viewport's ETag and to the key its
// assembled body is cached under. An Append bumps ONLY the generations
// of the shards it touched, so responses served from untouched shards
// keep their identities — their ETags keep revalidating to 304 and their
// cached viewports stay hot — while touched shards answer under fresh
// identities and the stale viewports age out of the LRU: invalidation
// by snapshot swap, no bookkeeping.
//
// Identities name responses, not bytes. The payload bytes belong to the
// sample (its wire cell, see payloadSegment): one sample reached through
// two shards, or through a shard before and after an append it
// survived, has several identities and one set of bytes.
//
// The payload class collapses distinct WHERE clauses that resolve to
// the same sample: "s<id>" for a persisted sample (shard-local id), "g"
// for the global sample, "e" for an empty population.

// classOf maps a query result to its payload class.
func classOf(res *tabula.QueryResult) string {
	switch {
	case res.FromGlobal:
		return "g"
	case res.SampleID >= 0:
		return "s" + strconv.FormatInt(int64(res.SampleID), 10)
	default:
		return "e"
	}
}

// identityOf maps a query result to its response identity,
// "s{shard}.g{generation}.{class}". Results that address no cell
// (unknown value → empty population) carry shard -1 and generation 0,
// which is stable: the empty payload for a cube's schema never changes.
func identityOf(res *tabula.QueryResult) string {
	return "s" + strconv.Itoa(res.Shard) +
		".g" + strconv.FormatUint(res.Generation, 10) +
		"." + classOf(res)
}

// viewportKey is the response-cache key of a viewport's assembled gzip
// body, the cache's only kind of entry.
func viewportKey(cube, ident string) string {
	return "V|" + cube + "|" + ident
}

// etagFor builds the strong ETag of a response:
// "{cube}.s{shard}.g{shardGen}.{class}". It changes exactly when an
// append to the answering shard changes the bytes a cell resolves to,
// so If-None-Match revalidation is sound with zero coordination — and
// keeps answering 304 for cells of untouched shards.
func etagFor(cube, ident string) string {
	return `"` + cube + "." + ident + `"`
}

// etagMatches reports whether an If-None-Match header value matches the
// etag. RFC 9110 §13.1.2 compares If-None-Match weakly: a validator an
// intermediary weakened to W/"…" while re-encoding the body still names
// this response. Handles the comma-separated list form and "*".
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, c := range strings.Split(header, ",") {
		c = strings.TrimSpace(c)
		if c == "*" || strings.TrimPrefix(c, "W/") == etag {
			return true
		}
	}
	return false
}

// acceptsGzip reports whether the client's Accept-Encoding lists gzip
// with a non-zero weight. A weight that does not parse refuses gzip:
// the identity encoding is always acceptable.
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc, params, _ := strings.Cut(part, ";")
		if !strings.EqualFold(strings.TrimSpace(enc), "gzip") {
			continue
		}
		for _, param := range strings.Split(params, ";") {
			name, val, _ := strings.Cut(param, "=")
			if !strings.EqualFold(strings.TrimSpace(name), "q") {
				continue
			}
			q, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			return err == nil && q > 0
		}
		return true
	}
	return false
}

// gzipMinBytes is the identity size below which compressing is not
// worth the header overhead and the client's inflate call.
const gzipMinBytes = 512

// viewportHash fingerprints the ordered identity list of a batch
// response. The body is a pure function of the identities (payload
// indexes, shard/generation stamps, from_global flags, and payload
// bytes all derive from them), so the hash is both the batch cache key
// and its ETag discriminator — and because identities are per-shard,
// a viewport whose shards an append did not touch keeps its hash, its
// cached body, and its 304s.
func viewportHash(idents []string) uint64 {
	h := fnv.New64a()
	for _, id := range idents {
		h.Write([]byte(id))
		h.Write([]byte{0})
	}
	return h.Sum64()
}
