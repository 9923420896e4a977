package server

import (
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

// appendIdentity appends a query result's response identity,
// "s{shard}.g{generation}.{class}". Results that address no cell
// (unknown value → empty population) carry shard -1 and generation 0,
// which is stable: the empty payload for a cube's schema never changes.
func appendIdentity(dst []byte, res *tabula.QueryResult) []byte {
	dst = append(dst, 's')
	dst = strconv.AppendInt(dst, int64(res.Shard), 10)
	dst = append(dst, ".g"...)
	dst = strconv.AppendUint(dst, res.Generation, 10)
	switch {
	case res.FromGlobal:
		return append(dst, ".g"...)
	case res.SampleID >= 0:
		dst = append(dst, ".s"...)
		return strconv.AppendInt(dst, int64(res.SampleID), 10)
	default:
		return append(dst, ".e"...)
	}
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
	for header != "" {
		var c string
		c, header, _ = strings.Cut(header, ",")
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
	for list := r.Header.Get("Accept-Encoding"); list != ""; {
		var part string
		part, list, _ = strings.Cut(list, ",")
		enc, params, _ := strings.Cut(part, ";")
		if !strings.EqualFold(strings.TrimSpace(enc), "gzip") {
			continue
		}
		for params != "" {
			var param string
			param, params, _ = strings.Cut(params, ";")
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
// response: 64-bit FNV-1a over each result's identity followed by a 0
// byte. The body is a pure function of the identities (payload indexes,
// shard/generation stamps, from_global flags, and payload bytes all
// derive from them), so the hash is both the batch cache key and its
// ETag discriminator — and because identities are per-shard, a viewport
// whose shards an append did not touch keeps its hash, its cached body,
// and its 304s. Each identity is laid out in scratch, which is returned
// for reuse.
func viewportHash(scratch []byte, results []*tabula.QueryResult) (uint64, []byte) {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, res := range results {
		scratch = append(appendIdentity(scratch[:0], res), 0)
		for _, c := range scratch {
			h ^= uint64(c)
			h *= prime64
		}
	}
	return h, scratch
}
