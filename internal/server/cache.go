package server

import (
	"net/http"
	"strconv"
	"strings"

	"github.com/tabula-db/tabula"
)

// Response identities, validators and content negotiation.
//
// A cell response is named by the core identity contract: an {epoch,
// shard, shard generation, sample id} tuple names immutable bytes
// forever, so the identity of a response is
// "e{epoch}.s{shard}.g{generation}.{class}" under the cube's name. It is
// the response's ETag, and the ordered list of a viewport's identities
// hashes to the viewport's ETag. An Append bumps ONLY the generations of
// the shards it touched, so responses served from untouched shards keep
// their identities — their ETags keep revalidating to 304 — while
// touched shards answer under fresh identities: invalidation by
// snapshot swap, no bookkeeping.
//
// The epoch (hex) names the cube instance. Every Build or Load draws a
// new one and starts its shards at generation 1 again, so without it a
// cube replaced under the same name — or restored from a file — would
// reuse its predecessor's identities for different bytes, and a client
// holding an old ETag would get a 304 for a cube it never saw.
//
// Identities name responses; the payload bytes belong to the sample
// (its wire cell, see payloadSegment). Within one epoch an identity
// names one physical sample, but one sample reached through two
// shards, or through a shard before and after an append it survived,
// has several identities and one set of bytes — which is why a
// viewport ships a payload per distinct sample, not per identity.
//
// The payload class collapses distinct WHERE clauses that resolve to
// the same sample: "s<id>" for a persisted sample (shard-local id), "g"
// for the global sample, "e" for an empty population.

// appendIdentity appends a query result's response identity,
// "e{epoch}.s{shard}.g{generation}.{class}", the epoch in hex. Results
// that address no cell (unknown value → empty population) carry shard
// -1 and generation 0, which is stable within the epoch: the empty
// payload for a cube's schema never changes.
func appendIdentity(dst []byte, res *tabula.QueryResult) []byte {
	dst = appendEpoch(dst, res.Epoch)
	dst = append(dst, '.')
	return appendShardIdentity(dst, res)
}

// appendEpoch appends "e{epoch}", the epoch in hex.
func appendEpoch(dst []byte, epoch uint64) []byte {
	return strconv.AppendUint(append(dst, 'e'), epoch, 16)
}

// appendShardIdentity appends the part of a result's identity below the
// epoch, "s{shard}.g{generation}.{class}".
func appendShardIdentity(dst []byte, res *tabula.QueryResult) []byte {
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

// etagFor builds the strong ETag of a response:
// "{cube}.e{epoch}.s{shard}.g{shardGen}.{class}" for a cell,
// "{cube}.b{hash}" for a viewport. It changes when an append to the
// answering shard changes the bytes a cell resolves to, or when the
// cube is rebuilt or reloaded, so If-None-Match revalidation is sound
// with zero coordination — and keeps answering 304 for cells of
// untouched shards.
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
// response: 64-bit FNV-1a over the epoch, "e{epoch}", then each
// result's shard identity, "s{shard}.g{generation}.{class}", each
// followed by a 0 byte. A batch answers from one snapshot, so its
// results share one epoch and it is hashed once. The body is a pure
// function of the identities: within an epoch each names one physical
// sample, so the payload indexes (one per distinct sample),
// shard/generation stamps, from_global flags and payload bytes all
// derive from them. The hash is therefore the batch's ETag
// discriminator — and because identities are per-shard, a viewport whose
// shards an append did not touch keeps its hash and its 304s. Each part
// is laid out in scratch, which is returned for reuse.
func viewportHash(scratch []byte, results []*tabula.QueryResult) (uint64, []byte) {
	h := uint64(fnvOffset64)
	if len(results) > 0 {
		scratch = append(appendEpoch(scratch[:0], results[0].Epoch), 0)
		h = fnv1a(h, scratch)
	}
	for _, res := range results {
		scratch = append(appendShardIdentity(scratch[:0], res), 0)
		h = fnv1a(h, scratch)
	}
	return h, scratch
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a folds b into the 64-bit FNV-1a state h.
func fnv1a(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}
