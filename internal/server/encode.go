package server

import (
	"math"
	"strconv"
	"sync"
	"time"

	"github.com/tabula-db/tabula"
	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/obs"
	"github.com/tabula-db/tabula/internal/wire"
)

// The wire encoder. appendTableJSON appends a table's JSON text straight
// into a byte buffer with strconv appenders — no boxing, no reflection.
// For a served sample it runs once in the sample's lifetime: the text is
// compressed into the sample's wire cell (payloadSegment) and every
// response after that, gzip or not, is made from those bytes.

// bufPool recycles the scratch buffers JSON is encoded into and
// response bodies are assembled in. Buffers that grew beyond
// maxPooledBuf are dropped rather than pinned in the pool forever.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4<<10)
		return &b
	},
}

const maxPooledBuf = 1 << 20

func getBuf() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

func putBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	bufPool.Put(b)
}

// mustSegment compresses a constant part of a response body.
func mustSegment(raw string) *wire.Segment {
	seg, err := wire.Compress([]byte(raw))
	if err != nil {
		panic(err) // compressing into memory cannot fail
	}
	return seg
}

// The glue between payloads, compressed once at start-up. A /v1/query
// body is segQueryPrefix, the payload, segFromGlobal[0 or 1]; a batch
// body is a per-request envelope, the payloads separated by segComma,
// segBatchTail.
var (
	segQueryPrefix = mustSegment(`{"sample":`)
	segFromGlobal  = [2]*wire.Segment{mustSegment(`,"from_global":false}`), mustSegment(`,"from_global":true}`)}
	segComma       = mustSegment(`,`)
	segBatchTail   = mustSegment(`]}`)
)

// payloadSegment returns the wire bytes of the result's sample. The
// first touch of a sample encodes and compresses it into the sample's
// cell; every later one — from any shard, server or snapshot the sample
// is reachable from — is a pointer load.
func (s *Server) payloadSegment(cube string, res *tabula.QueryResult) (*wire.Segment, error) {
	return res.Wire.Get(func() (*wire.Segment, error) {
		start := time.Now()
		bp := getBuf()
		raw := appendTableJSON(*bp, res.Sample)
		seg, err := wire.Compress(raw)
		*bp = raw[:0]
		putBuf(bp)
		if err != nil {
			return nil, err
		}
		s.wireFill.Observe(time.Since(start).Seconds())
		s.metrics.Counter("tabula_wire_fills_total",
			"Samples whose wire bytes were materialized (first touches), by cube.",
			obs.Label{Name: "cube", Value: cube}).Inc()
		return seg, nil
	})
}

// appendTableJSON appends the JSON wire form of a table:
//
//	{"columns":[...],"types":[...],"rows":[[...],...],"num_rows":N}
//
// Point values encode as [lon, lat] pairs, matching the old encoder.
func appendTableJSON(dst []byte, t *tabula.Table) []byte {
	schema := t.Schema()
	dst = append(dst, `{"columns":[`...)
	for i, f := range schema {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, f.Name)
	}
	dst = append(dst, `],"types":[`...)
	for i, f := range schema {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, f.Type.String())
	}
	dst = append(dst, `],"rows":[`...)
	nr, nc := t.NumRows(), t.NumCols()
	for r := 0; r < nr; r++ {
		if r > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for c := 0; c < nc; c++ {
			if c > 0 {
				dst = append(dst, ',')
			}
			v := t.Value(r, c)
			switch v.Type {
			case dataset.Int64:
				dst = strconv.AppendInt(dst, v.I, 10)
			case dataset.Float64:
				dst = appendJSONFloat(dst, v.F)
			case dataset.String:
				dst = appendJSONString(dst, v.S)
			case dataset.Point:
				dst = append(dst, '[')
				dst = appendJSONFloat(dst, v.P.X)
				dst = append(dst, ',')
				dst = appendJSONFloat(dst, v.P.Y)
				dst = append(dst, ']')
			}
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `],"num_rows":`...)
	dst = strconv.AppendInt(dst, int64(nr), 10)
	return append(dst, '}')
}

// appendJSONFloat appends a float in encoding/json's shortest form.
// Non-finite values (which encoding/json rejects, and which the old
// encoder silently truncated the body on) encode as null.
func appendJSONFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "null"...)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Trim "e-09" to "e-9", like encoding/json.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends a JSON string literal. Valid UTF-8 passes
// through verbatim; only quotes, backslashes and control characters are
// escaped (dashboards parse JSON, not HTML, so the <,>,& escaping
// encoding/json defaults to is unnecessary).
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	from := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		dst = append(dst, s[from:i]...)
		switch c {
		case '"':
			dst = append(dst, '\\', '"')
		case '\\':
			dst = append(dst, '\\', '\\')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
		from = i + 1
	}
	dst = append(dst, s[from:]...)
	return append(dst, '"')
}
