// Package wire holds response bytes in the form they leave the server:
// each part of a body that outlives the request is compressed once, on
// its own, into a Segment (Compress); a part made for one request is
// framed as stored blocks (Store); and a gzip response is one RFC 1952
// member stitched from segments by concatenation — no compressor runs
// at request time.
//
// The stitched member is laid out as
//
//	header   10 bytes, constant (mtime 0, OS unknown)
//	segment* each a run of deflate blocks — compressed ones ending in a
//	         sync flush, or stored ones — so it is byte-aligned, never
//	         final, and references no history before its own first byte
//	final    an empty final block
//	trailer  CRC-32 and length of the inflated body, both folded from
//	         the per-segment values in O(1) per part (see crc.go)
//
// A client that does not negotiate gzip is served by inflating the same
// segments, so a part's bytes exist once, in one form.
package wire

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sync"
	"sync/atomic"
)

// Segment is one independently compressed part of a response body. It
// is immutable once built.
type Segment struct {
	// Deflate is the part as raw-deflate blocks: compressed ones closed
	// by a sync flush (Compress), or stored ones (Store).
	Deflate []byte
	// CRC and Len are the CRC-32 and length of the inflated part.
	CRC uint32
	Len int
	// op is the part's CRC length-operator, x^(8·Len) mod P.
	op uint32
}

// maxPooledScratch bounds the output buffer a pooled deflater keeps.
const maxPooledScratch = 1 << 20

// deflater is a pooled compressor with its output buffer; Reset makes
// its output independent of what it compressed before.
type deflater struct {
	fw  *flate.Writer
	out bytes.Buffer
}

var deflaters = sync.Pool{New: func() any {
	d := new(deflater)
	fw, err := flate.NewWriter(&d.out, flate.BestSpeed)
	if err != nil {
		panic(err) // only an invalid level, and the level is a constant
	}
	d.fw = fw
	return d
}}

// putDeflater returns d to the pool unless its buffer grew past
// maxPooledScratch.
func putDeflater(d *deflater) {
	if d.out.Cap() > maxPooledScratch {
		return
	}
	deflaters.Put(d)
}

// Compress builds the segment of raw. The result aliases neither raw
// nor pooled memory.
func Compress(raw []byte) (*Segment, error) {
	d := deflaters.Get().(*deflater)
	defer putDeflater(d)
	d.out.Reset()
	d.fw.Reset(&d.out)
	if _, err := d.fw.Write(raw); err != nil {
		return nil, fmt.Errorf("wire: compressing segment: %w", err)
	}
	if err := d.fw.Flush(); err != nil {
		return nil, fmt.Errorf("wire: flushing segment: %w", err)
	}
	return &Segment{
		Deflate: bytes.Clone(d.out.Bytes()),
		CRC:     crc32.ChecksumIEEE(raw),
		Len:     len(raw),
		op:      crcOp(len(raw)),
	}, nil
}

// maxStored is the most bytes one stored deflate block carries.
const maxStored = 1<<16 - 1

// Store builds the segment of raw as stored deflate blocks: each block
// is a 5-byte header (BFINAL 0, BTYPE 00, padded to the byte, then LEN
// and its complement) and up to 65 535 bytes of raw verbatim, so the
// segment is byte-aligned, never final and history-free, as a Compress
// segment is, while no compressor runs. It is how a part that is served
// once — a viewport's per-request envelope — joins a stitched member.
// An empty raw is no blocks at all.
func Store(raw []byte) *Segment {
	seg := &Segment{CRC: crc32.ChecksumIEEE(raw), Len: len(raw), op: crcOp(len(raw))}
	blocks := (len(raw) + maxStored - 1) / maxStored
	dst := make([]byte, 0, len(raw)+5*blocks)
	for len(raw) > 0 {
		n := min(len(raw), maxStored)
		dst = append(dst, 0, byte(n), byte(n>>8), ^byte(n), ^byte(n>>8))
		dst = append(dst, raw[:n]...)
		raw = raw[n:]
	}
	seg.Deflate = dst
	return seg
}

// gzipHeader is the constant member header: magic, CM=deflate, no
// flags, mtime 0, no extra flags, OS unknown.
var gzipHeader = [10]byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff}

// finalBlock is an empty fixed-Huffman block with BFINAL set (bits 1,
// 01, then the 7-bit end-of-block code), legal here because every
// segment ends byte-aligned.
var finalBlock = [2]byte{0x03, 0x00}

// RawLen is the length of the body the parts inflate to.
func RawLen(parts []*Segment) int {
	n := 0
	for _, p := range parts {
		n += p.Len
	}
	return n
}

// GzipLen is the exact length of the member AppendGzip builds.
func GzipLen(parts []*Segment) int {
	n := len(gzipHeader) + len(finalBlock) + 8
	for _, p := range parts {
		n += len(p.Deflate)
	}
	return n
}

// AppendGzip appends to dst one gzip member that inflates to the
// concatenation of the parts.
func AppendGzip(dst []byte, parts []*Segment) []byte {
	dst = append(dst, gzipHeader[:]...)
	var crc, size uint32
	for _, p := range parts {
		dst = append(dst, p.Deflate...)
		crc = crcCombine(crc, p.CRC, p.op)
		size += uint32(p.Len) // ISIZE is the length mod 2^32
	}
	dst = append(dst, finalBlock[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	return binary.LittleEndian.AppendUint32(dst, size)
}

// inflater is a pooled decompressor and the reader it draws from.
type inflater struct {
	src bytes.Reader
	fr  resettableReader
}

// resettableReader is what flate.NewReader returns, by its documented
// contract.
type resettableReader interface {
	io.Reader
	flate.Resetter
}

var inflaters = sync.Pool{New: func() any {
	in := new(inflater)
	in.fr = flate.NewReader(&in.src).(resettableReader)
	return in
}}

// AppendIdentity appends to dst the concatenation of the inflated
// parts: the body as a client that does not accept gzip receives it.
func AppendIdentity(dst []byte, parts []*Segment) ([]byte, error) {
	in := inflaters.Get().(*inflater)
	defer inflaters.Put(in)
	for _, p := range parts {
		in.src.Reset(p.Deflate)
		if err := in.fr.Reset(&in.src, nil); err != nil {
			return dst, fmt.Errorf("wire: resetting inflater: %w", err)
		}
		n := len(dst)
		dst = slices.Grow(dst, p.Len)
		// The segment has no final block, so the stream never reports
		// EOF; its length says where it ends.
		if _, err := io.ReadFull(in.fr, dst[n:n+p.Len]); err != nil {
			return dst, fmt.Errorf("wire: inflating segment: %w", err)
		}
		dst = dst[:n+p.Len]
	}
	return dst, nil
}

// Cell is a write-once holder of a Segment: empty until the first Get,
// the same segment on every Get after. It is how a long-lived immutable
// object (a materialized sample) carries its wire bytes for exactly as
// long as it lives. The zero value is an empty cell; a nil *Cell holds
// nothing and fills on every Get.
type Cell struct {
	mu  sync.Mutex
	seg atomic.Pointer[Segment]
}

// Get returns the cell's segment, running fill if the cell is empty.
// Concurrent first Gets run fill once, the others waiting on it; a fill
// error is returned and leaves the cell empty for the next caller. fill
// runs with the cell locked and must not use the cell.
func (c *Cell) Get(fill func() (*Segment, error)) (*Segment, error) {
	if c == nil {
		return fill()
	}
	if s := c.seg.Load(); s != nil {
		return s, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.seg.Load(); s != nil {
		return s, nil
	}
	s, err := fill()
	if err != nil {
		return nil, err
	}
	c.seg.Store(s)
	return s, nil
}

// Filled returns the cell's segment, or nil while the cell is empty.
func (c *Cell) Filled() *Segment { return c.seg.Load() }
