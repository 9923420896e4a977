package wire

import (
	"bytes"
	"compress/gzip"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// FuzzCRC32Combine checks the operator form against the definition:
// combine(crc(a), crc(b), op(len b)) is the CRC of a‖b, empty parts
// included.
func FuzzCRC32Combine(f *testing.F) {
	f.Add([]byte(nil), []byte(nil))
	f.Add([]byte("a"), []byte(nil))
	f.Add([]byte(nil), []byte("b"))
	f.Add([]byte(`{"sample":`), []byte(`,"from_global":false}`))
	f.Add(bytes.Repeat([]byte{0xff}, 70000), bytes.Repeat([]byte{0}, 65536))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		want := crc32.ChecksumIEEE(append(append([]byte(nil), a...), b...))
		got := crcCombine(crc32.ChecksumIEEE(a), crc32.ChecksumIEEE(b), crcOp(len(b)))
		if got != want {
			t.Fatalf("combine over %d+%d bytes = %08x, want %08x", len(a), len(b), got, want)
		}
	})
}

// Lengths whose binary form reaches past the 32-entry x^(2^k) table
// exercise the index wrap.
func TestCRCOpLongLengths(t *testing.T) {
	a := []byte("head")
	for _, n := range []int{1 << 20, 1<<24 + 7} {
		b := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(b)
		want := crc32.Update(crc32.ChecksumIEEE(a), crc32.IEEETable, b)
		if got := crcCombine(crc32.ChecksumIEEE(a), crc32.ChecksumIEEE(b), crcOp(n)); got != want {
			t.Errorf("combine with a %d-byte tail = %08x, want %08x", n, got, want)
		}
	}
	// 2^29 bytes is bit 32 of the bit length: the first wrapped index.
	if got, want := crcOp(1<<29), x2n[0]; got != want {
		t.Errorf("crcOp(2^29) = %08x, want x^(2^32) = x = %08x", got, want)
	}
}

func mustCompress(t testing.TB, raw []byte) *Segment {
	t.Helper()
	s, err := Compress(raw)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// readMember reads exactly one gzip member from b and fails if any
// byte follows it.
func readMember(t *testing.T, b []byte) []byte {
	t.Helper()
	br := bytes.NewReader(b)
	zr, err := gzip.NewReader(br)
	if err != nil {
		t.Fatal(err)
	}
	zr.Multistream(false)
	out, err := io.ReadAll(zr) // verifies the trailer's CRC and size
	if err != nil {
		t.Fatalf("reading member: %v", err)
	}
	if br.Len() != 0 {
		t.Fatalf("%d bytes follow the member", br.Len())
	}
	return out
}

func TestStitchedMemberInflatesToItsParts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	big := make([]byte, 200<<10) // spans several deflate blocks
	for i := range big {
		big[i] = "0123456789,[]"[rng.Intn(13)]
	}
	raws := [][]byte{[]byte(`{"payloads":[`), nil, big, []byte(","), big[:777], nil, []byte("]}")}
	var parts []*Segment
	var want []byte
	for _, raw := range raws {
		parts = append(parts, mustCompress(t, raw))
		want = append(want, raw...)
	}
	for n := 0; n <= len(parts); n++ {
		member := AppendGzip(nil, parts[:n])
		if len(member) != GzipLen(parts[:n]) {
			t.Fatalf("%d parts: member is %d bytes, GzipLen says %d", n, len(member), GzipLen(parts[:n]))
		}
		got := readMember(t, member)
		if !bytes.Equal(got, want[:RawLen(parts[:n])]) {
			t.Fatalf("%d parts: member does not inflate to the concatenated parts", n)
		}
		id, err := AppendIdentity([]byte("x"), parts[:n])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(id[1:], got) || id[0] != 'x' {
			t.Fatalf("%d parts: identity rendering differs from the inflated member", n)
		}
	}
}

// A segment's bytes depend on its input alone, not on what the pooled
// compressor saw before.
func TestCompressIsHistoryIndependent(t *testing.T) {
	raw := bytes.Repeat([]byte(`["CMT",12.5,[-73.98,40.75]],`), 300)
	first := mustCompress(t, raw)
	for i := 0; i < 20; i++ {
		noise := make([]byte, 1+i*4099)
		rand.New(rand.NewSource(int64(i))).Read(noise)
		copy(noise[len(noise)/2:], raw) // leave look-alike history behind
		mustCompress(t, noise)
		again := mustCompress(t, raw)
		if !bytes.Equal(again.Deflate, first.Deflate) || again.CRC != first.CRC || again.Len != first.Len || again.op != first.op {
			t.Fatalf("round %d: recompressing the same input gave a different segment", i)
		}
	}
}

func TestCellFillsOnceUnderConcurrency(t *testing.T) {
	var c Cell
	var fills atomic.Int32
	seg := mustCompress(t, []byte("payload"))
	const n = 32
	got := make([]*Segment, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := c.Get(func() (*Segment, error) {
				fills.Add(1)
				return seg, nil
			})
			if err != nil {
				t.Error(err)
			}
			got[i] = s
		}(i)
	}
	wg.Wait()
	if fills.Load() != 1 {
		t.Fatalf("%d fills for %d concurrent first touches, want 1", fills.Load(), n)
	}
	for i, s := range got {
		if s != seg {
			t.Fatalf("caller %d got segment %p, want %p", i, s, seg)
		}
	}
	if c.Filled() != seg {
		t.Fatal("Filled does not report the stored segment")
	}
}

func TestCellFillErrorLeavesItEmpty(t *testing.T) {
	var c Cell
	boom := errors.New("boom")
	if _, err := c.Get(func() (*Segment, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Filled() != nil {
		t.Fatal("a failed fill left a segment behind")
	}
	seg := mustCompress(t, nil)
	if s, err := c.Get(func() (*Segment, error) { return seg, nil }); err != nil || s != seg {
		t.Fatalf("retry after a failed fill: %p, %v", s, err)
	}
	// A nil cell holds nothing.
	var none *Cell
	if s, err := none.Get(func() (*Segment, error) { return seg, nil }); err != nil || s != seg {
		t.Fatalf("nil cell: %p, %v", s, err)
	}
}

// BenchmarkStitch is the request-time cost of a 40-payload viewport:
// copies and one CRC multiply per part.
func BenchmarkStitch(b *testing.B) {
	var parts []*Segment
	for i := 0; i < 40; i++ {
		parts = append(parts, mustCompress(b, bytes.Repeat([]byte(`[1.5,"x"],`), 200+i)), mustCompress(b, []byte(",")))
	}
	dst := make([]byte, 0, GzipLen(parts))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = AppendGzip(dst[:0], parts)
	}
}
