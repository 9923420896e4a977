package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sort"

	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/engine"
)

// Persistence format (little-endian):
//
//	magic "TBLC" | version u16
//	theta f64 | lossName str | nattrs u16 | per attr: name str, dict (u32 count + values)
//	global sample (dataset binary)
//	numShards u32
//	distinct samples: u32 count + per sample: u32 byteLen + dataset binary
//	per shard (numShards sections, in shard-index order):
//	  local sample table: u32 count + (distinct sample index u32)*
//	  cube table: u32 count + (key u64, local sampleID i32)*
//
// Version 2 introduced the per-shard sections: each shard persists its
// cube-table entries and a local sample table of indexes into the
// distinct-sample pool (a representative shared by several shards is
// written once and re-linked on load). Samples are length-prefixed so
// Load can split the pool without parsing and reconstruct the shards in
// parallel. Generations are NOT persisted: a restarted middleware has
// no caches to invalidate, so every shard restarts at generation 1.
//
// Values inside dictionaries are (type u8, payload); str is u32 len +
// bytes. The raw table is NOT persisted: a loaded instance answers
// queries but cannot be rebuilt.
const (
	persistMagic   = "TBLC"
	persistVersion = 2
)

// loadChunk bounds the elements Load allocates for a count read from the
// stream before the elements themselves arrive: a hostile count costs
// memory in proportion to the bytes actually present.
const loadChunk = 1 << 16

// maxPersistShards bounds the shard count read from a stream; anything
// larger indicates corruption, not configuration.
const maxPersistShards = 1 << 16

func writeStr(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readStr(r io.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > 1<<24 {
		return "", fmt.Errorf("core: unreasonable string length %d", n)
	}
	buf, err := dataset.ReadSlice[byte](r, int(n))
	if err != nil {
		return "", err
	}
	return string(buf), nil
}

func writeValue(w io.Writer, v dataset.Value) error {
	if err := binary.Write(w, binary.LittleEndian, uint8(v.Type)); err != nil {
		return err
	}
	switch v.Type {
	case dataset.Int64:
		return binary.Write(w, binary.LittleEndian, v.I)
	case dataset.Float64:
		return binary.Write(w, binary.LittleEndian, v.F)
	case dataset.String:
		return writeStr(w, v.S)
	case dataset.Point:
		if err := binary.Write(w, binary.LittleEndian, v.P.X); err != nil {
			return err
		}
		return binary.Write(w, binary.LittleEndian, v.P.Y)
	}
	return fmt.Errorf("core: cannot persist value type %v", v.Type)
}

func readValue(r io.Reader) (dataset.Value, error) {
	var t uint8
	if err := binary.Read(r, binary.LittleEndian, &t); err != nil {
		return dataset.Value{}, err
	}
	switch dataset.Type(t) {
	case dataset.Int64:
		var i int64
		err := binary.Read(r, binary.LittleEndian, &i)
		return dataset.IntValue(i), err
	case dataset.Float64:
		var f float64
		err := binary.Read(r, binary.LittleEndian, &f)
		return dataset.FloatValue(f), err
	case dataset.String:
		s, err := readStr(r)
		return dataset.StringValue(s), err
	case dataset.Point:
		var v dataset.Value
		v.Type = dataset.Point
		if err := binary.Read(r, binary.LittleEndian, &v.P.X); err != nil {
			return dataset.Value{}, err
		}
		err := binary.Read(r, binary.LittleEndian, &v.P.Y)
		return v, err
	}
	return dataset.Value{}, fmt.Errorf("core: bad persisted value type %d", t)
}

// Save serializes the materialized sampling cube so a restarted
// middleware can keep answering queries without re-initialization. It
// serializes one atomically loaded snapshot, so saving is safe (and
// consistent) while Appends run concurrently. Saves of the same
// snapshot are byte-identical: distinct samples are written in
// deterministic first-occurrence order and cube-table keys in sorted
// order.
func (t *Tabula) Save(w io.Writer) error {
	sn := t.snap.Load()
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(persistMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint16(persistVersion)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, t.params.Theta); err != nil {
		return err
	}
	if err := writeStr(bw, t.lossName()); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint16(len(t.params.CubedAttrs))); err != nil {
		return err
	}
	for ai, name := range t.params.CubedAttrs {
		if err := writeStr(bw, name); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(sn.attrVals[ai]))); err != nil {
			return err
		}
		for _, v := range sn.attrVals[ai] {
			if err := writeValue(bw, v); err != nil {
				return err
			}
		}
	}
	if err := sn.global.tbl.WriteBinary(bw); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(sn.shards))); err != nil {
		return err
	}

	// Distinct sample pool, length-prefixed so Load can parallelize the
	// parse.
	distinct := sn.distinctSamples()
	poolIdx := make(map[*sample]uint32, len(distinct))
	for i, s := range distinct {
		poolIdx[s] = uint32(i)
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(distinct))); err != nil {
		return err
	}
	var buf bytes.Buffer
	for _, s := range distinct {
		buf.Reset()
		if err := s.tbl.WriteBinary(&buf); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(buf.Len())); err != nil {
			return err
		}
		if _, err := bw.Write(buf.Bytes()); err != nil {
			return err
		}
	}

	// Per-shard sections.
	for _, sh := range sn.shards {
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(sh.samples))); err != nil {
			return err
		}
		for _, s := range sh.samples {
			if err := binary.Write(bw, binary.LittleEndian, poolIdx[s]); err != nil {
				return err
			}
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(sh.cubeTable))); err != nil {
			return err
		}
		keys := make([]uint64, 0, len(sh.cubeTable))
		for k := range sh.cubeTable {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			if err := binary.Write(bw, binary.LittleEndian, k); err != nil {
				return err
			}
			if err := binary.Write(bw, binary.LittleEndian, sh.cubeTable[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// rawShard is a shard section as read from the stream, before the
// sample pool is linked in.
type rawShard struct {
	sampleRefs []uint32
	keys       []uint64
	ids        []int32
}

// Load reconstructs a query-serving Tabula instance from a Save stream.
// The loaded instance answers queries with the original guarantee but
// cannot be rebuilt (the raw table is not part of the cube). The stream
// is read sequentially, then the expensive reconstruction — parsing the
// sample pool and building the per-shard cube tables — runs on all
// cores.
func Load(r io.Reader) (*Tabula, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != persistMagic {
		return nil, fmt.Errorf("core: bad cube magic %q", magic)
	}
	var version uint16
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != persistVersion {
		return nil, fmt.Errorf("core: unsupported cube version %d", version)
	}
	t := &Tabula{}
	sn := &snapshot{version: 1, epoch: newEpoch()}
	if err := binary.Read(br, binary.LittleEndian, &t.params.Theta); err != nil {
		return nil, err
	}
	name, err := readStr(br)
	if err != nil {
		return nil, err
	}
	t.loadedLossName = name
	var nattrs uint16
	if err := binary.Read(br, binary.LittleEndian, &nattrs); err != nil {
		return nil, err
	}
	cards := make([]int, nattrs)
	sn.attrVals = make([][]dataset.Value, nattrs)
	for ai := 0; ai < int(nattrs); ai++ {
		aname, err := readStr(br)
		if err != nil {
			return nil, err
		}
		t.params.CubedAttrs = append(t.params.CubedAttrs, aname)
		var n uint32
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return nil, err
		}
		vals := make([]dataset.Value, 0, min(n, loadChunk))
		for i := uint32(0); i < n; i++ {
			v, err := readValue(br)
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
		}
		sn.attrVals[ai] = vals
		cards[ai] = len(vals)
	}
	sn.attrIdx = make(map[string]int, len(t.params.CubedAttrs))
	for i, aname := range t.params.CubedAttrs {
		sn.attrIdx[aname] = i
	}
	sn.dict = newDictionary(sn.attrVals)
	sn.codec, err = engine.NewKeyCodec(cards)
	if err != nil {
		return nil, err
	}
	global, err := dataset.ReadBinary(br)
	if err != nil {
		return nil, fmt.Errorf("core: reading global sample: %w", err)
	}
	sn.global = &sample{tbl: global}
	sn.schema = global.Schema()
	sn.empty = &sample{tbl: dataset.NewTable(sn.schema)}

	var nShards uint32
	if err := binary.Read(br, binary.LittleEndian, &nShards); err != nil {
		return nil, err
	}
	if nShards == 0 || nShards > maxPersistShards {
		return nil, fmt.Errorf("core: unreasonable shard count %d", nShards)
	}
	t.params.Shards = int(nShards)

	// Read the length-prefixed sample pool without parsing; the blobs
	// decode in parallel below.
	var nPool uint32
	if err := binary.Read(br, binary.LittleEndian, &nPool); err != nil {
		return nil, err
	}
	if nPool > 1<<24 {
		return nil, fmt.Errorf("core: unreasonable sample count %d", nPool)
	}
	blobs := make([][]byte, 0, min(nPool, loadChunk))
	for i := uint32(0); i < nPool; i++ {
		var n uint32
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return nil, err
		}
		if n > 1<<30 {
			return nil, fmt.Errorf("core: unreasonable sample size %d", n)
		}
		blob, err := dataset.ReadSlice[byte](br, int(n))
		if err != nil {
			return nil, err
		}
		blobs = append(blobs, blob)
	}

	// Read the per-shard sections into raw arrays (sequential: the
	// stream dictates order).
	raws := make([]rawShard, nShards)
	for si := range raws {
		var nRefs uint32
		if err := binary.Read(br, binary.LittleEndian, &nRefs); err != nil {
			return nil, err
		}
		if nRefs > 1<<24 {
			return nil, fmt.Errorf("core: shard %d has unreasonable sample count %d", si, nRefs)
		}
		refs, err := dataset.ReadSlice[uint32](br, int(nRefs))
		if err != nil {
			return nil, err
		}
		for _, ref := range refs {
			if ref >= nPool {
				return nil, fmt.Errorf("core: shard %d references missing pool sample %d", si, ref)
			}
		}
		var nCells uint32
		if err := binary.Read(br, binary.LittleEndian, &nCells); err != nil {
			return nil, err
		}
		if nCells > 1<<28 {
			return nil, fmt.Errorf("core: shard %d has unreasonable cell count %d", si, nCells)
		}
		keys := make([]uint64, 0, min(nCells, loadChunk))
		ids := make([]int32, 0, min(nCells, loadChunk))
		var entry [12]byte // key u64, sample index i32
		for i := uint32(0); i < nCells; i++ {
			if _, err := io.ReadFull(br, entry[:]); err != nil {
				return nil, err
			}
			key, id := binary.LittleEndian.Uint64(entry[:8]), int32(binary.LittleEndian.Uint32(entry[8:]))
			if id < 0 || id >= int32(nRefs) {
				return nil, fmt.Errorf("core: shard %d cube table references missing sample %d", si, id)
			}
			keys, ids = append(keys, key), append(ids, id)
		}
		raws[si] = rawShard{sampleRefs: refs, keys: keys, ids: ids}
	}

	// Parallel reconstruction: decode the sample pool and build each
	// shard's cube table on all cores.
	workers := runtime.GOMAXPROCS(0)
	pool := make([]*sample, nPool)
	if err := runIndexes(workers, len(blobs), func(i int) error {
		s, err := dataset.ReadBinary(bytes.NewReader(blobs[i]))
		if err != nil {
			return fmt.Errorf("core: reading sample %d: %w", i, err)
		}
		pool[i] = &sample{tbl: s}
		return nil
	}); err != nil {
		return nil, err
	}
	sn.shards = make([]*shard, nShards)
	if err := runIndexes(workers, int(nShards), func(si int) error {
		raw := raws[si]
		sh := newShard()
		sh.samples = make([]*sample, len(raw.sampleRefs))
		for i, ref := range raw.sampleRefs {
			sh.samples[i] = pool[ref]
		}
		for i, k := range raw.keys {
			sh.cubeTable[k] = raw.ids[i]
		}
		sn.shards[si] = sh
		return nil
	}); err != nil {
		return nil, err
	}

	// Recompute footprint stats for the loaded instance.
	sn.stats.GlobalSampleSize = global.NumRows()
	sn.stats.NumIcebergCells = sn.numIcebergCells()
	sn.stats.NumPersistedSamples = len(pool)
	sn.stats.GlobalSampleBytes = global.Footprint()
	sn.stats.CubeTableBytes = int64(sn.numIcebergCells()) * cubeTableEntryBytes
	for _, s := range pool {
		sn.stats.SampleTableBytes += s.tbl.Footprint()
	}
	t.snap.Store(sn)
	return t, nil
}
