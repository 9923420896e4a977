package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/loss"
)

// Truncating a persisted cube at any offset must yield an error (never a
// panic, never a silently short cube).
func TestLoadTruncatedStreams(t *testing.T) {
	tbl := taxiTable(800, 111)
	tab := buildTabula(t, tbl, loss.NewMean("fare"), 0.08)
	var buf bytes.Buffer
	if err := tab.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	offsets := []int{0, 1, 3, 4, 5, 10, 50, len(full) / 4, len(full) / 2, len(full) - 1}
	for _, off := range offsets {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Load panicked at truncation %d: %v", off, r)
				}
			}()
			if _, err := Load(bytes.NewReader(full[:off])); err == nil {
				t.Errorf("Load of %d/%d bytes should fail", off, len(full))
			}
		}()
	}
}

// Randomly corrupting single bytes must never panic; it may load (benign
// payload flips) or error, but a loaded cube must stay internally
// consistent enough to answer queries without crashing.
func TestLoadCorruptedBytes(t *testing.T) {
	tbl := taxiTable(500, 112)
	tab := buildTabula(t, tbl, loss.NewMean("fare"), 0.1)
	var buf bytes.Buffer
	if err := tab.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		corrupted := append([]byte(nil), full...)
		pos := r.Intn(len(corrupted))
		corrupted[pos] ^= byte(1 + r.Intn(255))
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("Load panicked with byte %d flipped: %v", pos, rec)
				}
			}()
			loaded, err := Load(bytes.NewReader(corrupted))
			if err != nil {
				return // rejected, fine
			}
			// If it loaded, a query must not crash.
			_, _ = loaded.Query(context.Background(), nil)
		}()
	}
}

// Save must be deterministic: two saves of the same cube are identical
// byte-for-byte (sorted cube-table iteration).
func TestSaveDeterministic(t *testing.T) {
	tbl := taxiTable(1000, 113)
	tab := buildTabula(t, tbl, loss.NewMean("fare"), 0.08)
	var a, b bytes.Buffer
	if err := tab.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := tab.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("Save output differs between calls")
	}
}

// stream writes the fields of a cube file by hand, little-endian.
type stream struct{ bytes.Buffer }

func (s *stream) put(fields ...any) *stream {
	for _, f := range fields {
		_ = binary.Write(s, binary.LittleEndian, f)
	}
	return s
}

func (s *stream) str(v string) *stream { return s.put(uint32(len(v)), []byte(v)) }

// cubeStart starts a cube file: magic, version and θ; cubeHeader adds the
// loss name.
func cubeStart() *stream {
	s := &stream{}
	s.WriteString(persistMagic)
	return s.put(uint16(persistVersion), 0.1)
}

func cubeHeader() *stream { return cubeStart().str("mean") }

// emptyTable is the binary form of a zero-row table of one column of the
// given type: it ends with the row count (and, for a string column, the
// dictionary size), which the hostile streams below overwrite.
func emptyTable(t testing.TB, typ dataset.Type) []byte {
	var b bytes.Buffer
	if err := dataset.NewTable(dataset.Schema{{Name: "c", Type: typ}}).WriteBinary(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// hostileStreams are truncated cube files whose last field is a count far
// beyond the bytes behind it, one for every count Load reads, and a pool
// of empty samples, each of which once cost a 1 MiB read buffer.
func hostileStreams(t testing.TB) map[string][]byte {
	oneAttr := func() *stream {
		return cubeHeader().put(uint16(1)).str("a").put(uint32(1), []byte{byte(dataset.Int64), 7, 0, 0, 0, 0, 0, 0, 0})
	}
	rows := emptyTable(t, dataset.Float64)
	binary.LittleEndian.PutUint64(rows[len(rows)-8:], math.MaxInt32)
	dict := emptyTable(t, dataset.String)
	binary.LittleEndian.PutUint32(dict[len(dict)-4:], math.MaxUint32)
	global := emptyTable(t, dataset.Float64)
	shards := func() *stream { return oneAttr().put(global, uint32(1)) }
	return map[string][]byte{
		"loss name length":         cubeStart().put(uint32(1 << 24)).Bytes(),
		"attribute name length":    cubeHeader().put(uint16(1), uint32(1<<24)).Bytes(),
		"dictionary count 2^26":    cubeHeader().put(uint16(1)).str("a").put(uint32(1 << 26)).Bytes(),
		"dictionary count 2^32-1":  cubeHeader().put(uint16(1)).str("a").put(uint32(math.MaxUint32)).Bytes(),
		"string value length":      cubeHeader().put(uint16(1)).str("a").put(uint32(1), []byte{byte(dataset.String)}, uint32(1<<24)).Bytes(),
		"global sample rows":       oneAttr().put(rows).Bytes(),
		"global sample dictionary": oneAttr().put(dict).Bytes(),
		"pool samples":             shards().put(uint32(1 << 24)).Bytes(),
		"pool sample size":         shards().put(uint32(1), uint32(1<<30)).Bytes(),
		"shard samples":            shards().put(uint32(0), uint32(1<<24)).Bytes(),
		"shard cells":              shards().put(uint32(0), uint32(0), uint32(1<<28)).Bytes(),
		"empty pool samples":       append(shards().put(uint32(64)).Bytes(), make([]byte, 64*4+8)...),
	}
}

// A count read from a cube file buys memory only as the data it counts
// arrives: each truncated stream above fails quickly and cheaply, not
// after allocating what its count asks for (up to 240 GB).
func TestLoadHostileCountsFailFast(t *testing.T) {
	for name, data := range hostileStreams(t) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := Load(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: Load of a truncated %d-byte stream succeeded", name, len(data))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 16<<20 {
			t.Errorf("%s: Load allocated %d MiB before failing on a %d-byte stream", name, got>>20, len(data))
		}
	}
}

// FuzzLoad feeds arbitrary bytes to Load, seeded with a small saved cube
// and the hostile streams: it must never panic, and a stream it accepts
// must save and load again.
func FuzzLoad(f *testing.F) {
	tab, err := Build(context.Background(), taxiTable(60, 5), DefaultParams(loss.NewMean("fare"), 0.1, "distance", "payment"))
	if err != nil {
		f.Fatal(err)
	}
	var saved bytes.Buffer
	if err := tab.Save(&saved); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.Bytes())
	for _, data := range hostileStreams(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := loaded.Save(&again); err != nil {
			t.Fatalf("a loaded cube does not save: %v", err)
		}
		if _, err := Load(&again); err != nil {
			t.Fatalf("a re-saved cube does not load: %v", err)
		}
	})
}
