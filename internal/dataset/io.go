package dataset

import (
	"bufio"
	"encoding/binary"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"github.com/tabula-db/tabula/internal/geo"
)

// WriteCSV writes the table with a header row. Point columns are encoded
// as "x y" in a single field.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, len(t.schema))
	for i, f := range t.schema {
		header[i] = f.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	n := t.NumRows()
	rec := make([]string, len(t.schema))
	for r := 0; r < n; r++ {
		for c := range t.schema {
			rec[c] = t.Value(r, c).String()
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a table written by WriteCSV, using the supplied schema to
// type the fields. The header row must match the schema's column names.
func ReadCSV(r io.Reader, schema Schema) (*Table, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	if len(header) != len(schema) {
		return nil, fmt.Errorf("dataset: CSV has %d columns, schema has %d", len(header), len(schema))
	}
	for i, name := range header {
		if name != schema[i].Name {
			return nil, fmt.Errorf("dataset: CSV column %d is %q, schema expects %q", i, name, schema[i].Name)
		}
	}
	t := NewTable(schema)
	vals := make([]Value, len(schema))
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV line %d: %w", line, err)
		}
		for c, field := range rec {
			v, err := ParseValue(schema[c].Type, field)
			if err != nil {
				return nil, fmt.Errorf("dataset: CSV line %d column %q: %w", line, schema[c].Name, err)
			}
			vals[c] = v
		}
		if err := t.AppendRow(vals...); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// ParseValue parses the textual form of a value of the given type.
func ParseValue(typ Type, s string) (Value, error) {
	switch typ {
	case Int64:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("parsing %q as BIGINT: %w", s, err)
		}
		return IntValue(i), nil
	case Float64:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Value{}, fmt.Errorf("parsing %q as DOUBLE: %w", s, err)
		}
		return FloatValue(f), nil
	case String:
		return StringValue(s), nil
	case Point:
		parts := strings.Fields(s)
		if len(parts) != 2 {
			return Value{}, fmt.Errorf("parsing %q as POINT: want \"x y\"", s)
		}
		x, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return Value{}, fmt.Errorf("parsing point x %q: %w", parts[0], err)
		}
		y, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return Value{}, fmt.Errorf("parsing point y %q: %w", parts[1], err)
		}
		return PointValue(geo.Point{X: x, Y: y}), nil
	default:
		return Value{}, fmt.Errorf("dataset: unknown type %v", typ)
	}
}

// Binary persistence format (little-endian):
//
//	magic "TABD" | version u16 | ncols u16
//	per column: nameLen u16 | name | type u8
//	nrows u64
//	per column: payload
//	  Int64/Float64: nrows * 8 bytes
//	  Point:         nrows * 16 bytes
//	  String:        dictLen u32, per entry (len u32, bytes), then nrows * 4 code bytes
const (
	binaryMagic   = "TABD"
	binaryVersion = 1
)

// WriteBinary serializes the table in the compact binary format.
func (t *Table) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint16(binaryVersion)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint16(len(t.schema))); err != nil {
		return err
	}
	for _, f := range t.schema {
		if err := binary.Write(bw, binary.LittleEndian, uint16(len(f.Name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(f.Name); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(f.Type)); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(t.NumRows())); err != nil {
		return err
	}
	for _, c := range t.cols {
		if err := writeColumn(bw, c); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeColumn(w io.Writer, c *column) error {
	switch c.typ {
	case Int64:
		return binary.Write(w, binary.LittleEndian, c.ints)
	case Float64:
		return binary.Write(w, binary.LittleEndian, c.floats)
	case Point:
		flat := make([]float64, 0, len(c.points)*2)
		for _, p := range c.points {
			flat = append(flat, p.X, p.Y)
		}
		return binary.Write(w, binary.LittleEndian, flat)
	case String:
		if err := binary.Write(w, binary.LittleEndian, uint32(len(c.dict))); err != nil {
			return err
		}
		for _, s := range c.dict {
			if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
				return err
			}
			if _, err := io.WriteString(w, s); err != nil {
				return err
			}
		}
		return binary.Write(w, binary.LittleEndian, c.codes)
	}
	return fmt.Errorf("dataset: unknown column type %v", c.typ)
}

// ReadBinary deserializes a table written by WriteBinary. A reader that
// already reads single bytes (a bufio.Reader, a bytes.Reader) is read
// directly; any other is buffered.
func ReadBinary(r io.Reader) (*Table, error) {
	br, ok := r.(interface {
		io.Reader
		io.ByteReader
	})
	if !ok {
		br = bufio.NewReaderSize(r, 1<<20)
	}
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("dataset: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("dataset: bad magic %q", magic)
	}
	var version, ncols uint16
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != binaryVersion {
		return nil, fmt.Errorf("dataset: unsupported binary version %d", version)
	}
	if err := binary.Read(br, binary.LittleEndian, &ncols); err != nil {
		return nil, err
	}
	schema := make(Schema, ncols)
	for i := range schema {
		var nameLen uint16
		if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
			return nil, err
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, err
		}
		typ, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		if Type(typ) < Int64 || Type(typ) > Point {
			return nil, fmt.Errorf("dataset: bad column type byte %d", typ)
		}
		schema[i] = Field{Name: string(name), Type: Type(typ)}
	}
	var nrows uint64
	if err := binary.Read(br, binary.LittleEndian, &nrows); err != nil {
		return nil, err
	}
	if nrows > math.MaxInt32 { // row ids are int32
		return nil, fmt.Errorf("dataset: unreasonable row count %d", nrows)
	}
	t := NewTable(schema)
	for i, f := range schema {
		if err := readColumn(br, t.cols[i], int(nrows)); err != nil {
			return nil, fmt.Errorf("dataset: reading column %q: %w", f.Name, err)
		}
	}
	return t, nil
}

// readChunk is how many values ReadSlice trusts a count for before they
// have arrived.
const readChunk = 1 << 16

// ReadSlice reads n little-endian values of a fixed-size type from r. It
// allocates as the values arrive, never from n alone, so a corrupt or
// hostile count costs memory in proportion to the bytes actually present:
// at most readChunk values up front, then doubling.
func ReadSlice[T any](r io.Reader, n int) ([]T, error) {
	out := make([]T, 0, min(n, readChunk))
	for len(out) < n {
		if len(out) == cap(out) {
			out = slices.Grow(out, min(n-len(out), len(out)))
		}
		next := out[len(out):min(n, cap(out))]
		if err := binary.Read(r, binary.LittleEndian, next); err != nil {
			return nil, err
		}
		out = out[:len(out)+len(next)]
	}
	return out, nil
}

func readColumn(r io.Reader, c *column, n int) error {
	var err error
	switch c.typ {
	case Int64:
		c.ints, err = ReadSlice[int64](r, n)
		return err
	case Float64:
		c.floats, err = ReadSlice[float64](r, n)
		return err
	case Point:
		flat, err := ReadSlice[float64](r, n*2)
		if err != nil {
			return err
		}
		c.points = make([]geo.Point, n)
		for i := range c.points {
			c.points[i] = geo.Point{X: flat[2*i], Y: flat[2*i+1]}
		}
		return nil
	case String:
		var dictLen uint32
		if err := binary.Read(r, binary.LittleEndian, &dictLen); err != nil {
			return err
		}
		if dictLen > math.MaxInt32 {
			return fmt.Errorf("unreasonable dictionary size %d", dictLen)
		}
		c.dict = make([]string, 0, min(int(dictLen), readChunk))
		c.dictID = make(map[string]int32, min(int(dictLen), readChunk))
		for i := 0; i < int(dictLen); i++ {
			var sl uint32
			if err := binary.Read(r, binary.LittleEndian, &sl); err != nil {
				return err
			}
			buf, err := ReadSlice[byte](r, int(sl))
			if err != nil {
				return err
			}
			c.dict = append(c.dict, string(buf))
			c.dictID[c.dict[i]] = int32(i)
		}
		if c.codes, err = ReadSlice[int32](r, n); err != nil {
			return err
		}
		for _, code := range c.codes {
			if int(code) >= len(c.dict) || code < 0 {
				return fmt.Errorf("dictionary code %d out of range (dict size %d)", code, len(c.dict))
			}
		}
		return nil
	}
	return fmt.Errorf("unknown column type %v", c.typ)
}
