// Package dataset implements the in-memory columnar storage substrate that
// the Tabula middleware and its SQL-subset engine run on. A Table stores
// typed columns (int64, float64, dictionary-encoded string, geospatial
// point); a View is a cheap row-subset of a Table used to pass query
// results and cube-cell populations around without copying data.
//
// The package also provides exact memory-footprint accounting (the paper's
// "memory footprint" metric), CSV import/export, and a compact binary
// persistence format so a sampling cube survives middleware restarts.
package dataset

import (
	"fmt"
	"strconv"

	"github.com/tabula-db/tabula/internal/geo"
)

// Type enumerates the column types supported by the engine.
type Type int

const (
	// Int64 is a 64-bit signed integer column.
	Int64 Type = iota
	// Float64 is a double-precision column.
	Float64
	// String is a dictionary-encoded categorical column.
	String
	// Point is a 2-D geospatial point column.
	Point
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Int64:
		return "BIGINT"
	case Float64:
		return "DOUBLE"
	case String:
		return "VARCHAR"
	case Point:
		return "POINT"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Field describes one column of a schema.
type Field struct {
	Name string
	Type Type
}

// Schema is an ordered list of fields.
type Schema []Field

// ColumnIndex returns the position of the named field, or -1.
func (s Schema) ColumnIndex(name string) int {
	for i, f := range s {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Field returns the field with the given name.
func (s Schema) Field(name string) (Field, bool) {
	if i := s.ColumnIndex(name); i >= 0 {
		return s[i], true
	}
	return Field{}, false
}

// Clone returns a deep copy of the schema.
func (s Schema) Clone() Schema {
	out := make(Schema, len(s))
	copy(out, s)
	return out
}

// Value is a dynamically typed scalar: exactly one of the payload fields is
// meaningful, selected by Type. The zero Value is the Int64 zero.
type Value struct {
	Type Type
	I    int64
	F    float64
	S    string
	P    geo.Point
}

// IntValue wraps an int64.
func IntValue(v int64) Value { return Value{Type: Int64, I: v} }

// FloatValue wraps a float64.
func FloatValue(v float64) Value { return Value{Type: Float64, F: v} }

// StringValue wraps a string.
func StringValue(v string) Value { return Value{Type: String, S: v} }

// PointValue wraps a geo.Point.
func PointValue(p geo.Point) Value { return Value{Type: Point, P: p} }

// Float coerces numeric values to float64; it panics on non-numeric types,
// which indicates a query-planning bug rather than bad data.
func (v Value) Float() float64 {
	switch v.Type {
	case Int64:
		return float64(v.I)
	case Float64:
		return v.F
	default:
		panic(fmt.Sprintf("dataset: Float() on %v value", v.Type))
	}
}

// String renders the value for display and CSV export: fmt's %d and %g
// forms, written by strconv. Going through fmt would take a printer
// from its sync.Pool per call, which the race detector's runtime
// randomly empties, so a caller's allocation count would depend on the
// build.
func (v Value) String() string {
	switch v.Type {
	case Int64:
		return strconv.FormatInt(v.I, 10)
	case Float64:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case String:
		return v.S
	case Point:
		return strconv.FormatFloat(v.P.X, 'g', -1, 64) + " " + strconv.FormatFloat(v.P.Y, 'g', -1, 64)
	default:
		return fmt.Sprintf("Value(%d)", int(v.Type))
	}
}

// Equal reports whether two values are identical in type and payload.
func (v Value) Equal(o Value) bool {
	if v.Type != o.Type {
		return false
	}
	switch v.Type {
	case Int64:
		return v.I == o.I
	case Float64:
		return v.F == o.F
	case String:
		return v.S == o.S
	case Point:
		return v.P == o.P
	default:
		return false
	}
}

// Less imposes a total order within one type (for sorting group keys).
func (v Value) Less(o Value) bool {
	if v.Type != o.Type {
		return v.Type < o.Type
	}
	switch v.Type {
	case Int64:
		return v.I < o.I
	case Float64:
		return v.F < o.F
	case String:
		return v.S < o.S
	case Point:
		if v.P.X != o.P.X {
			return v.P.X < o.P.X
		}
		return v.P.Y < o.P.Y
	default:
		return false
	}
}

// column is the internal storage for one table column.
type column struct {
	typ    Type
	ints   []int64
	floats []float64
	codes  []int32 // dictionary codes for String columns
	dict   []string
	dictID map[string]int32
	points []geo.Point
}

func newColumn(t Type) *column {
	c := &column{typ: t}
	if t == String {
		c.dictID = make(map[string]int32)
	}
	return c
}

func (c *column) len() int {
	switch c.typ {
	case Int64:
		return len(c.ints)
	case Float64:
		return len(c.floats)
	case String:
		return len(c.codes)
	case Point:
		return len(c.points)
	}
	return 0
}

func (c *column) append(v Value) error {
	if v.Type != c.typ {
		return fmt.Errorf("dataset: appending %v value to %v column", v.Type, c.typ)
	}
	switch c.typ {
	case Int64:
		c.ints = append(c.ints, v.I)
	case Float64:
		c.floats = append(c.floats, v.F)
	case String:
		id, ok := c.dictID[v.S]
		if !ok {
			id = int32(len(c.dict))
			c.dict = append(c.dict, v.S)
			c.dictID[v.S] = id
		}
		c.codes = append(c.codes, id)
	case Point:
		c.points = append(c.points, v.P)
	}
	return nil
}

func (c *column) value(row int) Value {
	switch c.typ {
	case Int64:
		return IntValue(c.ints[row])
	case Float64:
		return FloatValue(c.floats[row])
	case String:
		return StringValue(c.dict[c.codes[row]])
	case Point:
		return PointValue(c.points[row])
	}
	panic("dataset: bad column type")
}

// footprint returns the column's in-memory size in bytes, counting slice
// backing arrays, dictionary strings, and map overhead approximations.
func (c *column) footprint() int64 {
	var b int64
	b += int64(cap(c.ints)) * 8
	b += int64(cap(c.floats)) * 8
	b += int64(cap(c.codes)) * 4
	b += int64(cap(c.points)) * 16
	for _, s := range c.dict {
		b += int64(len(s)) + 16 // string header
	}
	if c.dictID != nil {
		b += int64(len(c.dictID)) * 48 // rough per-entry map cost
	}
	return b
}

// Table is an append-only columnar table.
type Table struct {
	schema Schema
	cols   []*column
}

// NewTable creates an empty table with the given schema.
func NewTable(schema Schema) *Table {
	t := &Table{schema: schema.Clone()}
	t.cols = make([]*column, len(schema))
	for i, f := range schema {
		t.cols[i] = newColumn(f.Type)
	}
	return t
}

// Schema returns the table schema. Callers must not mutate it.
func (t *Table) Schema() Schema { return t.schema }

// NumRows returns the row count.
func (t *Table) NumRows() int {
	if len(t.cols) == 0 {
		return 0
	}
	return t.cols[0].len()
}

// NumCols returns the column count.
func (t *Table) NumCols() int { return len(t.cols) }

// AppendRow appends one row; values must match the schema positionally.
func (t *Table) AppendRow(values ...Value) error {
	if len(values) != len(t.cols) {
		return fmt.Errorf("dataset: AppendRow got %d values for %d columns", len(values), len(t.cols))
	}
	for i, v := range values {
		if err := t.cols[i].append(v); err != nil {
			return fmt.Errorf("column %q: %w", t.schema[i].Name, err)
		}
	}
	return nil
}

// MustAppendRow is AppendRow that panics on schema mismatch; intended for
// generators and tests where the schema is static.
func (t *Table) MustAppendRow(values ...Value) {
	if err := t.AppendRow(values...); err != nil {
		panic(err)
	}
}

// AppendTable bulk-appends every row of src to t, copying whole column
// slices instead of boxing values row by row: numeric and point columns
// append their backing arrays directly, and string columns remap src's
// dictionary codes through one code-to-code table (built once per
// column, not once per row). Column types must match positionally; the
// schema is validated before any column is touched, so a mismatch
// leaves t unchanged.
func (t *Table) AppendTable(src *Table) error {
	if len(src.cols) != len(t.cols) {
		return fmt.Errorf("dataset: AppendTable got %d columns, table has %d", len(src.cols), len(t.cols))
	}
	for i := range t.cols {
		if src.cols[i].typ != t.cols[i].typ {
			return fmt.Errorf("dataset: AppendTable column %q is %v, table expects %v",
				src.schema[i].Name, src.cols[i].typ, t.cols[i].typ)
		}
	}
	for i, c := range t.cols {
		s := src.cols[i]
		switch c.typ {
		case Int64:
			c.ints = append(c.ints, s.ints...)
		case Float64:
			c.floats = append(c.floats, s.floats...)
		case Point:
			c.points = append(c.points, s.points...)
		case String:
			remap := make([]int32, len(s.dict))
			for j, str := range s.dict {
				id, ok := c.dictID[str]
				if !ok {
					id = int32(len(c.dict))
					c.dict = append(c.dict, str)
					c.dictID[str] = id
				}
				remap[j] = id
			}
			for _, code := range s.codes {
				c.codes = append(c.codes, remap[code])
			}
		}
	}
	return nil
}

// Value returns the value at (row, col).
func (t *Table) Value(row, col int) Value { return t.cols[col].value(row) }

// Ints returns the backing int64 slice of column col; it panics if the
// column is not Int64. The caller must not mutate the slice.
func (t *Table) Ints(col int) []int64 {
	c := t.cols[col]
	if c.typ != Int64 {
		panic(fmt.Sprintf("dataset: Ints on %v column %q", c.typ, t.schema[col].Name))
	}
	return c.ints
}

// Floats returns the backing float64 slice of column col; it panics if the
// column is not Float64.
func (t *Table) Floats(col int) []float64 {
	c := t.cols[col]
	if c.typ != Float64 {
		panic(fmt.Sprintf("dataset: Floats on %v column %q", c.typ, t.schema[col].Name))
	}
	return c.floats
}

// Points returns the backing point slice of column col; it panics if the
// column is not Point.
func (t *Table) Points(col int) []geo.Point {
	c := t.cols[col]
	if c.typ != Point {
		panic(fmt.Sprintf("dataset: Points on %v column %q", c.typ, t.schema[col].Name))
	}
	return c.points
}

// StringCodes exposes the dictionary codes and dictionary of a String
// column, enabling O(1) categorical grouping. It panics on other types.
func (t *Table) StringCodes(col int) (codes []int32, dict []string) {
	c := t.cols[col]
	if c.typ != String {
		panic(fmt.Sprintf("dataset: StringCodes on %v column %q", c.typ, t.schema[col].Name))
	}
	return c.codes, c.dict
}

// DictSize returns the cardinality of a String column's dictionary.
func (t *Table) DictSize(col int) int {
	c := t.cols[col]
	if c.typ != String {
		panic("dataset: DictSize on non-string column")
	}
	return len(c.dict)
}

// Footprint returns the table's total in-memory size in bytes.
func (t *Table) Footprint() int64 {
	var b int64 = 64 // struct overhead
	for _, c := range t.cols {
		b += c.footprint()
	}
	return b
}

// Row materializes row i as a value slice (mostly for tests and display).
func (t *Table) Row(i int) []Value {
	out := make([]Value, len(t.cols))
	for c := range t.cols {
		out[c] = t.cols[c].value(i)
	}
	return out
}

// View is a subset of a table's rows, identified by row ids. A nil Rows
// slice with All=true denotes the full table, avoiding an O(N) id list for
// whole-table operations.
type View struct {
	Table *Table
	Rows  []int32
	All   bool
}

// FullView returns a view over every row of t.
func FullView(t *Table) View { return View{Table: t, All: true} }

// NewView returns a view over the given row ids of t.
func NewView(t *Table, rows []int32) View { return View{Table: t, Rows: rows} }

// Len returns the number of rows in the view.
func (v View) Len() int {
	if v.All {
		return v.Table.NumRows()
	}
	return len(v.Rows)
}

// RowID maps a view-relative index to a table row id.
func (v View) RowID(i int) int32 {
	if v.All {
		return int32(i)
	}
	return v.Rows[i]
}

// Value returns the value at view row i, column col.
func (v View) Value(i, col int) Value { return v.Table.Value(int(v.RowID(i)), col) }

// Materialize copies the view's rows into a standalone table. Samples
// persisted in the sampling cube are materialized so they survive after the
// raw table is released.
func (v View) Materialize() *Table {
	out := NewTable(v.Table.Schema())
	n := v.Len()
	for i := 0; i < n; i++ {
		row := int(v.RowID(i))
		vals := make([]Value, v.Table.NumCols())
		for c := range vals {
			vals[c] = v.Table.Value(row, c)
		}
		out.MustAppendRow(vals...)
	}
	return out
}

// FloatsOf extracts column col of the view as a float slice (numeric
// columns only).
func (v View) FloatsOf(col int) []float64 {
	n := v.Len()
	out := make([]float64, n)
	typ := v.Table.schema[col].Type
	switch typ {
	case Float64:
		fs := v.Table.Floats(col)
		for i := 0; i < n; i++ {
			out[i] = fs[v.RowID(i)]
		}
	case Int64:
		is := v.Table.Ints(col)
		for i := 0; i < n; i++ {
			out[i] = float64(is[v.RowID(i)])
		}
	default:
		panic(fmt.Sprintf("dataset: FloatsOf on %v column", typ))
	}
	return out
}

// PointsOf extracts column col of the view as a point slice.
func (v View) PointsOf(col int) []geo.Point {
	ps := v.Table.Points(col)
	n := v.Len()
	out := make([]geo.Point, n)
	for i := 0; i < n; i++ {
		out[i] = ps[v.RowID(i)]
	}
	return out
}
