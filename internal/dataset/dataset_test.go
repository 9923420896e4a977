package dataset

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/tabula-db/tabula/internal/geo"
)

func testSchema() Schema {
	return Schema{
		{Name: "id", Type: Int64},
		{Name: "fare", Type: Float64},
		{Name: "payment", Type: String},
		{Name: "pickup", Type: Point},
	}
}

func buildTestTable(t *testing.T, n int) *Table {
	t.Helper()
	tbl := NewTable(testSchema())
	r := rand.New(rand.NewSource(11))
	payments := []string{"cash", "credit", "dispute"}
	for i := 0; i < n; i++ {
		tbl.MustAppendRow(
			IntValue(int64(i)),
			FloatValue(r.Float64()*50),
			StringValue(payments[r.Intn(len(payments))]),
			PointValue(geo.Point{X: -74 + r.Float64(), Y: 40 + r.Float64()}),
		)
	}
	return tbl
}

func TestSchemaLookups(t *testing.T) {
	s := testSchema()
	if got := s.ColumnIndex("payment"); got != 2 {
		t.Fatalf("ColumnIndex(payment) = %d, want 2", got)
	}
	if got := s.ColumnIndex("missing"); got != -1 {
		t.Fatalf("ColumnIndex(missing) = %d, want -1", got)
	}
	f, ok := s.Field("fare")
	if !ok || f.Type != Float64 {
		t.Fatalf("Field(fare) = %+v, %v", f, ok)
	}
	c := s.Clone()
	c[0].Name = "changed"
	if s[0].Name != "id" {
		t.Fatal("Clone did not deep-copy")
	}
}

func TestAppendAndRead(t *testing.T) {
	tbl := buildTestTable(t, 100)
	if tbl.NumRows() != 100 || tbl.NumCols() != 4 {
		t.Fatalf("rows/cols = %d/%d", tbl.NumRows(), tbl.NumCols())
	}
	v := tbl.Value(5, 0)
	if v.Type != Int64 || v.I != 5 {
		t.Fatalf("Value(5,0) = %+v", v)
	}
	row := tbl.Row(5)
	if len(row) != 4 || !row[0].Equal(IntValue(5)) {
		t.Fatalf("Row(5) = %+v", row)
	}
}

func TestAppendRowErrors(t *testing.T) {
	tbl := NewTable(testSchema())
	if err := tbl.AppendRow(IntValue(1)); err == nil {
		t.Fatal("want arity error")
	}
	err := tbl.AppendRow(FloatValue(1), FloatValue(1), StringValue("x"), PointValue(geo.Point{}))
	if err == nil || !strings.Contains(err.Error(), "id") {
		t.Fatalf("want type error naming column id, got %v", err)
	}
}

func TestDictionaryEncoding(t *testing.T) {
	tbl := buildTestTable(t, 1000)
	codes, dict := tbl.StringCodes(2)
	if len(codes) != 1000 {
		t.Fatalf("len(codes) = %d", len(codes))
	}
	if len(dict) != 3 || tbl.DictSize(2) != 3 {
		t.Fatalf("dict = %v", dict)
	}
	for i, c := range codes {
		if dict[c] != tbl.Value(i, 2).S {
			t.Fatalf("row %d: code %d -> %q, Value -> %q", i, c, dict[c], tbl.Value(i, 2).S)
		}
	}
}

func TestTypedAccessorsPanicOnWrongType(t *testing.T) {
	tbl := buildTestTable(t, 10)
	for name, f := range map[string]func(){
		"Ints":        func() { tbl.Ints(1) },
		"Floats":      func() { tbl.Floats(0) },
		"Points":      func() { tbl.Points(2) },
		"StringCodes": func() { tbl.StringCodes(3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on wrong type should panic", name)
				}
			}()
			f()
		}()
	}
}

func TestValueEqualAndLess(t *testing.T) {
	cases := []struct{ a, b Value }{
		{IntValue(1), IntValue(2)},
		{FloatValue(1.5), FloatValue(2.5)},
		{StringValue("a"), StringValue("b")},
		{PointValue(geo.Point{X: 0, Y: 0}), PointValue(geo.Point{X: 1, Y: 0})},
	}
	for _, c := range cases {
		if !c.a.Equal(c.a) || c.a.Equal(c.b) {
			t.Errorf("Equal broken for %v vs %v", c.a, c.b)
		}
		if !c.a.Less(c.b) || c.b.Less(c.a) {
			t.Errorf("Less broken for %v vs %v", c.a, c.b)
		}
	}
	if IntValue(1).Equal(FloatValue(1)) {
		t.Error("cross-type Equal should be false")
	}
}

func TestViewBasics(t *testing.T) {
	tbl := buildTestTable(t, 50)
	full := FullView(tbl)
	if full.Len() != 50 || full.RowID(7) != 7 {
		t.Fatalf("full view wrong: len=%d", full.Len())
	}
	v := NewView(tbl, []int32{3, 10, 20})
	if v.Len() != 3 {
		t.Fatalf("view len = %d", v.Len())
	}
	if got := v.Value(1, 0); got.I != 10 {
		t.Fatalf("view Value(1,0) = %+v", got)
	}
	m := v.Materialize()
	if m.NumRows() != 3 || m.Value(2, 0).I != 20 {
		t.Fatalf("materialized = %d rows, Value(2,0)=%+v", m.NumRows(), m.Value(2, 0))
	}
}

func TestViewExtractors(t *testing.T) {
	tbl := buildTestTable(t, 30)
	v := NewView(tbl, []int32{0, 1, 2})
	fares := v.FloatsOf(1)
	ids := v.FloatsOf(0) // int column extracted as floats
	pts := v.PointsOf(3)
	if len(fares) != 3 || len(ids) != 3 || len(pts) != 3 {
		t.Fatal("wrong extract lengths")
	}
	if ids[2] != 2 {
		t.Fatalf("ids[2] = %v", ids[2])
	}
	if fares[0] != tbl.Value(0, 1).F {
		t.Fatalf("fares[0] = %v", fares[0])
	}
	if pts[1] != tbl.Value(1, 3).P {
		t.Fatalf("pts[1] = %v", pts[1])
	}
}

func TestFootprintGrowsWithRows(t *testing.T) {
	small := buildTestTable(t, 10)
	big := buildTestTable(t, 10000)
	if small.Footprint() <= 0 {
		t.Fatal("footprint should be positive")
	}
	if big.Footprint() <= small.Footprint() {
		t.Fatalf("footprint not monotone: %d vs %d", small.Footprint(), big.Footprint())
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tbl := buildTestTable(t, 200)
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, tbl.Schema())
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, tbl, got)
}

func TestCSVSchemaMismatch(t *testing.T) {
	csvData := "a,b\n1,2\n"
	_, err := ReadCSV(strings.NewReader(csvData), Schema{{Name: "a", Type: Int64}})
	if err == nil {
		t.Fatal("want column-count error")
	}
	_, err = ReadCSV(strings.NewReader(csvData), Schema{{Name: "x", Type: Int64}, {Name: "b", Type: Int64}})
	if err == nil {
		t.Fatal("want column-name error")
	}
	_, err = ReadCSV(strings.NewReader("a\nnot-a-number\n"), Schema{{Name: "a", Type: Int64}})
	if err == nil {
		t.Fatal("want parse error")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tbl := buildTestTable(t, 500)
	var buf bytes.Buffer
	if err := tbl.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, tbl, got)
}

func TestBinaryRejectsCorruptHeader(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("XXXX"))); err == nil {
		t.Fatal("want bad-magic error")
	}
	tbl := buildTestTable(t, 5)
	var buf bytes.Buffer
	if err := tbl.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 99 // clobber version
	if _, err := ReadBinary(bytes.NewReader(b)); err == nil {
		t.Fatal("want version error")
	}
}

func TestBinaryEmptyTable(t *testing.T) {
	tbl := NewTable(testSchema())
	var buf bytes.Buffer
	if err := tbl.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 0 || got.NumCols() != 4 {
		t.Fatalf("empty round trip = %d rows %d cols", got.NumRows(), got.NumCols())
	}
}

func TestParseValueProperty(t *testing.T) {
	f := func(i int64, fl float64, s string) bool {
		vi, err := ParseValue(Int64, IntValue(i).String())
		if err != nil || vi.I != i {
			return false
		}
		vf, err := ParseValue(Float64, FloatValue(fl).String())
		if err != nil || vf.F != fl {
			return false
		}
		vs, err := ParseValue(String, s)
		return err == nil && vs.S == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// String writes fmt's %d and %g forms without fmt — special floats,
// extremes and negative zero included.
func TestValueStringMatchesFmt(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1e21, 1e-7, 5e-324, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 0.1, -73.97}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		floats = append(floats, math.Float64frombits(r.Uint64()))
	}
	for i, f := range floats {
		if got, want := FloatValue(f).String(), fmt.Sprintf("%g", f); got != want {
			t.Errorf("FloatValue(%v).String() = %q, want %q", f, got, want)
		}
		p := geo.Point{X: f, Y: floats[len(floats)-1-i]}
		if got, want := PointValue(p).String(), fmt.Sprintf("%g %g", p.X, p.Y); got != want {
			t.Errorf("PointValue(%v).String() = %q, want %q", p, got, want)
		}
	}
	for _, n := range []int64{0, -1, 7, math.MaxInt64, math.MinInt64, r.Int63()} {
		if got, want := IntValue(n).String(), fmt.Sprintf("%d", n); got != want {
			t.Errorf("IntValue(%d).String() = %q, want %q", n, got, want)
		}
	}
}

func TestParseValueErrors(t *testing.T) {
	for _, c := range []struct {
		typ Type
		in  string
	}{
		{Int64, "abc"},
		{Float64, "xyz"},
		{Point, "1"},
		{Point, "a b"},
		{Point, "1 b"},
	} {
		if _, err := ParseValue(c.typ, c.in); err == nil {
			t.Errorf("ParseValue(%v, %q) should fail", c.typ, c.in)
		}
	}
}

func assertTablesEqual(t *testing.T, want, got *Table) {
	t.Helper()
	if want.NumRows() != got.NumRows() || want.NumCols() != got.NumCols() {
		t.Fatalf("shape mismatch: %dx%d vs %dx%d", want.NumRows(), want.NumCols(), got.NumRows(), got.NumCols())
	}
	for r := 0; r < want.NumRows(); r++ {
		for c := 0; c < want.NumCols(); c++ {
			if !want.Value(r, c).Equal(got.Value(r, c)) {
				t.Fatalf("cell (%d,%d): %v vs %v", r, c, want.Value(r, c), got.Value(r, c))
			}
		}
	}
}

// Truncating a binary table stream at any offset must error, not panic.
func TestReadBinaryTruncated(t *testing.T) {
	tbl := buildTestTable(t, 50)
	var buf bytes.Buffer
	if err := tbl.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, off := range []int{0, 2, 4, 6, 9, 20, len(full) / 3, len(full) - 2} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("ReadBinary panicked at %d: %v", off, r)
				}
			}()
			if _, err := ReadBinary(bytes.NewReader(full[:off])); err == nil {
				t.Errorf("ReadBinary of %d bytes should fail", off)
			}
		}()
	}
}
