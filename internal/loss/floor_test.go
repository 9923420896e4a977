package loss

import (
	"math"
	"math/rand"
	"testing"

	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/geo"
)

// floorTable returns n points in one of several shapes over a box of the
// given side at (x0, y0). Every shape puts some points exactly on the
// box's max edges, where the floor grid's cell index clamps into the last
// cell.
func floorTable(r *rand.Rand, shape, n int, x0, y0, side float64) *dataset.Table {
	tbl := dataset.NewTable(dataset.Schema{{Name: "p", Type: dataset.Point}})
	for i := 0; i < n; i++ {
		var p geo.Point
		switch {
		case i%7 == 3:
			p = geo.Point{X: x0 + side, Y: y0 + side*r.Float64()} // max X edge
		case i%11 == 5:
			p = geo.Point{X: x0 + side*r.Float64(), Y: y0 + side} // max Y edge
		case i%13 == 0:
			p = geo.Point{X: x0 + side, Y: y0 + side} // the max corner
		default:
			switch shape % 5 {
			case 0: // uniform
				p = geo.Point{X: x0 + side*r.Float64(), Y: y0 + side*r.Float64()}
			case 1: // clustered near the min corner
				p = geo.Point{X: x0 + side*math.Abs(r.NormFloat64())*0.01, Y: y0 + side*math.Abs(r.NormFloat64())*0.01}
			case 2: // a handful of duplicated locations
				p = geo.Point{X: x0 + side*float64(r.Intn(4))/3, Y: y0 + side*float64(r.Intn(3))/2}
			case 3: // a vertical line: a zero-width box
				p = geo.Point{X: x0 + side, Y: y0 + side*r.Float64()}
			case 4: // a diagonal
				t := r.Float64()
				p = geo.Point{X: x0 + side*t, Y: y0 + side*t}
			}
		}
		tbl.MustAppendRow(dataset.PointValue(p))
	}
	return tbl
}

// checkFloors requires every row's region floor under a sample's bound
// evaluator to be at most that row's cost, the distance to its nearest
// sample point.
func checkFloors(t *testing.T, label string, tbl *dataset.Table, samples []dataset.View) {
	t.Helper()
	h := NewHeatmap("p", geo.Euclidean)
	cf, err := h.CostFloors(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if cf == nil {
		if tbl.NumRows() != 0 {
			t.Fatalf("%s: no floors for %d rows", label, tbl.NumRows())
		}
		return
	}
	regionOf, n := cf.Regions()
	if len(regionOf) != tbl.NumRows() {
		t.Fatalf("%s: %d region ids for %d rows", label, len(regionOf), tbl.NumRows())
	}
	for _, sam := range samples {
		ev, err := h.BindSample(tbl, sam)
		if err != nil {
			t.Fatal(err)
		}
		rc := ev.(RowCoster)
		for row, r := range regionOf {
			if r < 0 || int(r) >= n {
				t.Fatalf("%s: row %d in region %d of %d", label, row, r, n)
			}
			if f, c := cf.Floor(rc, r), rc.RowCost(int32(row)); !(f <= c) {
				t.Fatalf("%s, %d sample points: row %d %v has floor %v above its cost %v",
					label, sam.Len(), row, tbl.Points(0)[row], f, c)
			}
		}
	}
}

// FuzzCoverFloor checks the heatmap's cost floors against the exact row
// costs on random tables, scales and samples: a floor above a row's cost
// would let the cover pass reject a pair the exact test accepts.
func FuzzCoverFloor(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(0), int8(0), uint8(5))
	f.Add(int64(2), uint16(2000), uint8(1), int8(-20), uint8(40))
	f.Add(int64(3), uint16(50), uint8(2), int8(30), uint8(1))
	f.Add(int64(4), uint16(700), uint8(3), int8(-5), uint8(12))
	f.Add(int64(5), uint16(1), uint8(4), int8(60), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, shape uint8, exp int8, samN uint8) {
		r := rand.New(rand.NewSource(seed))
		side := math.Ldexp(1, int(exp)%40)
		x0, y0 := (r.Float64()-0.5)*360, (r.Float64()-0.5)*180
		tbl := floorTable(r, int(shape), 1+int(n)%3000, x0, y0, side)
		// Samples drawn from the table, and one from around its box.
		var rows []int32
		for k := 0; k < int(samN)%64; k++ {
			rows = append(rows, int32(r.Intn(tbl.NumRows())))
		}
		outside := floorTable(r, int(shape)+1, 1+int(samN)%9, x0-side, y0+side/2, 2*side)
		checkFloors(t, "fuzz", tbl, []dataset.View{
			dataset.NewView(tbl, rows), dataset.NewView(tbl, rows[:len(rows)/2]), dataset.FullView(outside),
		})
	})
}

// Points on a line get no more pointIndex cells than the index aims for in
// total, as in geo.NewGridIndex: a zero-width box used to get up to 2 048
// cells along the line, each visited by every radius search across it.
// The radius-bounded LossWith stays exact on such a line.
func TestPointIndexLineCellBudget(t *testing.T) {
	for _, n := range []int{1, 3, 40, 1000} {
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = geo.Point{X: 20, Y: 50 + float64(i%200)*0.05}
		}
		g := newPointIndex(pts)
		if budget := (n + 3) / 4; g.nx*g.ny > budget {
			t.Fatalf("%d points on a line: %d×%d cells, want at most %d", n, g.nx, g.ny, budget)
		}
		tbl := dataset.NewTable(dataset.Schema{{Name: "p", Type: dataset.Point}})
		for _, p := range pts {
			tbl.MustAppendRow(dataset.PointValue(p))
		}
		for _, metric := range []geo.Metric{geo.Euclidean, geo.Manhattan, geo.Haversine} {
			ev, err := NewHeatmap("p", metric).NewGreedy(dataset.FullView(tbl))
			if err != nil {
				t.Fatal(err)
			}
			gi := ev.(*heatmapGreedy)
			r := rand.New(rand.NewSource(int64(n)))
			for round := 0; round < 8; round++ {
				ev.Add(r.Intn(n))
				cand := r.Intn(n)
				var sum float64
				for j, p := range gi.pts {
					sum += math.Min(geo.Distance(metric, p, gi.pts[cand]), gi.minDist[gi.idx.pos[j]])
				}
				if got, want := ev.LossWith(cand), sum/float64(n); !closeOrBothInf(got, want, 1e-9) {
					t.Fatalf("%v, %d points on a line, round %d: radius-bounded %v != brute %v", metric, n, round, got, want)
				}
			}
		}
	}
}

// A table's floors hold for an empty sample too: every row costs +Inf.
func TestCoverFloorEmptySample(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	tbl := floorTable(r, 0, 200, -74, 40.6, 0.3)
	checkFloors(t, "empty sample", tbl, []dataset.View{dataset.NewView(tbl, nil)})
}
