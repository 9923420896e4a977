package geo

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// checkExact asserts the grid answer is bit-equal to brute force over
// Distance for every query.
func checkExact(t *testing.T, label string, m Metric, pts, queries []Point) {
	t.Helper()
	g := NewGridIndex(m, pts, 4)
	for _, q := range queries {
		want := bruteNearest(m, q, pts)
		if got := g.NearestDistance(q); got != want {
			t.Fatalf("%s %v n=%d q=%v: grid=%v brute=%v (diff %g)", label, m, len(pts), q, got, want, got-want)
		}
	}
}

// The grid is an exact index, not an approximate one: for all three
// metrics, clustered and degenerate point sets, and queries inside, on
// the edge of and far outside the indexed box it must return exactly what
// a scan over Distance returns.
func TestGridIndexExactAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	shapes := map[string]func(n int) []Point{
		"uniform": func(n int) []Point { return randPoints(r, n) },
		"clustered": func(n int) []Point {
			pts := make([]Point, n)
			for i := range pts {
				c := float64(i % 3)
				pts[i] = Point{X: -74 + c*0.3 + r.NormFloat64()*0.002, Y: 40.5 + c*0.1 + r.NormFloat64()*0.002}
			}
			return pts
		},
		"duplicates": func(n int) []Point {
			pts := make([]Point, n)
			for i := range pts {
				pts[i] = Point{X: -74 + float64(r.Intn(4))*0.01, Y: 40.7 + float64(r.Intn(3))*0.01}
			}
			return pts
		},
		"vertical-line": func(n int) []Point {
			pts := make([]Point, n)
			for i := range pts {
				pts[i] = Point{X: -73.9, Y: 40 + r.Float64()}
			}
			return pts
		},
		"single-location": func(n int) []Point {
			pts := make([]Point, n)
			for i := range pts {
				pts[i] = Point{X: -73.9, Y: 40.7}
			}
			return pts
		},
	}
	for name, gen := range shapes {
		for _, n := range []int{1, 2, 9, 64, 700} {
			pts := gen(n)
			queries := append([]Point(nil), pts[:min(len(pts), 20)]...)
			box := NewBBox(pts)
			for i := 0; i < 150; i++ {
				// Inside the box, then progressively farther outside it.
				spread := []float64{1, 1.5, 10}[i%3]
				queries = append(queries, Point{
					X: box.Center().X + (r.Float64()-0.5)*spread*(box.Width()+0.01),
					Y: box.Center().Y + (r.Float64()-0.5)*spread*(box.Height()+0.01),
				})
			}
			queries = append(queries, box.Min, box.Max, Point{X: box.Min.X, Y: box.Max.Y})
			for _, m := range []Metric{Euclidean, Manhattan, Haversine} {
				checkExact(t, name, m, pts, queries)
			}
		}
	}
}

// Points on a line get no more grid cells than the grid aims for in total:
// a zero-width box used to get 4 096 cells along the line, which every
// query far from the line probed one ring at a time.
func TestGridIndexLineCellBudget(t *testing.T) {
	for _, n := range []int{1, 3, 40} {
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: 20, Y: 50 + float64(i)*0.05}
		}
		for _, m := range []Metric{Euclidean, Manhattan, Haversine} {
			g := NewGridIndex(m, pts, 4)
			if budget := (n + 3) / 4; g.nx*g.ny > budget {
				t.Fatalf("%v, %d points on a line: %d×%d cells, want at most %d", m, n, g.nx, g.ny, budget)
			}
			checkExact(t, "line", m, pts, []Point{{X: 20, Y: 49}, {X: 21, Y: 50.5}, {X: 20, Y: 52}})
		}
	}
}

// Regression: the Haversine ring bound used a fixed 55.66 km per degree,
// which over-states a longitude degree above |lat| = 60° (38 km at 70°),
// so the search stopped a ring early and returned a non-nearest point.
func TestGridIndexHaversineHighLatitude(t *testing.T) {
	r := rand.New(rand.NewSource(70))
	for _, lat := range []float64{70, -70, 85, 89.9} {
		// Sparse and dense clouds in square and wide-in-longitude boxes:
		// neighbours along X are closer in meters than the old bound
		// assumed, so stopping early along X is what hurts.
		for _, n := range []int{12, 60, 400} {
			for _, w := range []float64{0.2, 4} {
				gen := func() Point {
					return Point{X: 20 + r.Float64()*w, Y: lat + (r.Float64()-0.5)*0.2}
				}
				pts := make([]Point, n)
				for i := range pts {
					pts[i] = gen()
				}
				queries := make([]Point, 500)
				for i := range queries {
					queries[i] = gen()
				}
				checkExact(t, fmt.Sprintf("lat=%g width=%g", lat, w), Haversine, pts, queries)
			}
		}
	}
	// A box that touches the pole or wraps more than half the globe has no
	// usable bound; the index must fall back to scanning, not guess.
	polar := []Point{{X: -170, Y: 89}, {X: 10, Y: 90}, {X: 100, Y: 88}, {X: 175, Y: 89.5}, {X: -60, Y: 87}}
	checkExact(t, "polar", Haversine, polar, []Point{{X: 0, Y: 89.2}, {X: 179, Y: 88}, {X: -179, Y: 90}})
}

// FuzzNearestDistance drives the grid against brute force with
// fuzzer-chosen point clouds and queries, including queries outside the
// indexed box; all three metrics must agree exactly.
func FuzzNearestDistance(f *testing.F) {
	f.Add(int64(1), uint16(50), 0.5, 0.5, 1.0)
	f.Add(int64(2), uint16(1), -3.0, 7.0, 0.0)
	f.Add(int64(3), uint16(300), 0.999, 0.001, 1e-6)
	f.Add(int64(4), uint16(17), 40.0, -40.0, 30.0)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, qx, qy, scale float64) {
		if math.IsNaN(qx) || math.IsNaN(qy) || math.IsNaN(scale) || math.IsInf(scale, 0) {
			t.Skip()
		}
		r := rand.New(rand.NewSource(seed))
		count := int(n)%600 + 1
		// Keep coordinates valid as degrees so Haversine is meaningful.
		w := math.Mod(math.Abs(scale), 80)
		h := math.Mod(math.Abs(scale)*0.7, 80)
		pts := make([]Point, count)
		for i := range pts {
			pts[i] = Point{X: r.Float64() * w, Y: r.Float64() * h}
			if i%7 == 3 {
				pts[i] = pts[r.Intn(i+1)] // duplicates
			}
		}
		clamp := func(v, lo, hi float64) float64 { return math.Max(lo, math.Min(hi, v)) }
		queries := []Point{
			{X: clamp(qx, -90, 90), Y: clamp(qy, -90, 90)}, // anywhere, mostly outside the box
			{X: clamp(qx, 0, 1) * w, Y: clamp(qy, 0, 1) * h},
			pts[r.Intn(count)],
		}
		for _, m := range []Metric{Euclidean, Manhattan, Haversine} {
			checkExact(t, "fuzz", m, pts, queries)
		}
	})
}

// BenchmarkNearestDistance measures one nearest-sample query at the
// sample sizes the SamGraph join binds (most local samples hold a few
// dozen tuples).
func BenchmarkNearestDistance(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	qs := randPoints(r, 1024)
	for _, m := range []Metric{Euclidean, Manhattan, Haversine} {
		for _, n := range []int{8, 64, 512} {
			g := NewGridIndex(m, randPoints(r, n), 4)
			b.Run(fmt.Sprintf("%v/n=%d", m, n), func(b *testing.B) {
				var sink float64
				for i := 0; i < b.N; i++ {
					sink += g.NearestDistance(qs[i%len(qs)])
				}
				benchSink = sink
			})
		}
	}
}

var benchSink float64
