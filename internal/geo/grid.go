package geo

import (
	"math"
)

// GridIndex is a uniform grid over a bounding box that answers exact
// nearest-neighbour queries. It is the workhorse behind the
// average-minimum-distance loss functions: both the greedy sampler and the
// SamGraph similarity join need, for many query points, the distance to the
// closest point of a fixed sample set.
//
// The points are stored once, sorted by cell (row-major), with a CSR offset
// table: the cells of one grid row — and therefore each horizontal edge of
// a search ring — are one contiguous slice. NearestDistance returns exactly
// min over the indexed points of Distance(metric, q, p) for all three
// metrics; the grid only decides which points need not be looked at.
type GridIndex struct {
	metric Metric
	box    BBox
	nx, ny int
	cellW  float64
	cellH  float64
	pts    []Point // sorted by cell
	off    []int32 // cell c holds pts[off[c]:off[c+1]]
	// scaleX/scaleY convert a coordinate gap along one axis into a lower
	// bound on the metric distance across it, for queries inside the box
	// (see axisScales).
	scaleX, scaleY float64
}

// NewGridIndex builds a grid over pts with roughly targetPerCell points per
// cell. If pts is empty the index is still valid and NearestDistance
// returns +Inf.
func NewGridIndex(metric Metric, pts []Point, targetPerCell int) *GridIndex {
	g := &GridIndex{metric: metric}
	if len(pts) == 0 {
		return g
	}
	if targetPerCell <= 0 {
		targetPerCell = 4
	}
	g.box = NewBBox(pts)
	// Aim for len(pts)/targetPerCell cells, split between axes in
	// proportion to the box aspect ratio.
	cellCount := float64(len(pts)) / float64(targetPerCell)
	if cellCount < 1 {
		cellCount = 1
	}
	w, h := g.box.Width(), g.box.Height()
	if w <= 0 {
		w = 1e-12
	}
	if h <= 0 {
		h = 1e-12
	}
	aspect := w / h
	nxf := math.Sqrt(cellCount * aspect)
	nyf := math.Sqrt(cellCount / aspect)
	// Neither axis gets more cells than the whole grid aims for: points on
	// a line (a zero-width box) would otherwise get thousands of empty
	// cells along it, each probed by every query.
	maxAxis := min(4096, int(math.Ceil(cellCount)))
	g.nx = clampInt(int(math.Ceil(nxf)), 1, maxAxis)
	g.ny = clampInt(int(math.Ceil(nyf)), 1, maxAxis)
	g.cellW = w / float64(g.nx)
	g.cellH = h / float64(g.ny)
	g.scaleX, g.scaleY = axisScales(metric, g.box)

	cellOf := make([]int32, len(pts))
	for i, p := range pts {
		cx, cy := g.cellCoords(p)
		cellOf[i] = int32(cy*g.nx + cx)
	}
	var order []int32
	order, g.off = CellOrder(cellOf, g.nx*g.ny)
	g.pts = make([]Point, len(pts))
	for k, i := range order {
		g.pts[k] = pts[i]
	}
	return g
}

// CellOrder counting-sorts items by grid cell: given each item's cell
// (row-major, in [0, nCells)), it returns the item indexes cell by cell —
// ascending within a cell — and the CSR offsets: cell c holds
// order[off[c]:off[c+1]], and a run of adjacent cells is one slice.
func CellOrder(cellOf []int32, nCells int) (order, off []int32) {
	off = make([]int32, nCells+1)
	for _, c := range cellOf {
		off[c+1]++
	}
	for c := 1; c <= nCells; c++ {
		off[c] += off[c-1]
	}
	order = make([]int32, len(cellOf))
	next := append([]int32(nil), off[:nCells]...)
	for i, c := range cellOf {
		order[next[c]] = int32(i)
		next[c]++
	}
	return order, off
}

// boundSlack shrinks every ring-termination bound: the bound is derived
// from cell boundaries recomputed in floating point, whose rounding error
// (a few ulps of the box extent) must never let the search skip a point
// that ties with the best one found. Erring low only scans one more ring.
const boundSlack = 1e-9

// axisScales returns, per axis, a factor f such that two points whose
// coordinates differ by at least gap along that axis — both inside box —
// are at least f·gap apart under the metric. Euclidean and Manhattan
// distances are in coordinate units. Haversine meters per degree are
// floored over the box: a latitude degree is R·π/180 everywhere, and
// from hav(d) ≥ cos φ₁ cos φ₂ sin²(Δλ/2) a longitude degree is at least
// that times cos(max |lat|) times the chord factor sin(L/2)/(L/2) of the
// box's longitude span L. A box that reaches a pole, leaves the valid
// latitude range or spans more than 180° of longitude gets 0 — no bound,
// so every ring is scanned, which stays exact.
func axisScales(m Metric, box BBox) (sx, sy float64) {
	if m != Haversine {
		return 1 - boundSlack, 1 - boundSlack
	}
	const degToRad = math.Pi / 180
	maxAbsLat := math.Max(math.Abs(box.Min.Y), math.Abs(box.Max.Y))
	span := box.Width()
	if !(maxAbsLat <= 90) || !(span <= 180) {
		return 0, 0
	}
	sy = earthRadiusMeters * degToRad * (1 - boundSlack)
	chord := 1.0
	if half := span * degToRad / 2; half > 0 {
		chord = math.Sin(half) / half
	}
	return sy * math.Cos(maxAbsLat*degToRad) * chord, sy
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Len returns the number of indexed points.
func (g *GridIndex) Len() int { return len(g.pts) }

func (g *GridIndex) cellCoords(p Point) (int, int) {
	cx := int((p.X - g.box.Min.X) / g.cellW)
	cy := int((p.Y - g.box.Min.Y) / g.cellH)
	return clampInt(cx, 0, g.nx-1), clampInt(cy, 0, g.ny-1)
}

// NearestDistance returns the distance from q to the closest indexed point,
// or +Inf when the index is empty. The search expands in square rings of
// grid cells around q's cell and stops once no unscanned cell can hold a
// closer point: everything outside the scanned block lies beyond one of the
// block's four edges, so it is at least as far as the nearest edge that
// still has cells behind it — measured from q itself, not from its cell.
//
//lint:hot NearestDistance runs once per raw row per candidate sample.
func (g *GridIndex) NearestDistance(q Point) float64 {
	if len(g.pts) == 0 {
		return math.Inf(1)
	}
	cx, cy := g.cellCoords(q)
	ux, uy := q.X-g.box.Min.X, q.Y-g.box.Min.Y
	sx, sy := g.scaleX, g.scaleY
	if g.metric == Haversine && !g.box.Contains(q) {
		sx, sy = axisScales(Haversine, g.box.Extend(q))
	}
	slackX, slackY := boundSlack*g.cellW, boundSlack*g.cellH
	// best is in the metric's comparison domain (see scan).
	best := math.Inf(1)
	for ring := 0; ; ring++ {
		x0, x1, y0, y1 := cx-ring, cx+ring, cy-ring, cy+ring
		lo, hi := x0, x1
		if lo < 0 {
			lo = 0
		}
		if hi > g.nx-1 {
			hi = g.nx - 1
		}
		if y0 >= 0 {
			best = g.scan(y0*g.nx+lo, y0*g.nx+hi, q, best)
		}
		if y1 < g.ny && ring > 0 {
			best = g.scan(y1*g.nx+lo, y1*g.nx+hi, q, best)
		}
		for y := y0 + 1; y < y1; y++ {
			if y < 0 || y >= g.ny {
				continue
			}
			if x0 >= 0 {
				best = g.scan(y*g.nx+x0, y*g.nx+x0, q, best)
			}
			if x1 < g.nx {
				best = g.scan(y*g.nx+x1, y*g.nx+x1, q, best)
			}
		}
		// Lower bound on the metric distance to anything unscanned.
		bound := math.Inf(1)
		if x0 > 0 {
			bound = (ux - float64(x0)*g.cellW - slackX) * sx
		}
		if x1 < g.nx-1 {
			if b := (float64(x1+1)*g.cellW - ux - slackX) * sx; b < bound {
				bound = b
			}
		}
		if y0 > 0 {
			if b := (uy - float64(y0)*g.cellH - slackY) * sy; b < bound {
				bound = b
			}
		}
		if y1 < g.ny-1 {
			if b := (float64(y1+1)*g.cellH - uy - slackY) * sy; b < bound {
				bound = b
			}
		}
		if g.metric == Euclidean && bound > 0 {
			bound *= bound * (1 - boundSlack)
		}
		if bound >= best {
			break
		}
	}
	if g.metric == Euclidean {
		return math.Sqrt(best)
	}
	return best
}

// scan folds the points of cells [c0, c1] (one contiguous run of a grid
// row) into best and returns it. Euclidean compares squared distances —
// sqrt is monotone and correctly rounded, so the square root of the
// smallest square is the smallest distance, bit for bit, and the caller
// takes it once at the end. Haversine keeps whole distances: math.Asin is
// not guaranteed monotone to the last bit.
//
//lint:hot scan is the point loop of every nearest-sample query.
func (g *GridIndex) scan(c0, c1 int, q Point, best float64) float64 {
	pts := g.pts[g.off[c0]:g.off[c1+1]]
	switch g.metric {
	case Euclidean:
		for _, p := range pts {
			dx, dy := q.X-p.X, q.Y-p.Y
			if d := dx*dx + dy*dy; d < best {
				best = d
			}
		}
	case Manhattan:
		for _, p := range pts {
			if d := math.Abs(q.X-p.X) + math.Abs(q.Y-p.Y); d < best {
				best = d
			}
		}
	default:
		for _, p := range pts {
			if d := haversine(q, p); d < best {
				best = d
			}
		}
	}
	return best
}

// AvgMinDistance computes the average over query points of the distance to
// the nearest indexed point — the paper's Function 2 accuracy loss,
// loss(Raw, Sam) = 1/|Raw| Σ_{x∈Raw} min_{s∈Sam} d(x, s), where the
// receiver indexes Sam. It returns +Inf when the index is empty and the
// query set is not, and 0 when the query set is empty.
func (g *GridIndex) AvgMinDistance(queries []Point) float64 {
	if len(queries) == 0 {
		return 0
	}
	if len(g.pts) == 0 {
		return math.Inf(1)
	}
	var sum float64
	for _, q := range queries {
		sum += g.NearestDistance(q)
	}
	return sum / float64(len(queries))
}
