package loss

import (
	"math"

	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/geo"
)

// Heatmap is the paper's Function 2: the visualization-aware loss from
// VAS/POIsam, defined as the average over raw tuples of the minimum
// distance from the tuple to any sample tuple:
//
//	loss(Raw, Sam) = 1/|Raw| Σ_{x∈Raw} min_{s∈Sam} d(x, s)
//
// d is a pluggable metric (Euclidean, Manhattan, or Haversine meters). A
// sample with low Heatmap loss covers the raw point cloud well, so a heat
// map rendered from it preserves the hotspots of the full render.
type Heatmap struct {
	// Column is the POINT target attribute (e.g. pickup location).
	Column string
	// Metric is the pairwise distance; Haversine yields meters.
	Metric geo.Metric
}

// NewHeatmap returns the geospatial visualization-aware loss.
func NewHeatmap(column string, metric geo.Metric) *Heatmap {
	return &Heatmap{Column: column, Metric: metric}
}

// Name implements Func.
func (h *Heatmap) Name() string { return "heatmap" }

// Unit implements Func.
func (h *Heatmap) Unit() string {
	if h.Metric == geo.Haversine {
		return "meter"
	}
	return "distance"
}

// Loss implements Func.
func (h *Heatmap) Loss(raw, sam dataset.View) float64 {
	col, err := resolvePoint(raw.Table.Schema(), h.Column)
	if err != nil {
		panic(err)
	}
	if raw.Len() == 0 {
		return 0
	}
	if sam.Len() == 0 {
		return math.Inf(1)
	}
	samCol, err := resolvePoint(sam.Table.Schema(), h.Column)
	if err != nil {
		panic(err)
	}
	grid := geo.NewGridIndex(h.Metric, sam.PointsOf(samCol), 4)
	return grid.AvgMinDistance(raw.PointsOf(col))
}

// heatmapCellState is the algebraic dry-run state: the sum of per-tuple
// minimum distances to the *fixed* sample, plus the tuple count. Because
// the sample side is fixed, the per-tuple min distance is a per-row
// constant and the sum is distributive.
type heatmapCellState struct {
	sumMin float64
	n      int64
}

type heatmapCellEvaluator struct {
	points []geo.Point
	grid   *geo.GridIndex
	empty  bool
}

// BindSample implements DryRunner.
func (h *Heatmap) BindSample(table *dataset.Table, sam dataset.View) (CellEvaluator, error) {
	col, err := resolvePoint(table.Schema(), h.Column)
	if err != nil {
		return nil, err
	}
	ev := &heatmapCellEvaluator{points: table.Points(col)}
	if sam.Len() == 0 {
		ev.empty = true
		return ev, nil
	}
	samCol, err := resolvePoint(sam.Table.Schema(), h.Column)
	if err != nil {
		return nil, err
	}
	ev.grid = geo.NewGridIndex(h.Metric, sam.PointsOf(samCol), 4)
	return ev, nil
}

func (e *heatmapCellEvaluator) NewState() CellState { return &heatmapCellState{} }

func (e *heatmapCellEvaluator) Add(st CellState, row int32) {
	s := st.(*heatmapCellState)
	if !e.empty {
		s.sumMin += e.grid.NearestDistance(e.points[row])
	}
	s.n++
}

// RowCost implements RowCoster.
func (e *heatmapCellEvaluator) RowCost(row int32) float64 {
	if e.empty {
		return math.Inf(1)
	}
	return e.grid.NearestDistance(e.points[row])
}

func (e *heatmapCellEvaluator) Merge(dst, src CellState) {
	d, s := dst.(*heatmapCellState), src.(*heatmapCellState)
	d.sumMin += s.sumMin
	d.n += s.n
}

func (e *heatmapCellEvaluator) Loss(st CellState) float64 {
	s := st.(*heatmapCellState)
	if s.n == 0 {
		return 0
	}
	if e.empty {
		return math.Inf(1)
	}
	return s.sumMin / float64(s.n)
}

func (e *heatmapCellEvaluator) StateBytes() int64 { return 16 }

// floorGrid is how many cells the cover's floor grid has along each axis.
const floorGrid = 128

// CostFloors implements CostFloorer for the Euclidean metric: the table's
// points are binned into a fixed floorGrid × floorGrid grid over their
// bounding box, and each occupied grid cell is one region.
func (h *Heatmap) CostFloors(table *dataset.Table) (CostFloors, error) {
	if h.Metric != geo.Euclidean {
		return nil, nil
	}
	col, err := resolvePoint(table.Schema(), h.Column)
	if err != nil {
		return nil, err
	}
	pts := table.Points(col)
	if len(pts) == 0 {
		return nil, nil
	}
	return newHeatmapFloors(pts), nil
}

// heatmapFloors is a table's floor grid. A region's floor under a sample is
// its centre's distance to the sample less its radius: every point of the
// region lies within radius of the centre, so by the triangle inequality it
// is at least that far from every sample point.
type heatmapFloors struct {
	regionOf []int32     // per table row
	centre   []geo.Point // per region: the middle of its points' bounding box
	radius   []float64   // per region: the largest distance from centre to a point
}

func newHeatmapFloors(pts []geo.Point) *heatmapFloors {
	box := geo.NewBBox(pts)
	var sx, sy float64 // 0 for a box of no (or no finite) width: one column
	if w := box.Width(); w > 0 {
		sx = floorGrid / w
	}
	if h := box.Height(); h > 0 {
		sy = floorGrid / h
	}
	f := &heatmapFloors{regionOf: make([]int32, len(pts))}
	// regionOf first holds each point's grid cell, renumbered to occupied
	// cells in grid order below; the clamp puts the box's max edge (and a
	// zero-width box) in the last cell.
	region := make([]int32, floorGrid*floorGrid)
	for i, p := range pts {
		cx := clampIdx(int((p.X-box.Min.X)*sx), 0, floorGrid-1)
		cy := clampIdx(int((p.Y-box.Min.Y)*sy), 0, floorGrid-1)
		c := int32(cy*floorGrid + cx)
		f.regionOf[i] = c
		region[c] = 1
	}
	var n int32
	for c, used := range region {
		if used != 0 {
			region[c] = n
			n++
		} else {
			region[c] = -1
		}
	}
	bounds := make([]geo.BBox, n)
	seen := make([]bool, n)
	for i, p := range pts {
		r := region[f.regionOf[i]]
		f.regionOf[i] = r
		if !seen[r] {
			bounds[r], seen[r] = geo.BBox{Min: p, Max: p}, true
		} else {
			bounds[r] = bounds[r].Extend(p)
		}
	}
	f.centre = make([]geo.Point, n)
	for r, b := range bounds {
		f.centre[r] = b.Center()
	}
	f.radius = make([]float64, n)
	for i, p := range pts {
		r := f.regionOf[i]
		// "Not within" rather than "above": a NaN distance makes the radius
		// NaN, and the region's floor 0.
		if d := geo.Distance(geo.Euclidean, p, f.centre[r]); !(d <= f.radius[r]) {
			f.radius[r] = d
		}
	}
	return f
}

func (f *heatmapFloors) Regions() ([]int32, int) { return f.regionOf, len(f.centre) }

// Floor implements CostFloors. The bound gives up a relative 1e-9 of both
// distances, far above their rounding error, so it holds for the float
// RowCost returns. An evaluator the heatmap did not bind (a wrapper's) gets
// the trivial floor 0.
func (f *heatmapFloors) Floor(ev RowCoster, r int32) float64 {
	e, ok := ev.(*heatmapCellEvaluator)
	switch {
	case !ok:
		return 0
	case e.empty:
		return math.Inf(1)
	}
	d, rad := e.grid.NearestDistance(f.centre[r]), f.radius[r]
	if lo := d - rad - 1e-9*(d+rad); lo > 0 {
		return lo
	}
	return 0
}

// heatmapDense holds the (Σ min-distance, count) states as flat slices;
// per-row nearest-sample distances still go through the grid index, but
// the state probe, the count, and the sum are unboxed.
type heatmapDense struct {
	ev     *heatmapCellEvaluator
	sumMin []float64
	n      []int64
}

// NewDense implements ChunkEvaluator.
func (e *heatmapCellEvaluator) NewDense() DenseStates { return &heatmapDense{ev: e} }

func (d *heatmapDense) Len() int { return len(d.n) }

func (d *heatmapDense) Grow(n int) {
	for len(d.n) < n {
		d.sumMin = append(d.sumMin, 0)
		d.n = append(d.n, 0)
	}
}

//lint:hot AddChunk runs once per raw row; the fold must not allocate.
func (d *heatmapDense) AddChunk(slots, rows []int32) {
	if d.ev.empty {
		for _, s := range slots {
			d.n[s]++
		}
		return
	}
	pts, grid := d.ev.points, d.ev.grid
	for i, s := range slots {
		d.sumMin[s] += grid.NearestDistance(pts[rows[i]])
		d.n[s]++
	}
}

func (d *heatmapDense) MergeSlot(dst int32, other DenseStates, src int32) {
	o := other.(*heatmapDense)
	d.sumMin[dst] += o.sumMin[src]
	d.n[dst] += o.n[src]
}

func (d *heatmapDense) Loss(slot int32) float64 {
	if d.n[slot] == 0 {
		return 0
	}
	if d.ev.empty {
		return math.Inf(1)
	}
	return d.sumMin[slot] / float64(d.n[slot])
}

func (d *heatmapDense) Export(slot int32) CellState {
	return &heatmapCellState{sumMin: d.sumMin[slot], n: d.n[slot]}
}

// heatmapGreedy tracks, for every raw tuple, the distance to the nearest
// tuple of the growing sample. Adding candidate c changes the loss to
// (1/n) Σ_i min(minDist[i], d(i, c)).
//
// LossWith exploits a locality bound: a raw point j can only improve if
// d(j, c) < minDist[j] ≤ maxMin, so scanning the spatial index within
// radius maxMin of the candidate covers every contributor exactly. As
// the sample grows maxMin shrinks, and candidate evaluation drops from
// O(n) to near-constant — this is where the sampler spends its time
// under the lazy-forward strategy.
//
// The per-point distances are kept in the index's cell order, next to the
// index's copy of the points, so that scan reads both front to back; Add
// still sums them in view order, which fixes the float sum.
type heatmapGreedy struct {
	metric geo.Metric
	pts    []geo.Point // in view order: the candidates, and the first round's sums
	// minDist[k] is the distance from the point at position k of idx's
	// cell order to the sample.
	minDist []float64
	// minSq is the Euclidean fast path (nil for the other metrics):
	// minDist[k] == sqrt(minSq[k]). Square root is correctly rounded, hence
	// monotone, so "closer" is decided on squares and the root is taken
	// only for a point that improves.
	minSq  []float64
	sum    float64 // Σ minDist
	maxMin float64 // max over minDist (valid upper bound between Adds)
	samN   int
	idx    *pointIndex
	// radScale converts metric distances to coordinate search radii.
	radScale float64
	// boxes are the first pick's coarse boxes, binned on the first
	// LossWithBounds call, so a caller may bound the candidates in chunks.
	boxes []coarseBox
}

// pointIndex is a uniform grid over point INDEXES (geo.GridIndex stores
// points only), supporting radius-bounded enumeration. The points are
// copied sorted by cell (row-major, view order within a cell) behind a CSR
// offset table, so the cells of one grid row that a search touches are one
// contiguous run.
type pointIndex struct {
	box          geo.BBox
	nx, ny       int
	cellW, cellH float64
	pts          []geo.Point // in cell order
	pos          []int32     // pos[j] is view point j's position in pts
	off          []int32     // cell c holds pts[off[c]:off[c+1]]
}

func newPointIndex(pts []geo.Point) *pointIndex {
	if len(pts) == 0 {
		return &pointIndex{nx: 1, ny: 1, cellW: 1, cellH: 1, off: make([]int32, 2)}
	}
	g := &pointIndex{box: geo.NewBBox(pts)}
	cellCount := float64(len(pts)) / 4
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
	// Neither axis gets more cells than the whole grid aims for, as in
	// geo.NewGridIndex: points on a line would otherwise get up to 2 048
	// mostly empty cells along it, each visited by every search.
	maxAxis := min(2048, int(math.Ceil(cellCount)))
	g.nx = clampIdx(int(math.Ceil(math.Sqrt(cellCount*aspect))), 1, maxAxis)
	g.ny = clampIdx(int(math.Ceil(math.Sqrt(cellCount/aspect))), 1, maxAxis)
	g.cellW = w / float64(g.nx)
	g.cellH = h / float64(g.ny)
	cellOf := make([]int32, len(pts))
	for i, p := range pts {
		cx, cy := g.coords(p)
		cellOf[i] = int32(cy*g.nx + cx)
	}
	var ids []int32
	ids, g.off = geo.CellOrder(cellOf, g.nx*g.ny)
	g.pts = make([]geo.Point, len(pts))
	g.pos = make([]int32, len(pts))
	for k, i := range ids {
		g.pts[k] = pts[i]
		g.pos[i] = int32(k)
	}
	return g
}

func clampIdx(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func (g *pointIndex) coords(p geo.Point) (int, int) {
	cx := clampIdx(int((p.X-g.box.Min.X)/g.cellW), 0, g.nx-1)
	cy := clampIdx(int((p.Y-g.box.Min.Y)/g.cellH), 0, g.ny-1)
	return cx, cy
}

// within returns the block of cells [loX,hiX]×[loY,hiY] covering every
// indexed point within (coordinate-space) radius r of p; the block may
// also hold slightly farther points (callers re-check distances).
func (g *pointIndex) within(p geo.Point, r float64) (loX, hiX, loY, hiY int) {
	loX = clampIdx(int((p.X-r-g.box.Min.X)/g.cellW), 0, g.nx-1)
	hiX = clampIdx(int((p.X+r-g.box.Min.X)/g.cellW), 0, g.nx-1)
	loY = clampIdx(int((p.Y-r-g.box.Min.Y)/g.cellH), 0, g.ny-1)
	hiY = clampIdx(int((p.Y+r-g.box.Min.Y)/g.cellH), 0, g.ny-1)
	return
}

// coordScale returns the factor converting a metric distance bound into
// a coordinate-space search radius that over-covers: 1 for
// Euclidean/Manhattan (already in coordinate units), and for Haversine
// meters the inverse of the SMALLEST meters-per-degree across the data's
// latitude range (longitude degrees shrink by cos(lat), so the search
// radius must widen accordingly). Near the poles the factor degenerates;
// +Inf falls back to full scans, which stays correct.
func coordScale(m geo.Metric, box geo.BBox) float64 {
	if m != geo.Haversine {
		return 1
	}
	maxAbsLat := math.Max(math.Abs(box.Min.Y), math.Abs(box.Max.Y))
	cos := math.Cos(maxAbsLat * math.Pi / 180)
	const mPerDegLat = 110_567.0
	mPerDegLon := 111_320.0 * cos
	minPerDeg := math.Min(mPerDegLat, mPerDegLon)
	if minPerDeg < 1 {
		return math.Inf(1)
	}
	return 1 / minPerDeg
}

// NewGreedy implements GreedyCapable.
func (h *Heatmap) NewGreedy(raw dataset.View) (GreedyEvaluator, error) {
	col, err := resolvePoint(raw.Table.Schema(), h.Column)
	if err != nil {
		return nil, err
	}
	g := &heatmapGreedy{metric: h.Metric, pts: raw.PointsOf(col)}
	g.minDist = make([]float64, len(g.pts))
	for i := range g.minDist {
		g.minDist[i] = math.Inf(1)
	}
	if h.Metric == geo.Euclidean {
		g.minSq = append([]float64(nil), g.minDist...)
	}
	g.sum = math.Inf(1)
	g.maxMin = math.Inf(1)
	g.idx = newPointIndex(g.pts)
	g.radScale = coordScale(h.Metric, g.idx.box)
	return g, nil
}

func (g *heatmapGreedy) Len() int { return len(g.pts) }

func (g *heatmapGreedy) CurrentLoss() float64 {
	if len(g.pts) == 0 {
		return 0
	}
	if g.samN == 0 {
		return math.Inf(1)
	}
	return g.sum / float64(len(g.pts))
}

//lint:hot LossWith is the greedy sampler's probe: once per candidate per round.
func (g *heatmapGreedy) LossWith(i int) float64 {
	if len(g.pts) == 0 {
		return 0
	}
	c := g.pts[i]
	if g.samN == 0 || math.IsInf(g.maxMin, 1) || math.IsInf(g.radScale, 1) {
		// First round: everything can improve; full scan.
		var sum float64
		if g.samN == 0 && g.minSq != nil {
			// Nothing sampled yet, so every minDist is +Inf.
			for _, p := range g.pts {
				dx, dy := p.X-c.X, p.Y-c.Y
				sum += math.Sqrt(dx*dx + dy*dy)
			}
			return sum / float64(len(g.pts))
		}
		for j, p := range g.pts {
			d := geo.Distance(g.metric, p, c)
			if m := g.minDist[g.idx.pos[j]]; m < d {
				d = m
			}
			sum += d
		}
		return sum / float64(len(g.pts))
	}
	// Later rounds: only points within maxMin of the candidate can
	// improve; compute the exact reduction over that neighbourhood, cell
	// row by cell row (the visiting order fixes the float sum).
	idx := g.idx
	loX, hiX, loY, hiY := idx.within(c, g.maxMin*g.radScale)
	var reduction float64
	for cy := loY; cy <= hiY; cy++ {
		lo, hi := idx.off[cy*idx.nx+loX], idx.off[cy*idx.nx+hiX+1]
		pts, minDist := idx.pts[lo:hi], g.minDist[lo:hi]
		switch g.metric {
		case geo.Euclidean:
			minSq := g.minSq[lo:hi]
			for k, p := range pts {
				dx, dy := p.X-c.X, p.Y-c.Y
				if dsq := dx*dx + dy*dy; dsq < minSq[k] {
					// A tie after rounding adds an exact zero.
					reduction += minDist[k] - math.Sqrt(dsq)
				}
			}
		case geo.Manhattan:
			for k, p := range pts {
				if d := math.Abs(p.X-c.X) + math.Abs(p.Y-c.Y); d < minDist[k] {
					reduction += minDist[k] - d
				}
			}
		default:
			for k, p := range pts {
				if d := geo.Distance(g.metric, p, c); d < minDist[k] {
					reduction += minDist[k] - d
				}
			}
		}
	}
	return (g.sum - reduction) / float64(len(g.pts))
}

//lint:hot Add rescans every raw tuple once per committed sample tuple.
func (g *heatmapGreedy) Add(i int) {
	c := g.pts[i]
	if g.minSq != nil {
		for k, p := range g.idx.pts {
			dx, dy := p.X-c.X, p.Y-c.Y
			if dsq := dx*dx + dy*dy; dsq < g.minSq[k] {
				g.minSq[k], g.minDist[k] = dsq, math.Sqrt(dsq)
			}
		}
	} else {
		for k, p := range g.idx.pts {
			if d := geo.Distance(g.metric, p, c); d < g.minDist[k] {
				g.minDist[k] = d
			}
		}
	}
	var sum, max float64
	for _, k := range g.idx.pos {
		m := g.minDist[k]
		sum += m
		if m > max {
			max = m
		}
	}
	g.sum = sum
	g.maxMin = max
	g.samN++
}

// boundMinPoints is the smallest cell whose first pick LossWithBounds
// bounds: below it evaluating every candidate costs little more than
// bounding them. boundPerBox is how many points a coarse box aims to hold,
// and boundMaxBoxes caps the boxes a bound sums over.
const (
	boundMinPoints = 512
	boundPerBox    = 16
	boundMaxBoxes  = 1024
)

// coarseBox is one box of the first pick's bound: the bounding box of the
// points that fall in one coarse grid cell, and their count.
type coarseBox struct {
	minX, minY, maxX, maxY, n float64
}

// LossWithBounds implements LowerBounder for the empty sample under the
// Euclidean and Manhattan metrics. The points are binned into coarse grid
// cells, each shrunk to the bounding box of its points; every point of a
// box is at least as far from a candidate as the box is, so Σ count·(the
// candidate's distance to the box) / n bounds the candidate's first-round
// LossWith. The bound is scaled down by more than the rounding error of
// either sum, so it also holds for the float LossWith returns. The boxes
// are binned once per evaluator, however many calls the candidates are
// bounded in.
func (g *heatmapGreedy) LossWithBounds(cands []int, lo []float64) bool {
	n := len(g.pts)
	if g.samN != 0 || n < boundMinPoints || g.metric == geo.Haversine {
		return false
	}
	if g.boxes == nil {
		g.boxes = g.coarseBoxes()
	}
	boxes := g.boxes
	scale := (1 - 1e-9 - float64(n)*0x1p-50) / float64(n)
	for k, i := range cands {
		c := g.pts[i]
		var sum float64
		for _, b := range boxes {
			dx := math.Max(0, math.Max(b.minX-c.X, c.X-b.maxX))
			dy := math.Max(0, math.Max(b.minY-c.Y, c.Y-b.maxY))
			if g.metric == geo.Euclidean {
				sum += b.n * math.Sqrt(dx*dx+dy*dy)
			} else {
				sum += b.n * (dx + dy)
			}
		}
		lo[k] = sum * scale
	}
	return true
}

// coarseBoxes bins the points into about n/boundPerBox coarse grid cells
// (at most boundMaxBoxes) and returns the non-empty ones' bounding boxes.
func (g *heatmapGreedy) coarseBoxes() []coarseBox {
	box := g.idx.box
	side := clampIdx(int(math.Sqrt(float64(len(g.pts))/boundPerBox)), 1, int(math.Sqrt(boundMaxBoxes)))
	w, h := box.Width()/float64(side), box.Height()/float64(side)
	boxes := make([]coarseBox, side*side)
	for _, p := range g.pts {
		cx, cy := side-1, side-1
		if x := (p.X - box.Min.X) / w; x < float64(side-1) {
			cx = max(0, int(x))
		}
		if y := (p.Y - box.Min.Y) / h; y < float64(side-1) {
			cy = max(0, int(y))
		}
		b := &boxes[cy*side+cx]
		if b.n == 0 {
			*b = coarseBox{minX: p.X, minY: p.Y, maxX: p.X, maxY: p.Y}
		} else {
			b.minX, b.maxX = math.Min(b.minX, p.X), math.Max(b.maxX, p.X)
			b.minY, b.maxY = math.Min(b.minY, p.Y), math.Max(b.maxY, p.Y)
		}
		b.n++
	}
	out := boxes[:0]
	for _, b := range boxes {
		if b.n > 0 {
			out = append(out, b)
		}
	}
	return out
}

// MergeSafe implements the MergeSafe marker: the average-min-distance
// union bound holds (see loss.MergeSafe).
func (h *Heatmap) MergeSafe() bool { return true }
