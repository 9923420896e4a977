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
type heatmapGreedy struct {
	metric  geo.Metric
	pts     []geo.Point
	minDist []float64
	// minSq is the Euclidean fast path (nil for the other metrics):
	// minDist[j] == sqrt(minSq[j]). Square root is correctly rounded, hence
	// monotone, so "closer" is decided on squares and the root is taken
	// only for a point that improves.
	minSq  []float64
	sum    float64 // Σ minDist
	maxMin float64 // max over minDist (valid upper bound between Adds)
	samN   int
	idx    *pointIndex
	// radScale converts metric distances to coordinate search radii.
	radScale float64
}

// pointIndex is a uniform grid over point INDEXES (geo.GridIndex stores
// points only), supporting radius-bounded enumeration. Indexes are stored
// sorted by cell (row-major, ascending within a cell) behind a CSR offset
// table, with a copy of the points in the same order, so the cells of one
// grid row that a search touches are one contiguous run of both.
type pointIndex struct {
	box          geo.BBox
	nx, ny       int
	cellW, cellH float64
	ids          []int32     // point indexes, sorted by cell
	pts          []geo.Point // pts[k] is the point with index ids[k]
	off          []int32     // cell c holds ids[off[c]:off[c+1]]
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
	g.nx = clampIdx(int(math.Ceil(math.Sqrt(cellCount*aspect))), 1, 2048)
	g.ny = clampIdx(int(math.Ceil(math.Sqrt(cellCount/aspect))), 1, 2048)
	g.cellW = w / float64(g.nx)
	g.cellH = h / float64(g.ny)
	cellOf := make([]int32, len(pts))
	for i, p := range pts {
		cx, cy := g.coords(p)
		cellOf[i] = int32(cy*g.nx + cx)
	}
	g.ids, g.off = geo.CellOrder(cellOf, g.nx*g.ny)
	g.pts = make([]geo.Point, len(pts))
	for k, i := range g.ids {
		g.pts[k] = pts[i]
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
			if m := g.minDist[j]; m < d {
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
		ids, pts := idx.ids[lo:hi], idx.pts[lo:hi]
		switch g.metric {
		case geo.Euclidean:
			for k, p := range pts {
				dx, dy := p.X-c.X, p.Y-c.Y
				dsq := dx*dx + dy*dy
				if j := ids[k]; dsq < g.minSq[j] {
					// A tie after rounding adds an exact zero.
					reduction += g.minDist[j] - math.Sqrt(dsq)
				}
			}
		case geo.Manhattan:
			for k, p := range pts {
				d := math.Abs(p.X-c.X) + math.Abs(p.Y-c.Y)
				if j := ids[k]; d < g.minDist[j] {
					reduction += g.minDist[j] - d
				}
			}
		default:
			for k, p := range pts {
				if j, d := ids[k], geo.Distance(g.metric, p, c); d < g.minDist[j] {
					reduction += g.minDist[j] - d
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
		for j, p := range g.pts {
			dx, dy := p.X-c.X, p.Y-c.Y
			if dsq := dx*dx + dy*dy; dsq < g.minSq[j] {
				g.minSq[j], g.minDist[j] = dsq, math.Sqrt(dsq)
			}
		}
	} else {
		for j, p := range g.pts {
			if d := geo.Distance(g.metric, p, c); d < g.minDist[j] {
				g.minDist[j] = d
			}
		}
	}
	var sum, max float64
	for _, m := range g.minDist {
		sum += m
		if m > max {
			max = m
		}
	}
	g.sum = sum
	g.maxMin = max
	g.samN++
}

// MergeSafe implements the MergeSafe marker: the average-min-distance
// union bound holds (see loss.MergeSafe).
func (h *Heatmap) MergeSafe() bool { return true }
