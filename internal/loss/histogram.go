package loss

import (
	"math"
	"sort"

	"github.com/tabula-db/tabula/internal/dataset"
)

// Histogram is the paper's fourth loss: Function 2 computed on a
// one-dimensional numeric attribute with Euclidean (absolute-difference)
// distance. The experiments bind it to the NYCtaxi fare amount, so the
// loss unit is US dollars: a loss of 0.5 means raw fare values are, on
// average, within $0.50 of the nearest sampled fare, and a histogram of
// the sample closely tracks the raw histogram.
type Histogram struct {
	// Column is the numeric target attribute.
	Column string
}

// NewHistogram returns the histogram-aware 1-D distance loss.
func NewHistogram(column string) *Histogram { return &Histogram{Column: column} }

// Name implements Func.
func (h *Histogram) Name() string { return "histogram" }

// Unit implements Func.
func (h *Histogram) Unit() string { return "value-distance" }

// nearest1D returns the distance from x to the closest element of the
// ascending slice vals; vals must be non-empty.
func nearest1D(vals []float64, x float64) float64 {
	i := sort.SearchFloat64s(vals, x)
	best := math.Inf(1)
	if i < len(vals) {
		best = vals[i] - x
	}
	if i > 0 {
		if d := x - vals[i-1]; d < best {
			best = d
		}
	}
	return best
}

// avgMin1D computes the average minimum distance from raw values to the
// sorted sample values.
func avgMin1D(raw, sortedSam []float64) float64 {
	if len(raw) == 0 {
		return 0
	}
	if len(sortedSam) == 0 {
		return math.Inf(1)
	}
	var sum float64
	for _, x := range raw {
		sum += nearest1D(sortedSam, x)
	}
	return sum / float64(len(raw))
}

// Loss implements Func.
func (h *Histogram) Loss(raw, sam dataset.View) float64 {
	col, err := resolveNumeric(raw.Table.Schema(), h.Column)
	if err != nil {
		panic(err)
	}
	samCol, err := resolveNumeric(sam.Table.Schema(), h.Column)
	if err != nil {
		panic(err)
	}
	samVals := sam.FloatsOf(samCol)
	sort.Float64s(samVals)
	return avgMin1D(raw.FloatsOf(col), samVals)
}

type histCellEvaluator struct {
	vals []float64 // target column by table row
	sam  []float64 // sorted fixed sample
}

// BindSample implements DryRunner.
func (h *Histogram) BindSample(table *dataset.Table, sam dataset.View) (CellEvaluator, error) {
	col, err := resolveNumeric(table.Schema(), h.Column)
	if err != nil {
		return nil, err
	}
	ev := &histCellEvaluator{vals: numericColumn(table, col)}
	if sam.Len() > 0 {
		samCol, err := resolveNumeric(sam.Table.Schema(), h.Column)
		if err != nil {
			return nil, err
		}
		ev.sam = sam.FloatsOf(samCol)
		sort.Float64s(ev.sam)
	}
	return ev, nil
}

func (e *histCellEvaluator) NewState() CellState { return &heatmapCellState{} }

func (e *histCellEvaluator) Add(st CellState, row int32) {
	s := st.(*heatmapCellState)
	if len(e.sam) > 0 {
		s.sumMin += nearest1D(e.sam, e.vals[row])
	}
	s.n++
}

// RowCost implements RowCoster.
func (e *histCellEvaluator) RowCost(row int32) float64 {
	if len(e.sam) == 0 {
		return math.Inf(1)
	}
	return nearest1D(e.sam, e.vals[row])
}

func (e *histCellEvaluator) Merge(dst, src CellState) {
	d, s := dst.(*heatmapCellState), src.(*heatmapCellState)
	d.sumMin += s.sumMin
	d.n += s.n
}

func (e *histCellEvaluator) Loss(st CellState) float64 {
	s := st.(*heatmapCellState)
	if s.n == 0 {
		return 0
	}
	if len(e.sam) == 0 {
		return math.Inf(1)
	}
	return s.sumMin / float64(s.n)
}

func (e *histCellEvaluator) StateBytes() int64 { return 16 }

// histDense mirrors heatmapDense for the 1-D variant: flat (Σ min-
// distance, count) slices, nearest1D per row with the empty-sample check
// hoisted out of the chunk loop.
type histDense struct {
	ev     *histCellEvaluator
	sumMin []float64
	n      []int64
}

// NewDense implements ChunkEvaluator.
func (e *histCellEvaluator) NewDense() DenseStates { return &histDense{ev: e} }

func (d *histDense) Len() int { return len(d.n) }

func (d *histDense) Grow(n int) {
	for len(d.n) < n {
		d.sumMin = append(d.sumMin, 0)
		d.n = append(d.n, 0)
	}
}

//lint:hot AddChunk runs once per raw row; the fold must not allocate.
func (d *histDense) AddChunk(slots, rows []int32) {
	if len(d.ev.sam) == 0 {
		for _, s := range slots {
			d.n[s]++
		}
		return
	}
	vals, sam := d.ev.vals, d.ev.sam
	for i, s := range slots {
		d.sumMin[s] += nearest1D(sam, vals[rows[i]])
		d.n[s]++
	}
}

func (d *histDense) MergeSlot(dst int32, other DenseStates, src int32) {
	o := other.(*histDense)
	d.sumMin[dst] += o.sumMin[src]
	d.n[dst] += o.n[src]
}

func (d *histDense) Loss(slot int32) float64 {
	if d.n[slot] == 0 {
		return 0
	}
	if len(d.ev.sam) == 0 {
		return math.Inf(1)
	}
	return d.sumMin[slot] / float64(d.n[slot])
}

func (d *histDense) Export(slot int32) CellState {
	return &heatmapCellState{sumMin: d.sumMin[slot], n: d.n[slot]}
}

type histGreedy struct {
	vals    []float64
	minDist []float64
	samN    int
}

// NewGreedy implements GreedyCapable.
func (h *Histogram) NewGreedy(raw dataset.View) (GreedyEvaluator, error) {
	col, err := resolveNumeric(raw.Table.Schema(), h.Column)
	if err != nil {
		return nil, err
	}
	g := &histGreedy{vals: raw.FloatsOf(col)}
	g.minDist = make([]float64, len(g.vals))
	for i := range g.minDist {
		g.minDist[i] = math.Inf(1)
	}
	return g, nil
}

func (g *histGreedy) Len() int { return len(g.vals) }

func (g *histGreedy) CurrentLoss() float64 {
	if len(g.vals) == 0 {
		return 0
	}
	if g.samN == 0 {
		return math.Inf(1)
	}
	var sum float64
	for _, d := range g.minDist {
		sum += d
	}
	return sum / float64(len(g.vals))
}

func (g *histGreedy) LossWith(i int) float64 {
	if len(g.vals) == 0 {
		return 0
	}
	c := g.vals[i]
	var sum float64
	for j, v := range g.vals {
		d := math.Abs(v - c)
		if m := g.minDist[j]; m < d {
			d = m
		}
		sum += d
	}
	return sum / float64(len(g.vals))
}

func (g *histGreedy) Add(i int) {
	c := g.vals[i]
	for j, v := range g.vals {
		if d := math.Abs(v - c); d < g.minDist[j] {
			g.minDist[j] = d
		}
	}
	g.samN++
}

// MergeSafe implements the MergeSafe marker: the 1-D average-min-distance
// union bound holds (see loss.MergeSafe).
func (h *Histogram) MergeSafe() bool { return true }
