package loss

import (
	"math"

	"github.com/tabula-db/tabula/internal/dataset"
)

// Mean is the paper's Function 1: the relative error between the
// statistical mean of the sample and the statistical mean of the raw data,
// ABS(AVG(Raw) − AVG(Sam)) / AVG(Raw), computed over one numeric column.
//
// Edge cases: empty raw data has loss 0 (nothing to approximate); a
// non-empty raw population with an empty sample has loss +Inf; when
// AVG(Raw) is 0 the denominator degenerates, and the absolute difference
// is used instead so the loss stays finite and monotone.
type Mean struct {
	// Column is the numeric target attribute.
	Column string
}

// NewMean returns the statistical-mean loss over the named column.
func NewMean(column string) *Mean { return &Mean{Column: column} }

// Name implements Func.
func (m *Mean) Name() string { return "mean" }

// Unit implements Func.
func (m *Mean) Unit() string { return "relative" }

// relMeanLoss computes the loss from sufficient statistics.
func relMeanLoss(rawSum float64, rawN int64, samSum float64, samN int64) float64 {
	if rawN == 0 {
		return 0
	}
	if samN == 0 {
		return math.Inf(1)
	}
	rawAvg := rawSum / float64(rawN)
	samAvg := samSum / float64(samN)
	if rawAvg == 0 {
		return math.Abs(samAvg)
	}
	return math.Abs((rawAvg - samAvg) / rawAvg)
}

// Loss implements Func.
func (m *Mean) Loss(raw, sam dataset.View) float64 {
	rawSum, rawN, err := sumCount(raw, m.Column)
	if err != nil {
		panic(err)
	}
	samSum, samN, err := sumCount(sam, m.Column)
	if err != nil {
		panic(err)
	}
	return relMeanLoss(rawSum, rawN, samSum, samN)
}

func sumCount(v dataset.View, column string) (float64, int64, error) {
	col, err := resolveNumeric(v.Table.Schema(), column)
	if err != nil {
		return 0, 0, err
	}
	var sum float64
	n := v.Len()
	switch v.Table.Schema()[col].Type {
	case dataset.Float64:
		fs := v.Table.Floats(col)
		for i := 0; i < n; i++ {
			sum += fs[v.RowID(i)]
		}
	case dataset.Int64:
		is := v.Table.Ints(col)
		for i := 0; i < n; i++ {
			sum += float64(is[v.RowID(i)])
		}
	}
	return sum, int64(n), nil
}

// meanCellState is the algebraic dry-run state: (Σ target, count).
type meanCellState struct {
	sum float64
	n   int64
}

type meanCellEvaluator struct {
	column string
	floats []float64 // target column as floats, indexed by table row
	samSum float64
	samN   int64
}

// BindSample implements DryRunner.
func (m *Mean) BindSample(table *dataset.Table, sam dataset.View) (CellEvaluator, error) {
	col, err := resolveNumeric(table.Schema(), m.Column)
	if err != nil {
		return nil, err
	}
	raw := meanCellEvaluator{column: m.Column, floats: numericColumn(table, col)}
	return raw.Rebind(sam)
}

// Rebind implements RawSummarizer.
func (e *meanCellEvaluator) Rebind(sam dataset.View) (CellEvaluator, error) {
	samSum, samN, err := sumCount(sam, e.column)
	if err != nil {
		return nil, err
	}
	ev := *e
	ev.samSum, ev.samN = samSum, samN
	return &ev, nil
}

func (e *meanCellEvaluator) NewState() CellState { return &meanCellState{} }

func (e *meanCellEvaluator) Add(st CellState, row int32) {
	s := st.(*meanCellState)
	s.sum += e.floats[row]
	s.n++
}

func (e *meanCellEvaluator) Merge(dst, src CellState) {
	d, s := dst.(*meanCellState), src.(*meanCellState)
	d.sum += s.sum
	d.n += s.n
}

func (e *meanCellEvaluator) Loss(st CellState) float64 {
	s := st.(*meanCellState)
	return relMeanLoss(s.sum, s.n, e.samSum, e.samN)
}

func (e *meanCellEvaluator) StateBytes() int64 { return 16 }

// meanDense holds the (Σ target, count) states as two flat slices.
type meanDense struct {
	ev  *meanCellEvaluator
	sum []float64
	n   []int64
}

// NewDense implements ChunkEvaluator.
func (e *meanCellEvaluator) NewDense() DenseStates { return &meanDense{ev: e} }

func (d *meanDense) Len() int { return len(d.sum) }

func (d *meanDense) Grow(n int) {
	for len(d.sum) < n {
		d.sum = append(d.sum, 0)
		d.n = append(d.n, 0)
	}
}

//lint:hot AddChunk runs once per raw row; the fold must not allocate.
func (d *meanDense) AddChunk(slots, rows []int32) {
	fs := d.ev.floats
	for i, s := range slots {
		d.sum[s] += fs[rows[i]]
		d.n[s]++
	}
}

func (d *meanDense) MergeSlot(dst int32, other DenseStates, src int32) {
	o := other.(*meanDense)
	d.sum[dst] += o.sum[src]
	d.n[dst] += o.n[src]
}

func (d *meanDense) Loss(slot int32) float64 {
	return relMeanLoss(d.sum[slot], d.n[slot], d.ev.samSum, d.ev.samN)
}

func (d *meanDense) Export(slot int32) CellState {
	return &meanCellState{sum: d.sum[slot], n: d.n[slot]}
}

// meanGreedy is the O(1)-per-candidate incremental evaluator.
type meanGreedy struct {
	vals   []float64
	rawSum float64
	samSum float64
	samN   int64
}

// NewGreedy implements GreedyCapable.
func (m *Mean) NewGreedy(raw dataset.View) (GreedyEvaluator, error) {
	col, err := resolveNumeric(raw.Table.Schema(), m.Column)
	if err != nil {
		return nil, err
	}
	g := &meanGreedy{vals: raw.FloatsOf(col)}
	for _, v := range g.vals {
		g.rawSum += v
	}
	return g, nil
}

func (g *meanGreedy) Len() int { return len(g.vals) }

func (g *meanGreedy) CurrentLoss() float64 {
	return relMeanLoss(g.rawSum, int64(len(g.vals)), g.samSum, g.samN)
}

func (g *meanGreedy) LossWith(i int) float64 {
	return relMeanLoss(g.rawSum, int64(len(g.vals)), g.samSum+g.vals[i], g.samN+1)
}

func (g *meanGreedy) Add(i int) {
	g.samSum += g.vals[i]
	g.samN++
}
