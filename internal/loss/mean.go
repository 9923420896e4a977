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

// Key implements KeyRanger: the raw average, the very float relMeanLoss
// divides by. It is NaN for an empty cell (loss 0), a zero average (the
// absolute branch, loss |AVG(Sam)|) and a non-finite one.
func (e *meanCellEvaluator) Key(st CellState) float64 {
	s := st.(*meanCellState)
	if s.n == 0 {
		return math.NaN()
	}
	a := s.sum / float64(s.n)
	if a == 0 || math.IsInf(a, 0) {
		return math.NaN()
	}
	return a
}

// Bounds of Mean's KeyRange, derived in its comment.
const (
	meanKeyMargin   = 0x1p-30     // relative widening of both ends
	meanKeyMaxTheta = 1 - 0x1p-20 // above it the range is the whole line
	meanKeyMinAvg   = 0x1p-1000   // below it too: the ends could be subnormal
)

// KeyRange implements KeyRanger. With b = AVG(Sam), a raw average a is
// within θ < 1 of b only in b/(1+θ) … b/(1−θ) (mirrored for b < 0): the
// ratio b/a must lie in [1−θ, 1+θ]. Above θ = 1 the set becomes two rays,
// so near 1 and beyond, the whole line is returned; an empty sample (loss
// +Inf) or a non-finite b (loss +Inf or NaN) admits nothing.
//
// Why rounding cannot put an edge outside the range. Let u = 2⁻⁵³ and a
// be a finite, non-zero key outside [lo, hi]. relMeanLoss computes
// |fl(fl(a−b)/a)|. The subtraction errs by a factor within 1±u, and so
// does the division: for a ≠ b its quotient is at least 2⁻⁵⁴ (distinct
// floats differ relatively by that much), so it never underflows, and an
// overflow gives +Inf, which is no edge. The computed loss is therefore at
// least |1 − b/a|·(1−u)², so it can be within θ only if |1 − b/a| ≤
// θ' = θ(1+3u), which for b > 0 confines a to [b/(1+θ'), b/(1−θ')].
// Against the plain ends b/(1±θ): b/(1+θ') ≥ b/(1+θ)·(1−3u), and, for
// 1−θ ≥ 2⁻²⁰, b/(1−θ') ≤ b/(1−θ)·(1 + 3u·2²⁰·2) = b/(1−θ)·(1 + 6·2⁻³³).
// Computing each end (a sum, a division and the margin's product) errs by
// at most (1±u)³, so the 2⁻³⁰ margin leaves lo below the first bound and hi
// above the second with room to spare. Every end is a normal float when
// |b| ≥ 2⁻¹⁰⁰⁰, which the relative error bounds need; smaller |b| (b = 0
// among them) gets the whole line.
func (e *meanCellEvaluator) KeyRange(theta float64) (lo, hi float64) {
	if !(theta >= 0) { // a loss is never negative; nothing is within NaN
		return noKeys()
	}
	if theta > meanKeyMaxTheta {
		return allKeys()
	}
	if e.samN == 0 {
		return noKeys()
	}
	b := e.samSum / float64(e.samN)
	m := math.Abs(b)
	switch {
	case math.IsNaN(b) || math.IsInf(b, 0):
		return noKeys()
	case m < meanKeyMinAvg:
		return allKeys()
	}
	lo = m / (1 + theta) * (1 - meanKeyMargin)
	hi = m / (1 - theta) * (1 + meanKeyMargin)
	if b < 0 {
		lo, hi = -hi, -lo
	}
	return lo, hi
}

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
