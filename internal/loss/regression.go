package loss

import (
	"math"

	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/engine"
)

// Regression is the paper's Function 3: the absolute difference, in
// degrees, between the least-squares regression angles of the raw data and
// of the sample — ABS(angle(Raw) − angle(Sam)). The paper's running
// example regresses tip amount (y) on fare amount (x).
//
// Degenerate fits: if the raw data has no defined regression line (fewer
// than two tuples or zero x-variance) the loss is 0 — there is nothing for
// the sample to misrepresent. If the raw line exists but the sample's does
// not, the loss is +Inf so the greedy sampler keeps adding tuples until
// the sample line is defined.
type Regression struct {
	// XColumn and YColumn are the numeric regression attributes.
	XColumn string
	YColumn string
}

// NewRegression returns the linear-regression angle loss.
func NewRegression(xColumn, yColumn string) *Regression {
	return &Regression{XColumn: xColumn, YColumn: yColumn}
}

// Name implements Func.
func (r *Regression) Name() string { return "regression" }

// Unit implements Func.
func (r *Regression) Unit() string { return "degree" }

func regAngleLoss(raw, sam *engine.RegressionState) float64 {
	rawAngle := raw.Angle()
	if math.IsNaN(rawAngle) {
		return 0
	}
	samAngle := sam.Angle()
	if math.IsNaN(samAngle) {
		return math.Inf(1)
	}
	return math.Abs(rawAngle - samAngle)
}

func regStateOf(v dataset.View, xCol, yCol int) *engine.RegressionState {
	st := &engine.RegressionState{}
	xs := v.FloatsOf(xCol)
	ys := v.FloatsOf(yCol)
	for i := range xs {
		st.AddXY(xs[i], ys[i])
	}
	return st
}

// Loss implements Func.
func (r *Regression) Loss(raw, sam dataset.View) float64 {
	xCol, err := resolveNumeric(raw.Table.Schema(), r.XColumn)
	if err != nil {
		panic(err)
	}
	yCol, err := resolveNumeric(raw.Table.Schema(), r.YColumn)
	if err != nil {
		panic(err)
	}
	sxCol, err := resolveNumeric(sam.Table.Schema(), r.XColumn)
	if err != nil {
		panic(err)
	}
	syCol, err := resolveNumeric(sam.Table.Schema(), r.YColumn)
	if err != nil {
		panic(err)
	}
	return regAngleLoss(regStateOf(raw, xCol, yCol), regStateOf(sam, sxCol, syCol))
}

type regCellEvaluator struct {
	r      *Regression
	xs, ys []float64
	sam    *engine.RegressionState
}

// BindSample implements DryRunner.
func (r *Regression) BindSample(table *dataset.Table, sam dataset.View) (CellEvaluator, error) {
	xCol, err := resolveNumeric(table.Schema(), r.XColumn)
	if err != nil {
		return nil, err
	}
	yCol, err := resolveNumeric(table.Schema(), r.YColumn)
	if err != nil {
		return nil, err
	}
	raw := regCellEvaluator{r: r, xs: numericColumn(table, xCol), ys: numericColumn(table, yCol)}
	return raw.Rebind(sam)
}

// Rebind implements RawSummarizer.
func (e *regCellEvaluator) Rebind(sam dataset.View) (CellEvaluator, error) {
	sxCol, err := resolveNumeric(sam.Table.Schema(), e.r.XColumn)
	if err != nil {
		return nil, err
	}
	syCol, err := resolveNumeric(sam.Table.Schema(), e.r.YColumn)
	if err != nil {
		return nil, err
	}
	ev := *e
	ev.sam = regStateOf(sam, sxCol, syCol)
	return &ev, nil
}

func (e *regCellEvaluator) NewState() CellState { return &engine.RegressionState{} }

func (e *regCellEvaluator) Add(st CellState, row int32) {
	st.(*engine.RegressionState).AddXY(e.xs[row], e.ys[row])
}

func (e *regCellEvaluator) Merge(dst, src CellState) {
	dst.(*engine.RegressionState).MergeReg(src.(*engine.RegressionState))
}

func (e *regCellEvaluator) Loss(st CellState) float64 {
	return regAngleLoss(st.(*engine.RegressionState), e.sam)
}

func (e *regCellEvaluator) StateBytes() int64 { return 40 }

// Key implements KeyRanger: the raw regression angle, the very float
// regAngleLoss subtracts from. It is NaN when the raw line is undefined
// (loss 0).
func (e *regCellEvaluator) Key(st CellState) float64 {
	return st.(*engine.RegressionState).Angle()
}

// regKeyMinTheta is the smallest positive θ Regression's KeyRange bounds;
// below it, the widening in its comment could be subnormal.
const regKeyMinTheta = 0x1p-960

// KeyRange implements KeyRanger. With s the sample angle, a raw angle r is
// within θ only in [s−θ, s+θ], widened by w = (|s|+θ)·2⁻⁵⁰, four ulps of
// |s|+θ. An undefined sample line (loss +Inf) admits nothing.
//
// Why rounding cannot put an edge outside the range: let u = 2⁻⁵³. The
// computed hi = fl(fl(s+θ) + w) is at least s + θ + w − 3u(|s|+θ) ≥
// s + θ + 4uθ, since fl(w) ≥ 8u(|s|+θ)(1−u). A float r > hi has
// r − s > θ(1+4u), and fl(r − s) ≥ (r − s)(1−u) > θ: the loss
// |fl(r − s)| exceeds θ. The lower end mirrors it. At θ = 0 the range is
// [s, s] itself: fl(r − s) is 0 only when r = s.
func (e *regCellEvaluator) KeyRange(theta float64) (lo, hi float64) {
	s := e.sam.Angle()
	switch {
	case !(theta >= 0): // a loss is never negative; nothing is within NaN
		return noKeys()
	case math.IsInf(theta, 1):
		return allKeys()
	case math.IsNaN(s):
		return noKeys()
	case theta == 0:
		return s, s
	case theta < regKeyMinTheta:
		return allKeys()
	}
	w := (math.Abs(s) + theta) * 0x1p-50
	return s - theta - w, s + theta + w
}

// regDense holds the regression sufficient statistics by value in one
// flat slice — AddXY on &states[s] is a concrete (inlinable) call, and a
// cuboid's worth of states is a single allocation.
type regDense struct {
	ev     *regCellEvaluator
	states []engine.RegressionState
}

// NewDense implements ChunkEvaluator.
func (e *regCellEvaluator) NewDense() DenseStates { return &regDense{ev: e} }

func (d *regDense) Len() int { return len(d.states) }

func (d *regDense) Grow(n int) {
	for len(d.states) < n {
		d.states = append(d.states, engine.RegressionState{})
	}
}

//lint:hot AddChunk runs once per raw row; the fold must not allocate.
func (d *regDense) AddChunk(slots, rows []int32) {
	xs, ys := d.ev.xs, d.ev.ys
	for i, s := range slots {
		row := rows[i]
		d.states[s].AddXY(xs[row], ys[row])
	}
}

func (d *regDense) MergeSlot(dst int32, other DenseStates, src int32) {
	d.states[dst].MergeReg(&other.(*regDense).states[src])
}

func (d *regDense) Loss(slot int32) float64 {
	return regAngleLoss(&d.states[slot], d.ev.sam)
}

func (d *regDense) Export(slot int32) CellState {
	st := d.states[slot]
	return &st
}

type regGreedy struct {
	xs, ys []float64
	raw    *engine.RegressionState
	sam    engine.RegressionState
}

// NewGreedy implements GreedyCapable.
func (r *Regression) NewGreedy(raw dataset.View) (GreedyEvaluator, error) {
	xCol, err := resolveNumeric(raw.Table.Schema(), r.XColumn)
	if err != nil {
		return nil, err
	}
	yCol, err := resolveNumeric(raw.Table.Schema(), r.YColumn)
	if err != nil {
		return nil, err
	}
	g := &regGreedy{xs: raw.FloatsOf(xCol), ys: raw.FloatsOf(yCol)}
	g.raw = &engine.RegressionState{}
	for i := range g.xs {
		g.raw.AddXY(g.xs[i], g.ys[i])
	}
	return g, nil
}

func (g *regGreedy) Len() int { return len(g.xs) }

func (g *regGreedy) CurrentLoss() float64 {
	sam := g.sam
	return regAngleLoss(g.raw, &sam)
}

func (g *regGreedy) LossWith(i int) float64 {
	sam := g.sam // copy the small state
	sam.AddXY(g.xs[i], g.ys[i])
	return regAngleLoss(g.raw, &sam)
}

func (g *regGreedy) Add(i int) { g.sam.AddXY(g.xs[i], g.ys[i]) }
