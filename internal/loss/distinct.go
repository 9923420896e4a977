package loss

import (
	"github.com/tabula-db/tabula/internal/dataset"
)

// Distinct measures category coverage (the paper lists DISTINCT among
// the aggregates a loss may use): the fraction of the raw data's
// distinct values of a column that do NOT occur in the sample:
//
//	loss(Raw, Sam) = 1 − |distinct(Sam) ∩ distinct(Raw)| / |distinct(Raw)|
//
// With θ = 0.1, every sample Tabula returns carries at least 90% of the
// distinct values of the target attribute — the right contract for
// dashboards listing category breakdowns, where a missing category is a
// silent lie. The loss lives in [0, 1]; empty raw data has loss 0.
//
// The distinct-value set is a distributive state (set union), so the
// dry run derives it through the lattice. Intended for categorical or
// low-cardinality attributes: state size is proportional to the
// attribute's distinct count.
type Distinct struct {
	// Column is the target attribute (any scalar type).
	Column string
}

// NewDistinct returns the distinct-coverage loss over the named column.
func NewDistinct(column string) *Distinct { return &Distinct{Column: column} }

// Name implements Func.
func (d *Distinct) Name() string { return "distinct" }

// Unit implements Func.
func (d *Distinct) Unit() string { return "fraction-missing" }

// valueKey canonicalizes a value for set membership.
func valueKey(v dataset.Value) string { return v.String() }

func (d *Distinct) distinctOf(v dataset.View) (map[string]struct{}, error) {
	col := v.Table.Schema().ColumnIndex(d.Column)
	if col < 0 {
		return nil, errUnknownColumn(d.Column)
	}
	out := make(map[string]struct{})
	n := v.Len()
	for i := 0; i < n; i++ {
		out[valueKey(v.Value(i, col))] = struct{}{}
	}
	return out, nil
}

func coverageLoss(raw, sam map[string]struct{}) float64 {
	if len(raw) == 0 {
		return 0
	}
	covered := 0
	for k := range raw {
		if _, ok := sam[k]; ok {
			covered++
		}
	}
	return 1 - float64(covered)/float64(len(raw))
}

// Loss implements Func.
func (d *Distinct) Loss(raw, sam dataset.View) float64 {
	r, err := d.distinctOf(raw)
	if err != nil {
		panic(err)
	}
	s, err := d.distinctOf(sam)
	if err != nil {
		panic(err)
	}
	return coverageLoss(r, s)
}

// distinctState is a cell's distinct-value set. Exactly one of the two
// maps is non-nil, fixed by the evaluator that created it: codes when
// the target is a String column (dictionary codes are compared instead
// of allocating a stringified key per row), set on the fallback for
// other column types.
type distinctState struct {
	set   map[string]struct{}
	codes map[int32]struct{}
}

type distinctCellEvaluator struct {
	d *Distinct

	// The raw side, built by BindSample and shared by every Rebind: the
	// table's per-row dictionary codes and the dictionary's string → code
	// map when the target is a String column, else the stringified values.
	codes []int32
	rank  map[string]int32
	keys  []string

	// The sample side: samCodes beside codes, sam beside keys.
	samCodes map[int32]struct{}
	sam      map[string]struct{}
}

// BindSample implements DryRunner. When the target is a String column the
// evaluator compares dictionary codes: cell sets hold the raw table's
// codes, and the sample's values — the sample view may be over a
// different table with its own dictionary — are remapped into raw codes.
func (d *Distinct) BindSample(table *dataset.Table, sam dataset.View) (CellEvaluator, error) {
	col := table.Schema().ColumnIndex(d.Column)
	if col < 0 {
		return nil, errUnknownColumn(d.Column)
	}
	raw := distinctCellEvaluator{d: d}
	if table.Schema()[col].Type == dataset.String {
		var dict []string
		raw.codes, dict = table.StringCodes(col)
		raw.rank = make(map[string]int32, len(dict))
		for c, s := range dict {
			raw.rank[s] = int32(c)
		}
	} else {
		raw.keys = make([]string, table.NumRows())
		for i := range raw.keys {
			raw.keys[i] = valueKey(table.Value(i, col))
		}
	}
	return raw.Rebind(sam)
}

// Rebind implements RawSummarizer. A sample value absent from the raw
// dictionary can never intersect a raw cell's set, so it is skipped;
// coverage is unchanged.
func (e *distinctCellEvaluator) Rebind(sam dataset.View) (CellEvaluator, error) {
	samSet, err := e.d.distinctOf(sam)
	if err != nil {
		return nil, err
	}
	ev := *e
	if e.codes == nil {
		ev.sam = samSet
		return &ev, nil
	}
	ev.samCodes = make(map[int32]struct{}, len(samSet))
	for k := range samSet {
		if c, ok := e.rank[k]; ok {
			ev.samCodes[c] = struct{}{}
		}
	}
	return &ev, nil
}

func (e *distinctCellEvaluator) NewState() CellState {
	if e.codes != nil {
		return &distinctState{codes: make(map[int32]struct{})}
	}
	return &distinctState{set: make(map[string]struct{})}
}

func (e *distinctCellEvaluator) Add(st CellState, row int32) {
	s := st.(*distinctState)
	if e.codes != nil {
		s.codes[e.codes[row]] = struct{}{}
		return
	}
	s.set[e.keys[row]] = struct{}{}
}

func (e *distinctCellEvaluator) Merge(dst, src CellState) {
	d, s := dst.(*distinctState), src.(*distinctState)
	if d.codes != nil {
		for c := range s.codes {
			d.codes[c] = struct{}{}
		}
		return
	}
	for k := range s.set {
		d.set[k] = struct{}{}
	}
}

func (e *distinctCellEvaluator) Loss(st CellState) float64 {
	s := st.(*distinctState)
	if e.codes != nil {
		return coverageCodesLoss(s.codes, e.samCodes)
	}
	return coverageLoss(s.set, e.sam)
}

func (e *distinctCellEvaluator) StateBytes() int64 { return 64 }

func coverageCodesLoss(raw, sam map[int32]struct{}) float64 {
	if len(raw) == 0 {
		return 0
	}
	covered := 0
	for c := range raw {
		if _, ok := sam[c]; ok {
			covered++
		}
	}
	return 1 - float64(covered)/float64(len(raw))
}

// distinctDense banks distinct states by slot. Sets stay maps (a
// distinct state is inherently a set), but the chunk fold reads the
// dictionary-code slice directly with no per-row boxing or dispatch.
type distinctDense struct {
	ev    *distinctCellEvaluator
	cells []*distinctState
}

// NewDense implements ChunkEvaluator.
func (e *distinctCellEvaluator) NewDense() DenseStates { return &distinctDense{ev: e} }

func (d *distinctDense) Len() int { return len(d.cells) }

func (d *distinctDense) Grow(n int) {
	for len(d.cells) < n {
		d.cells = append(d.cells, d.ev.NewState().(*distinctState))
	}
}

// The set-insert fold must not allocate beyond the set entries themselves.
//
//lint:hot AddChunk runs once per raw row.
func (d *distinctDense) AddChunk(slots, rows []int32) {
	if codes := d.ev.codes; codes != nil {
		for i, s := range slots {
			d.cells[s].codes[codes[rows[i]]] = struct{}{}
		}
		return
	}
	keys := d.ev.keys
	for i, s := range slots {
		d.cells[s].set[keys[rows[i]]] = struct{}{}
	}
}

func (d *distinctDense) MergeSlot(dst int32, other DenseStates, src int32) {
	d.ev.Merge(d.cells[dst], other.(*distinctDense).cells[src])
}

func (d *distinctDense) Loss(slot int32) float64 { return d.ev.Loss(d.cells[slot]) }

func (d *distinctDense) Export(slot int32) CellState { return d.cells[slot] }

type distinctGreedy struct {
	keys []string
	// rawCount[k] unused; rawSet fixes the denominator.
	rawSet  map[string]struct{}
	covered map[string]struct{}
}

// NewGreedy implements GreedyCapable.
func (d *Distinct) NewGreedy(raw dataset.View) (GreedyEvaluator, error) {
	col := raw.Table.Schema().ColumnIndex(d.Column)
	if col < 0 {
		return nil, errUnknownColumn(d.Column)
	}
	n := raw.Len()
	g := &distinctGreedy{
		keys:    make([]string, n),
		rawSet:  make(map[string]struct{}),
		covered: make(map[string]struct{}),
	}
	for i := 0; i < n; i++ {
		g.keys[i] = valueKey(raw.Value(i, col))
		g.rawSet[g.keys[i]] = struct{}{}
	}
	return g, nil
}

func (g *distinctGreedy) Len() int { return len(g.keys) }

func (g *distinctGreedy) CurrentLoss() float64 {
	if len(g.rawSet) == 0 {
		return 0
	}
	return 1 - float64(len(g.covered))/float64(len(g.rawSet))
}

func (g *distinctGreedy) LossWith(i int) float64 {
	if len(g.rawSet) == 0 {
		return 0
	}
	covered := len(g.covered)
	if _, ok := g.covered[g.keys[i]]; !ok {
		covered++
	}
	return 1 - float64(covered)/float64(len(g.rawSet))
}

func (g *distinctGreedy) Add(i int) { g.covered[g.keys[i]] = struct{}{} }

func errUnknownColumn(name string) error {
	return &unknownColumnError{name: name}
}

type unknownColumnError struct{ name string }

func (e *unknownColumnError) Error() string { return "loss: unknown column " + e.name }
