package loss

import (
	"sort"

	"github.com/tabula-db/tabula/internal/dataset"
)

// TopK is a loss for "top N" dashboard panels (the paper lists TOP-K
// among the aggregate functions a loss may use): it measures the
// fraction of the raw data's K largest distinct values of a numeric
// column that are missing from the sample:
//
//	loss(Raw, Sam) = |topK(Raw) \ topK(Sam)| / |topK(Raw)|
//
// The loss lives in [0, 1]: 0 when the sample contains every top value,
// 1 when it contains none. Empty raw data has loss 0; an empty sample
// against non-empty raw data has loss 1 (finite by design — a top-K
// panel degrades gracefully rather than unboundedly).
//
// The top-K-distinct-values set is a mergeable (distributive) state, so
// the dry run derives it through the cuboid lattice like any algebraic
// measure.
type TopK struct {
	// Column is the numeric target attribute.
	Column string
	// K is the panel size (defaults to 10 via NewTopK).
	K int
}

// NewTopK returns the top-K loss over the named column.
func NewTopK(column string, k int) *TopK {
	if k <= 0 {
		k = 10
	}
	return &TopK{Column: column, K: k}
}

// Name implements Func.
func (t *TopK) Name() string { return "topk" }

// Unit implements Func.
func (t *TopK) Unit() string { return "fraction-missing" }

// topKSet maintains the K largest distinct values seen, ascending.
type topKSet struct {
	k    int
	vals []float64 // ascending, len <= k
}

func newTopKSet(k int) *topKSet { return &topKSet{k: k} }

func (s *topKSet) add(v float64) {
	i := sort.SearchFloat64s(s.vals, v)
	if i < len(s.vals) && s.vals[i] == v {
		return // already present
	}
	if len(s.vals) < s.k {
		s.vals = append(s.vals, 0)
		copy(s.vals[i+1:], s.vals[i:])
		s.vals[i] = v
		return
	}
	if i == 0 {
		return // smaller than the current minimum of a full set
	}
	// Drop the minimum, insert v (shift left portion).
	copy(s.vals[:i-1], s.vals[1:i])
	s.vals[i-1] = v
}

func (s *topKSet) merge(o *topKSet) {
	for _, v := range o.vals {
		s.add(v)
	}
}

// missingFrac computes |raw \ sam| / |raw| over the two top sets.
func missingFrac(raw, sam *topKSet) float64 {
	if len(raw.vals) == 0 {
		return 0
	}
	missing := 0
	for _, v := range raw.vals {
		i := sort.SearchFloat64s(sam.vals, v)
		if i >= len(sam.vals) || sam.vals[i] != v {
			missing++
		}
	}
	return float64(missing) / float64(len(raw.vals))
}

func (t *TopK) topOf(v dataset.View) (*topKSet, error) {
	col, err := resolveNumeric(v.Table.Schema(), t.Column)
	if err != nil {
		return nil, err
	}
	s := newTopKSet(t.K)
	for _, x := range v.FloatsOf(col) {
		s.add(x)
	}
	return s, nil
}

// Loss implements Func.
func (t *TopK) Loss(raw, sam dataset.View) float64 {
	r, err := t.topOf(raw)
	if err != nil {
		panic(err)
	}
	s, err := t.topOf(sam)
	if err != nil {
		panic(err)
	}
	return missingFrac(r, s)
}

type topkCellEvaluator struct {
	t    *TopK
	vals []float64
	sam  *topKSet
}

// BindSample implements DryRunner.
func (t *TopK) BindSample(table *dataset.Table, sam dataset.View) (CellEvaluator, error) {
	col, err := resolveNumeric(table.Schema(), t.Column)
	if err != nil {
		return nil, err
	}
	raw := topkCellEvaluator{t: t, vals: numericColumn(table, col)}
	return raw.Rebind(sam)
}

// Rebind implements RawSummarizer.
func (e *topkCellEvaluator) Rebind(sam dataset.View) (CellEvaluator, error) {
	samSet, err := e.t.topOf(sam)
	if err != nil {
		return nil, err
	}
	ev := *e
	ev.sam = samSet
	return &ev, nil
}

func (e *topkCellEvaluator) NewState() CellState { return newTopKSet(e.t.K) }

func (e *topkCellEvaluator) Add(st CellState, row int32) {
	st.(*topKSet).add(e.vals[row])
}

func (e *topkCellEvaluator) Merge(dst, src CellState) {
	dst.(*topKSet).merge(src.(*topKSet))
}

func (e *topkCellEvaluator) Loss(st CellState) float64 {
	return missingFrac(st.(*topKSet), e.sam)
}

func (e *topkCellEvaluator) StateBytes() int64 { return int64(e.t.K)*8 + 24 }

type topkGreedy struct {
	k    int
	vals []float64
	raw  *topKSet
	sam  *topKSet
}

// NewGreedy implements GreedyCapable.
func (t *TopK) NewGreedy(raw dataset.View) (GreedyEvaluator, error) {
	col, err := resolveNumeric(raw.Table.Schema(), t.Column)
	if err != nil {
		return nil, err
	}
	g := &topkGreedy{k: t.K, vals: raw.FloatsOf(col), raw: newTopKSet(t.K), sam: newTopKSet(t.K)}
	for _, v := range g.vals {
		g.raw.add(v)
	}
	return g, nil
}

func (g *topkGreedy) Len() int { return len(g.vals) }

func (g *topkGreedy) CurrentLoss() float64 { return missingFrac(g.raw, g.sam) }

func (g *topkGreedy) LossWith(i int) float64 {
	tmp := &topKSet{k: g.k, vals: append([]float64(nil), g.sam.vals...)}
	tmp.add(g.vals[i])
	return missingFrac(g.raw, tmp)
}

func (g *topkGreedy) Add(i int) { g.sam.add(g.vals[i]) }
