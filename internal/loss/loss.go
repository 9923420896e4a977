// Package loss implements Tabula's user-defined accuracy loss framework.
//
// An accuracy loss function quantifies how much a visual-analysis result
// computed on a sample deviates from the result computed on the raw data.
// The paper requires loss functions to be *algebraic* so the sampling-cube
// dry run can evaluate loss(cell, Sam_global) for every cube cell from a
// single scan of the raw table, merging partial states up the cuboid
// lattice.
//
// Func.Loss(raw, sam) is the definition itself — used for verification,
// for the SampleOnTheFly baselines, and as every stage's fallback. What a
// loss or its bound evaluator can do beyond it is expressed as interfaces:
//
//   - DryRunner.BindSample: an algebraic evaluator against a *fixed*
//     sample, producing mergeable per-cell states (the dry-run stage and
//     the SamGraph similarity join both use this); ChunkEvaluator is its
//     columnar form for the vectorized scan.
//   - RawSummarizer.Rebind and RowCoster.RowCost: how SamGraph selection
//     may test a pair without folding the cell — the states never read the
//     sample, or the loss is a mean of non-negative per-row costs (such
//     losses take the cover pass instead of the exhaustive join).
//   - KeyRanger.Key and KeyRange: how the SamGraph join may skip a pair
//     without scoring it — a raw summary's loss under a sample can only be
//     within θ when one scalar of the summary lies in an interval the
//     sample and θ fix (mean, regression).
//   - GreedyCapable.NewGreedy: an incremental evaluator that makes each
//     round of the greedy sampling algorithm (Algorithm 1) cheap.
//   - MergeSafe: per-cell guarantees compose under disjoint union.
//
// Built-in losses mirror the paper's four instances: statistical mean
// (Function 1), geospatial heatmap average-minimum-distance (Function 2),
// linear-regression angle (Function 3), and the 1-D histogram variant of
// Function 2. User-defined losses arrive through the CREATE AGGREGATE DSL
// (see Compile).
package loss

import (
	"fmt"
	"math"

	"github.com/tabula-db/tabula/internal/dataset"
)

// Func is an accuracy loss function: a lower value means the sample
// represents the raw data better, and 0 means perfect fidelity for the
// analysis the function models.
type Func interface {
	// Name identifies the loss for logging and the experiment harness.
	Name() string
	// Unit is the human unit of the returned loss ("relative", "meter",
	// "degree", "dollar", ...).
	Unit() string
	// Loss computes loss(raw, sam). Both views must be over tables with
	// the schema the function was configured for. By convention the loss
	// of an empty sample against non-empty raw data is +Inf, and the loss
	// of anything against empty raw data is 0.
	Loss(raw, sam dataset.View) float64
}

// CellState is an opaque mergeable partial aggregate owned by a
// CellEvaluator.
type CellState any

// CellEvaluator evaluates loss(cellData, fixedSam) for arbitrary subsets
// (cube cells) of one bound table, using algebraic per-cell states.
type CellEvaluator interface {
	// NewState returns an empty per-cell state.
	NewState() CellState
	// Add folds table row `row` into the state.
	Add(st CellState, row int32)
	// Merge folds src into dst (states must come from this evaluator).
	Merge(dst, src CellState)
	// Loss finalizes loss(state's rows, boundSample).
	Loss(st CellState) float64
	// StateBytes reports the approximate memory footprint of one state,
	// feeding the cube-table memory accounting.
	StateBytes() int64
}

// DryRunner is implemented by algebraic losses; BindSample fixes the
// sample side and returns an evaluator whose states are mergeable through
// the cuboid lattice.
type DryRunner interface {
	BindSample(table *dataset.Table, sam dataset.View) (CellEvaluator, error)
}

// DenseStates is a flat, slot-indexed bank of per-cell loss states — the
// columnar counterpart of a map[cellKey]CellState. The vectorized dry-run
// scan remaps packed cell keys to small dense slot indexes and folds
// whole row chunks at once, so the built-in losses can accumulate into
// typed slices (one struct per state, no per-cell heap allocation, no
// per-row interface dispatch).
//
// A bank belongs to the ChunkEvaluator that created it; slots are dense
// [0, Len()) and only ever grow. Every operation must produce results
// bit-identical to the equivalent CellState sequence (same accumulation
// order ⇒ same float sums), which is what lets DryRunResult stay
// byte-identical between the scalar and vectorized paths.
type DenseStates interface {
	// Len returns the number of live slots.
	Len() int
	// Grow extends the bank to n slots; new slots start empty.
	Grow(n int)
	// AddChunk folds table row rows[i] into slot slots[i] for every i,
	// reading the target columns directly from their backing slices.
	AddChunk(slots, rows []int32)
	// MergeSlot folds slot src of other — a bank created by the same
	// evaluator — into slot dst of the receiver.
	MergeSlot(dst int32, other DenseStates, src int32)
	// Loss finalizes loss(slot's rows, boundSample).
	Loss(slot int32) float64
	// Export converts a slot into the evaluator's heap CellState (the
	// same concrete type NewState/Add/Merge produce), so retained states
	// keep working with the per-row Append maintenance path.
	Export(slot int32) CellState
}

// ChunkEvaluator is the optional columnar fast path of a CellEvaluator.
// The paper's built-in losses implement it; evaluators that don't (e.g.
// compiled DSL losses) make the dry run fall back wholesale to the
// per-row CellState loop, so results never depend on which path ran.
type ChunkEvaluator interface {
	CellEvaluator
	// NewDense returns an empty state bank bound to this evaluator.
	NewDense() DenseStates
}

// GreedyEvaluator supports the greedy sampling loop: it tracks the current
// sample (a growing subset of the raw view) and answers "what would the
// loss be if raw tuple i were added" efficiently.
type GreedyEvaluator interface {
	// Len returns the number of raw tuples.
	Len() int
	// CurrentLoss returns loss(raw, currentSample).
	CurrentLoss() float64
	// LossWith returns loss(raw, currentSample + raw[i]).
	LossWith(i int) float64
	// Add commits raw tuple i to the sample.
	Add(i int)
}

// GreedyCapable is implemented by losses that provide an incremental
// greedy evaluator. Losses without it fall back to repeated Loss calls.
type GreedyCapable interface {
	NewGreedy(raw dataset.View) (GreedyEvaluator, error)
}

// resolveNumeric returns the index of a numeric (Int64/Float64) column.
func resolveNumeric(s dataset.Schema, name string) (int, error) {
	idx := s.ColumnIndex(name)
	if idx < 0 {
		return 0, fmt.Errorf("loss: unknown column %q", name)
	}
	switch s[idx].Type {
	case dataset.Int64, dataset.Float64:
		return idx, nil
	default:
		return 0, fmt.Errorf("loss: column %q has type %v, want numeric", name, s[idx].Type)
	}
}

// resolvePoint returns the index of a Point column.
func resolvePoint(s dataset.Schema, name string) (int, error) {
	idx := s.ColumnIndex(name)
	if idx < 0 {
		return 0, fmt.Errorf("loss: unknown column %q", name)
	}
	if s[idx].Type != dataset.Point {
		return 0, fmt.Errorf("loss: column %q has type %v, want POINT", name, s[idx].Type)
	}
	return idx, nil
}

// numericColumn returns numeric column col of table as float64s indexed by
// table row: a Float64 column's backing slice itself — read-only, and valid
// only until the table next grows, like the point and code slices other
// evaluators hold — so a bind costs nothing per row; an Int64 column's copy.
func numericColumn(table *dataset.Table, col int) []float64 {
	if table.Schema()[col].Type == dataset.Float64 {
		return table.Floats(col)
	}
	return dataset.FullView(table).FloatsOf(col)
}

// RawSummarizer is the capability of bound evaluators whose cell states
// summarize the raw table alone: NewState, Add and Merge never read the
// bound sample, only Loss does. A cell folded once can then be scored
// against any number of samples.
//
// Rebind returns an evaluator over the same table bound to sam instead. It
// shares the receiver's raw side (columns, keys, dictionaries), so it costs
// O(|sam|) whatever the table size, and it accepts the states of the
// receiver and of every evaluator rebound from it. Loss reads state and
// evaluator without mutating either, so goroutines may share both.
type RawSummarizer interface {
	CellEvaluator
	Rebind(sam dataset.View) (CellEvaluator, error)
}

// KeyRanger is the capability of raw-summary evaluators whose pair test is
// decided by one scalar of the cell state: for every state st whose Key is
// finite and lies outside KeyRange(theta), Loss(st) <= theta is false. A
// NaN Key bounds nothing — such a state must always be scored — and an
// empty range (lo > hi) says every finite-keyed state is out of reach.
//
// Key reads the state alone, never the bound sample, so a key computed
// under one evaluator holds under every evaluator rebound from it; Rebind
// of a KeyRanger returns a KeyRanger. The SamGraph join sorts the targets
// by key once and scores each candidate only against the slice of keys
// its range admits. KeyRange never returns a NaN end.
type KeyRanger interface {
	RawSummarizer
	Key(st CellState) float64
	KeyRange(theta float64) (lo, hi float64)
}

// noKeys and allKeys are the KeyRanges that admit no finite key and every
// one.
func noKeys() (lo, hi float64)  { return math.Inf(1), math.Inf(-1) }
func allKeys() (lo, hi float64) { return math.Inf(-1), math.Inf(1) }

// RowCoster is the capability of bound evaluators whose loss is the mean
// of non-negative per-row costs: for any state st folded from rows,
// Loss(st) equals (Σ RowCost(row)) / len(rows), the sum taken in Add order
// (and 0 for no rows). The average-minimum-distance evaluators (heatmap,
// histogram) have it — a row's cost is its distance to the nearest tuple
// of the bound sample, +Inf when the sample is empty. Because costs never
// go negative, the cost of any subset of a cell's rows is a lower bound on
// the cell's distance sum; SamGraph selection uses that to reject a pair
// from a prefix of the rows instead of the whole cell. RowCost must be
// safe to call from several goroutines on one evaluator: the cover pass
// shares a representative's evaluator between its workers.
type RowCoster interface {
	CellEvaluator
	RowCost(row int32) float64
}

// MergeSafe is implemented by losses for which per-cell sample guarantees
// compose under disjoint union: if loss(A, sA) ≤ θ and loss(B, sB) ≤ θ
// for disjoint populations A and B, then loss(A∪B, sA∪sB) ≤ θ.
//
// The average-minimum-distance losses (Heatmap, Histogram) are merge
// safe: for x ∈ A, min over sA∪sB can only be smaller than min over sA,
// so the union's distance sum is at most θ·|A| + θ·|B| = θ·|A∪B|. The
// mean and regression losses are NOT merge safe (averages and fitted
// angles do not compose), so IN-style multi-cell queries are rejected
// for them.
type MergeSafe interface {
	MergeSafe() bool
}

// IsMergeSafe reports whether f declares the merge-safe property.
func IsMergeSafe(f Func) bool {
	ms, ok := f.(MergeSafe)
	return ok && ms.MergeSafe()
}

// The paper's built-in losses all provide the columnar fast path; DSL
// losses intentionally do not (they fall back to the per-row loop).
var (
	_ ChunkEvaluator = (*meanCellEvaluator)(nil)
	_ ChunkEvaluator = (*heatmapCellEvaluator)(nil)
	_ ChunkEvaluator = (*histCellEvaluator)(nil)
	_ ChunkEvaluator = (*regCellEvaluator)(nil)
	_ ChunkEvaluator = (*distinctCellEvaluator)(nil)

	_ RowCoster = (*heatmapCellEvaluator)(nil)
	_ RowCoster = (*histCellEvaluator)(nil)

	_ RawSummarizer = (*meanCellEvaluator)(nil)
	_ RawSummarizer = (*regCellEvaluator)(nil)
	_ RawSummarizer = (*distinctCellEvaluator)(nil)
	_ RawSummarizer = (*topkCellEvaluator)(nil)
	_ RawSummarizer = dslRawEvaluator{}

	_ KeyRanger = (*meanCellEvaluator)(nil)
	_ KeyRanger = (*regCellEvaluator)(nil)
)
