package core

import (
	"context"
	"fmt"

	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/engine"
	"github.com/tabula-db/tabula/internal/loss"
)

// ConditionIn is one multi-select predicate of a dashboard query:
// attr IN (values...). A single-value ConditionIn is equivalent to a
// plain Condition.
type ConditionIn struct {
	Attr   string
	Values []dataset.Value
}

// QueryIn answers a dashboard query whose WHERE clause is a conjunction
// of IN predicates over cubed attributes (the multi-select filters real
// dashboards generate). The queried population is the disjoint union of
// the matching cube cells; the answer is the union of those cells'
// materialized samples (each persisted sample included at most once).
//
// The deterministic guarantee carries over ONLY for merge-safe losses
// (see loss.MergeSafe): per-cell loss ≤ θ implies union loss ≤ θ for the
// average-minimum-distance family. For non-merge-safe losses (mean,
// regression) QueryIn returns an error directing the caller to issue
// per-cell queries instead.
//
// Like Query, QueryIn is lock-free: the entire answer is assembled from
// one atomically loaded snapshot. The context is checked while the cell
// cross-product is enumerated and while the union sample is copied, so a
// disconnected dashboard stops paying for large IN lists.
func (t *Tabula) QueryIn(ctx context.Context, conds []ConditionIn) (*QueryResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if t.params.Loss != nil && !loss.IsMergeSafe(t.params.Loss) {
		return nil, fmt.Errorf("core: loss %q is not merge-safe; IN queries would void the guarantee (issue per-value queries instead)", t.lossName())
	}
	if t.params.Loss == nil {
		return nil, fmt.Errorf("core: IN queries need the live loss function; a cube restored by Load answers only equality queries")
	}
	sn := t.snap.Load()
	// Per attribute: candidate codes (nil = unconstrained).
	codesPerAttr := make([][]int32, len(sn.attrVals))
	for _, c := range conds {
		ai, ok := sn.attrIdx[c.Attr]
		if !ok {
			return nil, fmt.Errorf("core: attribute %q is not a cubed attribute", c.Attr)
		}
		if codesPerAttr[ai] != nil {
			return nil, fmt.Errorf("core: attribute %q constrained twice", c.Attr)
		}
		if len(c.Values) == 0 {
			return nil, fmt.Errorf("core: empty IN list for %q", c.Attr)
		}
		var codes []int32
		for _, v := range c.Values {
			if code := sn.codeOf(ai, v); code != engine.NullCode {
				codes = append(codes, code)
			}
		}
		if len(codes) == 0 {
			// No known value matches: empty population.
			return sn.answerEmpty(), nil
		}
		codesPerAttr[ai] = codes
	}

	// Enumerate the cross-product of constrained codes and collect the
	// distinct samples that answer the member cells. Distinctness is by
	// physical table (a representative sample serving cells in several
	// shards is one table shared by pointer), and assembly order is the
	// deterministic cell-enumeration order — both independent of the
	// shard layout, so QueryIn answers are identical at any shard
	// count.
	//
	// The enumeration is an iterative odometer over the constrained
	// attributes (last attribute fastest — the same order the old
	// recursive descent visited), with a ctx poll per cell instead of
	// the old per-outermost-value poll: no recursion, no closure
	// allocations, and a disconnected dashboard stops paying within one
	// cell regardless of which attribute carries the large IN list.
	type inDim struct {
		ai    int
		codes []int32
	}
	var dims []inDim
	cp := getCodes(len(sn.attrVals))
	defer putCodes(cp)
	addr := *cp
	for ai, codes := range codesPerAttr {
		if codes != nil {
			dims = append(dims, inDim{ai: ai, codes: codes})
			addr[ai] = codes[0]
		}
	}
	seen := make(map[*sample]bool)
	var ordered []*dataset.Table
	useGlobal := false
	idx := make([]int, len(dims))
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		key := sn.codec.Encode(addr)
		si := sn.shardOf(key)
		sh := sn.shards[si]
		if id, ok := sh.cubeTable[key]; ok {
			if s := sh.samples[id]; !seen[s] {
				seen[s] = true
				ordered = append(ordered, s.tbl)
			}
		} else {
			useGlobal = true
		}
		// Advance the odometer: bump the last dimension, carrying
		// leftwards past exhausted ones; when the carry walks off the
		// front, every cell has been visited.
		k := len(dims) - 1
		for k >= 0 && idx[k]+1 == len(dims[k].codes) {
			idx[k] = 0
			addr[dims[k].ai] = dims[k].codes[0]
			k--
		}
		if k < 0 {
			break
		}
		idx[k]++
		addr[dims[k].ai] = dims[k].codes[idx[k]]
	}

	// Assemble the union sample by bulk column copies; ctx is checked
	// between tables (each copy is one memcpy-sized operation).
	union := dataset.NewTable(sn.schema)
	appendAll := func(s *dataset.Table) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return union.AppendTable(s)
	}
	for _, s := range ordered {
		if err := appendAll(s); err != nil {
			return nil, err
		}
	}
	if useGlobal {
		if err := appendAll(sn.global.tbl); err != nil {
			return nil, err
		}
	}
	return &QueryResult{Sample: union, FromGlobal: useGlobal && len(ordered) == 0, Shard: -1, SampleID: -1, Epoch: sn.epoch, Version: sn.version}, nil
}
