package samgraph

import (
	"fmt"
	"sort"

	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/loss"
)

// Reference implementations the production paths are tested against.
// Neither has a production caller.

// buildSequential is the single-threaded reference join: one candidate
// at a time, the MaxCandidates budget counted as tests happen, every
// tested cell folded whole. It is the ground truth the parallel join is
// equivalence-tested against; the cover pass of row-cost losses has
// wantCover (rowcost_test.go) instead.
func buildSequential(tbl *dataset.Table, vertices []Vertex, f loss.Func, theta float64, opts BuildOptions) (*Graph, error) {
	n := len(vertices)
	g := &Graph{Out: make([][]int, n)}
	for v := range g.Out {
		g.Out[v] = []int{v}
	}
	if n <= 1 {
		return g, nil
	}
	order := buildOrder(vertices)
	// testedFor[u] counts candidates tried for vertex u.
	testedFor := make([]int, n)
	dr, algebraic := f.(loss.DryRunner)
	for _, v := range order {
		samView := dataset.NewView(tbl, vertices[v].SampleRows)
		var ev loss.CellEvaluator
		if algebraic {
			var err error
			ev, err = dr.BindSample(tbl, samView)
			if err != nil {
				return nil, fmt.Errorf("samgraph: binding candidate %d: %w", v, err)
			}
		}
		for u := range vertices {
			if u == v {
				continue
			}
			if opts.MaxCandidates > 0 && testedFor[u] >= opts.MaxCandidates {
				continue
			}
			testedFor[u]++
			g.PairsTested++
			var exceeds bool
			if algebraic {
				exceeds = lossExceeds(ev, vertices[u].Rows, theta)
			} else {
				exceeds = f.Loss(dataset.NewView(tbl, vertices[u].Rows), samView) > theta
			}
			if !exceeds {
				g.Out[v] = append(g.Out[v], u)
			}
		}
		sort.Ints(g.Out[v])
	}
	return g, nil
}

// selectLinear is the recompute-on-pop reference of Algorithm 3: scan all
// remaining vertices, pick the first with the strictly greatest live
// degree. The oracle for TestSelectHeapMatchesLinear.
func selectLinear(g *Graph) *Result {
	n := g.NumVertices()
	res := &Result{AssignedTo: make([]int, n)}
	for i := range res.AssignedTo {
		res.AssignedTo[i] = -1
	}
	remaining := make([]bool, n)
	alive := n
	for i := range remaining {
		remaining[i] = true
	}
	liveDegree := func(v int) int {
		d := 0
		for _, u := range g.Out[v] {
			if remaining[u] {
				d++
			}
		}
		return d
	}
	candidates := make([]int, n)
	for i := range candidates {
		candidates[i] = i
	}
	for alive > 0 {
		best, bestDeg := -1, -1
		for _, v := range candidates {
			if !remaining[v] {
				continue
			}
			if d := liveDegree(v); d > bestDeg {
				best, bestDeg = v, d
			}
		}
		if best < 0 {
			panic("samgraph: no candidate with live degree")
		}
		res.Representatives = append(res.Representatives, best)
		for _, u := range g.Out[best] {
			if remaining[u] {
				remaining[u] = false
				alive--
				res.AssignedTo[u] = best
			}
		}
	}
	return res
}
