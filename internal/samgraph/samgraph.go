// Package samgraph implements Tabula's representative sample selection:
// the sample representation graph (Definition 6) and the greedy
// dominating-set heuristic (Algorithm 3) for the NP-hard RepSamSel
// problem (Definition 7).
//
// How the graph is built depends on the loss. For losses whose pair test
// is a fold of non-negative row costs (heatmap, histogram) Build runs a
// cover pass: cells are visited largest first and each is tested only
// against the representatives chosen before it, so the graph holds just
// the cover edges — the non-exhaustive SamGraph the paper allows, on
// which Select keeps exactly those representatives. Cover runs the same
// pass drawing each representative's sample on demand, so the caller need
// not sample the cells it covers. Every other loss gets the exhaustive
// loss-predicate similarity join. Either way every edge is an exact
// loss ≤ θ test.
package samgraph

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/loss"
	"github.com/tabula-db/tabula/internal/obs"
)

// Vertex is one iceberg cell as seen by the selection stage: its raw
// population and its local sample, both as raw-table row ids.
type Vertex struct {
	Rows       []int32
	SampleRows []int32
}

// Graph is the SamGraph: a directed graph where edge v→u means vertex v's
// local sample can also represent vertex u's raw data, i.e.
// loss(u.Rows, v.SampleRows) ≤ θ. Every vertex carries the implicit
// self-edge v→v, because its own sample satisfies θ by construction.
type Graph struct {
	// Out[v] lists the vertices represented by v's sample (always
	// including v itself), ascending.
	Out [][]int
	// PairsTested counts representation tests performed during the join
	// (the similarity-join cost the paper discusses).
	PairsTested int64
	// CoverTests counts the tests among PairsTested that the cover pass
	// ran, for losses whose bound evaluators are loss.RowCosters (0
	// otherwise): it says which path built the graph.
	CoverTests int64
	// RowCosts counts the per-row costs the cover pass's exact pair tests
	// summed (0 off that path), and RowCostsReused how many of them had
	// already been computed for an earlier target of the same
	// representative sharing the row.
	RowCosts       int64
	RowCostsReused int64
	// Summaries counts the target vertices folded once into a raw-table
	// state that every candidate's pair test then scored, for losses whose
	// bound evaluators are loss.RawSummarizers (0 otherwise).
	Summaries int64
	// PairsPruned counts the pairs among PairsTested that were decided
	// without scoring the target or computing its row costs: by the
	// target's key alone, outside the candidate's key range, for losses
	// whose bound evaluators are loss.KeyRangers; or by the sum of its rows'
	// cost floors in the cover pass, for losses that are loss.CostFloorers.
	PairsPruned int64
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.Out) }

// NumEdges returns the total directed edge count including self-edges.
func (g *Graph) NumEdges() int {
	var n int
	for _, out := range g.Out {
		n += len(out)
	}
	return n
}

// BuildOptions tunes Build.
type BuildOptions struct {
	// MaxCandidates caps how many candidate samples are tested per
	// vertex (0 = no cap). The paper notes the join "does not have to
	// exhaust all possible representation relationships": a
	// non-exhaustive SamGraph may persist more samples than necessary
	// but never violates the bounded-error guarantee. The join tries
	// candidates largest-sample-first, since a richer sample is more
	// likely to represent other cells; the cover pass tests a vertex
	// against at most this many representatives, in the order they were
	// chosen.
	MaxCandidates int
	// Workers bounds the parallelism (0 = GOMAXPROCS). The resulting
	// graph and its counters are identical for every worker count: in
	// the join each candidate vertex owns its adjacency list, and the
	// MaxCandidates budget is resolved ahead of time from the fixed
	// candidate order instead of racing on shared counters; the cover
	// pass deals one representative's targets out in blocks, whose tests
	// do not depend on which worker runs them.
	Workers int
}

// cancelCheckTargets is how many representation tests a join worker
// performs between ctx.Err() polls, and cancelCheckRows how many rows it
// folds into a summary between them (engine's cancelCheckRows).
const (
	cancelCheckTargets = 256
	cancelCheckRows    = 4096
)

// buildOrder returns the candidate order: largest sample first, index
// ascending among ties. The MaxCandidates admission rule and therefore
// the whole join output are functions of this order alone.
func buildOrder(vertices []Vertex) []int {
	order := make([]int, len(vertices))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := len(vertices[order[a]].SampleRows), len(vertices[order[b]].SampleRows)
		if sa != sb {
			return sa > sb
		}
		return order[a] < order[b]
	})
	return order
}

// costTable is a table-indexed memo of float64s — row costs, or region
// floors — for one representative at a time, shared by every cover worker:
// slot i holds a value computed for the representative whose ordinal is
// stamp[i]. Moving on to the next representative (the next ordinal)
// forgets every slot at once, and a remembered cost is the evaluator's own
// float64, so sums are bit-identical with or without the memo. Cells of
// different cuboids overlap — a raw row sits in one cell of every cuboid —
// so a representative meets most rows several times.
//
// Workers of one representative may race to fill a slot; they compute the
// same value, the bits are stored before the stamp, and only the
// compare-and-swap that publishes the stamp counts the value as computed,
// so that count does not depend on the worker count either.
type costTable struct {
	stamp []atomic.Uint32 // 0: never filled
	bits  []atomic.Uint64
}

func newCostTable(n int) costTable {
	return costTable{stamp: make([]atomic.Uint32, n), bits: make([]atomic.Uint64, n)}
}

// get returns slot i's value if it was filled for ordinal ord; otherwise ok
// is false and stamp is what put must replace.
func (t *costTable) get(i int32, ord uint32) (v float64, stamp uint32, ok bool) {
	if stamp = t.stamp[i].Load(); stamp == ord {
		return math.Float64frombits(t.bits[i].Load()), stamp, true
	}
	return 0, stamp, false
}

// put fills slot i with v for ordinal ord, replacing stamp, and reports
// whether this call published it.
func (t *costTable) put(i int32, ord, stamp uint32, v float64) bool {
	t.bits[i].Store(math.Float64bits(v))
	return t.stamp[i].CompareAndSwap(stamp, ord)
}

// coverCounts are one cover worker's tallies: row costs looked up by exact
// tests, those computed (published) by it, and pairs its floors rejected.
type coverCounts struct {
	costs, computed, pruned int64
}

// floorMargin widens θ·|rows| before the floors' sum is compared with it,
// by far more than the rounding error of summing them in another order
// than the costs, so a floor rejection implies the exact test's.
func floorMargin(rows int) float64 { return 1 + 1e-9 + float64(rows)*0x1p-50 }

// exceeds reports whether the mean cost of rows under rc, the evaluator of
// the representative with ordinal ord, is not within theta. With floors it
// first sums the rows' region floors, lower bounds on their costs, and
// rejects once that sum passes θ·|rows| (with margin) without computing a
// cost. Otherwise costs are summed in row order, exactly as folding the
// rows through Add and asking Loss would; because they are non-negative the
// sum only grows, so the fold stops at the first prefix past θ·|rows|. Both
// comparisons are phrased "not within" rather than "above", so a NaN cost
// rejects the pair; a NaN floor rejects nothing.
//
//lint:hot exceeds runs once per candidate pair; its loops once per row probed.
func (p *coverPool) exceeds(c *coverCounts, rc loss.RowCoster, ord uint32, rows []int32) bool {
	theta := p.j.theta
	if p.floors != nil {
		limit := theta * float64(len(rows)) * floorMargin(len(rows))
		var sum float64
		for _, row := range rows {
			r := p.regionOf[row]
			f, stamp, ok := p.floorTab.get(r, ord)
			if !ok {
				f = p.floors.Floor(rc, r)
				p.floorTab.put(r, ord, stamp, f)
			}
			if sum += f; sum > limit {
				c.pruned++
				return true
			}
		}
	}
	budget := theta * float64(len(rows))
	var sum float64
	for i, row := range rows {
		cost, stamp, ok := p.costTab.get(row, ord)
		if !ok {
			cost = rc.RowCost(row)
			if p.costTab.put(row, ord, stamp, cost) {
				c.computed++
			}
		}
		sum += cost
		if !(sum <= budget) {
			c.costs += int64(i + 1)
			return true
		}
	}
	c.costs += int64(len(rows))
	return len(rows) > 0 && !(sum/float64(len(rows)) <= theta)
}

// lossExceeds reports whether loss(rows, ev's bound sample) is not within
// theta (a NaN loss is not) by folding the rows through the evaluator.
func lossExceeds(ev loss.CellEvaluator, rows []int32, theta float64) bool {
	st := ev.NewState()
	for _, row := range rows {
		ev.Add(st, row)
	}
	return !(ev.Loss(st) <= theta)
}

// forEach runs fn(w, i) for every i in [0, n) on the given number of
// goroutines, w naming the goroutine. Items are handed out in ascending
// order until one fails or ctx is cancelled; ctx's error, else the first
// failure, is returned.
func forEach(ctx context.Context, workers, n int, fn func(w, i int) error) error {
	var (
		wg     sync.WaitGroup
		next   atomic.Int64
		failed atomic.Pointer[error]
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for failed.Load() == nil && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(w, i); err != nil {
					failed.CompareAndSwap(nil, &err)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := failed.Load(); err != nil {
		return *err
	}
	return nil
}

// join is what the workers of one Build share.
type join struct {
	tbl        *dataset.Table
	vertices   []Vertex
	f          loss.Func
	theta      float64
	maxCand    int
	order, pos []int          // the candidate order, and each vertex's rank in it
	out        [][]int        // Graph.Out: candidate v writes out[v] only
	dr         loss.DryRunner // nil: f is not algebraic and pairs call f.Loss
	// sum is non-nil when f's states summarize the raw table alone;
	// states[u] is then vertices[u].Rows folded in row order.
	sum    loss.RawSummarizer
	states []loss.CellState
	// keyed is set when sum is also a loss.KeyRanger: the targets with a
	// finite key, ascending by key, keys[i] being keyed[i]'s; unkeyed are
	// the others, which every candidate scores.
	keys           []float64
	keyed, unkeyed []int32
}

// joinWorker is one goroutine's pair counts and its edge bitset (created
// for the first loss.KeyRanger candidate; all zero between candidates).
type joinWorker struct {
	pairs, pruned int64
	marks         []uint64
}

// admitted reports whether the candidate of the given rank gets to test
// target u under the MaxCandidates budget. Sequentially, target u is tested
// by the first MaxCandidates candidates in order, skipping u itself — a set
// that depends only on the fixed order, never on test outcomes or
// scheduling, so it can be evaluated independently per pair.
func (j *join) admitted(rank, u int) bool {
	if j.maxCand <= 0 {
		return true
	}
	if j.pos[u] < rank {
		rank-- // u itself is skipped, freeing one budget slot
	}
	return rank < j.maxCand
}

// admittedCount is how many targets the candidate of the given rank may
// test, admitted summed over every other vertex: all of them below the
// MaxCandidates budget, the budget's worth ranked ahead of it at the
// budget, none beyond.
func (j *join) admittedCount(rank int) int64 {
	switch {
	case j.maxCand <= 0 || rank < j.maxCand:
		return int64(len(j.vertices) - 1)
	case rank == j.maxCand:
		return int64(j.maxCand)
	}
	return 0
}

// candidate binds the sample of the candidate with the given rank, tests it
// against every admitted target and records its adjacency list — ascending,
// as the candidate slots itself in on the way.
//
//lint:hot the loop runs once per candidate pair.
func (j *join) candidate(ctx context.Context, wk *joinWorker, rank int) error {
	v := j.order[rank]
	samView := dataset.NewView(j.tbl, j.vertices[v].SampleRows)
	var ev loss.CellEvaluator // stays nil when f is not algebraic
	var err error
	switch {
	case j.sum != nil:
		ev, err = j.sum.Rebind(samView)
	case j.dr != nil:
		ev, err = j.dr.BindSample(j.tbl, samView)
	}
	if err != nil {
		return fmt.Errorf("samgraph: binding candidate %d: %w", v, err)
	}
	if kr, ok := ev.(loss.KeyRanger); ok && j.keys != nil {
		return j.ranged(ctx, wk, rank, kr)
	}
	var pairs int64 // added to wk once: the workers' tallies share cache lines
	out := j.out[v][:0]
	for u := range j.vertices {
		if u == v {
			out = append(out, v)
			continue
		}
		if !j.admitted(rank, u) {
			continue
		}
		if pairs%cancelCheckTargets == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		pairs++
		rows := j.vertices[u].Rows
		var exceeds bool
		switch {
		case j.sum != nil:
			exceeds = !(ev.Loss(j.states[u]) <= j.theta)
		case j.dr != nil:
			exceeds = lossExceeds(ev, rows, j.theta)
		default:
			exceeds = !(j.f.Loss(dataset.NewView(j.tbl, rows), samView) <= j.theta)
		}
		if !exceeds {
			out = append(out, u)
		}
	}
	wk.pairs += pairs
	j.out[v] = out
	return nil
}

// ranged is candidate's pair test for a loss.KeyRanger: it scores only the
// targets whose key lies in the candidate's KeyRange, plus those without
// a finite key; every other admitted target is no edge by the capability's
// contract and is counted as pruned. Edges are marked in the worker's
// bitset and emitted ascending into a list of exactly their number, so a
// candidate allocates once.
//
//lint:hot the scoring loop runs once per candidate pair within range.
func (j *join) ranged(ctx context.Context, wk *joinWorker, rank int, kr loss.KeyRanger) error {
	v := j.order[rank]
	admitted := j.admittedCount(rank)
	if admitted == 0 {
		return nil // out[v] keeps its self-edge alone
	}
	lo, hi := kr.KeyRange(j.theta)
	from := sort.SearchFloat64s(j.keys, lo)
	to := from + sort.Search(len(j.keys)-from, func(i int) bool { return j.keys[from+i] > hi })
	if wk.marks == nil {
		wk.marks = make([]uint64, (len(j.vertices)+63)/64)
	}
	marks := wk.marks
	var tested int64
	for _, targets := range [2][]int32{j.keyed[from:to], j.unkeyed} {
		for _, u := range targets {
			if int(u) == v || !j.admitted(rank, int(u)) {
				continue
			}
			if tested%cancelCheckTargets == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			tested++
			if kr.Loss(j.states[u]) <= j.theta {
				marks[u>>6] |= 1 << (u & 63)
			}
		}
	}
	marks[v>>6] |= 1 << (v & 63)
	var edges int
	for _, w := range marks {
		edges += bits.OnesCount64(w)
	}
	out := make([]int, 0, edges)
	for i, w := range marks {
		for ; w != 0; w &= w - 1 {
			out = append(out, i<<6|bits.TrailingZeros64(w))
		}
		marks[i] = 0
	}
	j.out[v] = out
	wk.pairs += admitted
	wk.pruned += admitted - tested
	return nil
}

// Build constructs the SamGraph over the given vertices. An edge v→u is a
// passed test loss(u.Rows, v.SampleRows) ≤ theta (a NaN loss satisfies no
// threshold, so it is never an edge). What the loss's bound evaluator
// offers, probed once, picks the path and its pair test:
//
//   - loss.RowCoster: the loss is a mean of non-negative row costs, so a
//     pair is rejected as soon as a partial sum passes theta·|rows|. These
//     losses take the cover pass — Cover's, fed the precomputed samples —
//     not the join: each cell is tested only against the representatives
//     chosen before it, and the graph holds only cover edges;
//   - loss.RawSummarizer: cell states never read the sample, so every
//     target is folded once, in row order, and a pair is one Loss call on
//     the candidate's rebound evaluator; if it is also a loss.KeyRanger,
//     the targets are sorted by key once and a candidate scores only those
//     in its key range (and those without a finite key) — the others can
//     be no edge;
//   - any other loss.DryRunner: each candidate is bound once and every
//     tested cell folded through it; without one, direct Loss calls.
//
// Each computes the very floats of the per-pair fold, so every edge is the
// loss definition's on every path.
//
// The work is sharded across opts.Workers goroutines: the join's
// candidates, which each bind their own evaluator and write only their own
// adjacency list, or one cover representative's targets. The output graph
// (edges and counters alike) is byte-identical at any worker count
// (pinned by TestParallelBuildMatchesSequential and
// TestRowCostCoverBlocksWorkerIndependent). ctx cancellation aborts the
// build with ctx.Err().
func Build(ctx context.Context, tbl *dataset.Table, vertices []Vertex, f loss.Func, theta float64, opts BuildOptions) (*Graph, error) {
	defer obs.StartStage(ctx, "samgraph_join")()
	if len(vertices) <= 1 {
		return newGraph(len(vertices)), nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g, j, workers := newJoin(tbl, vertices, f, theta, opts)
	n := len(vertices)

	var costed bool
	if dr, ok := f.(loss.DryRunner); ok {
		j.dr = dr
		first := j.order[0]
		probe, err := dr.BindSample(tbl, dataset.NewView(tbl, vertices[first].SampleRows))
		if err != nil {
			return nil, fmt.Errorf("samgraph: binding candidate %d: %w", first, err)
		}
		_, costed = probe.(loss.RowCoster)
		if sum, ok := probe.(loss.RawSummarizer); ok {
			done := obs.StartStage(ctx, "samgraph_summaries")
			j.sum, j.states = sum, make([]loss.CellState, n)
			kr, ranged := probe.(loss.KeyRanger)
			var keys []float64
			if ranged {
				keys = make([]float64, n)
			}
			err := forEach(ctx, workers, n, func(_, u int) error {
				st := sum.NewState()
				for i, row := range vertices[u].Rows {
					if i%cancelCheckRows == 0 && i > 0 {
						if err := ctx.Err(); err != nil {
							return err
						}
					}
					sum.Add(st, row)
				}
				j.states[u] = st
				if ranged {
					keys[u] = kr.Key(st)
				}
				return nil
			})
			if err == nil && ranged {
				j.sortKeys(keys)
			}
			done()
			if err != nil {
				return nil, err
			}
			g.Summaries = int64(n)
		}
	}

	if costed {
		err := j.cover(ctx, g, workers, coverLookahead, func(v int) ([]int32, error) { return vertices[v].SampleRows, nil })
		if err != nil {
			return nil, err
		}
	} else {
		wks := make([]joinWorker, workers)
		err := forEach(ctx, workers, n, func(w, rank int) error { return j.candidate(ctx, &wks[w], rank) })
		if err != nil {
			return nil, err
		}
		for _, wk := range wks {
			g.PairsTested += wk.pairs
			g.PairsPruned += wk.pruned
		}
	}
	g.count(ctx)
	return g, nil
}

// newGraph returns the graph of n vertices with only their self-edges.
func newGraph(n int) *Graph {
	g := &Graph{Out: make([][]int, n)}
	for v := range g.Out {
		g.Out[v] = []int{v}
	}
	return g
}

// newJoin returns the self-edge graph over vertices, the join state that
// fills it and its worker count (opts.Workers, else GOMAXPROCS, at most one
// per vertex).
func newJoin(tbl *dataset.Table, vertices []Vertex, f loss.Func, theta float64, opts BuildOptions) (*Graph, *join, int) {
	n := len(vertices)
	g := newGraph(n)
	j := &join{tbl: tbl, vertices: vertices, f: f, theta: theta, maxCand: opts.MaxCandidates,
		order: buildOrder(vertices), pos: make([]int, n), out: g.Out}
	for i, v := range j.order {
		j.pos[v] = i
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return g, j, max(1, min(workers, n))
}

// count adds g's work counts to the tracer in ctx.
func (g *Graph) count(ctx context.Context) {
	st := obs.StagesFrom(ctx)
	st.Count("tabula_samgraph_pairs_total", "SamGraph join representation tests performed.", g.PairsTested)
	st.Count("tabula_samgraph_cover_tests_total", "SamGraph representation tests run by the cover pass, which tests each cell only against the representatives chosen before it.", g.CoverTests)
	st.Count("tabula_samgraph_summaries_total", "Target cells the SamGraph join folded once into a raw summary that every candidate's pair test scored.", g.Summaries)
	st.Count("tabula_samgraph_pairs_pruned_total", "SamGraph representation tests decided without row costs: by the target's key alone, outside the candidate's key range, or by the target rows' cost floors.", g.PairsPruned)
	const costsHelp = "Row costs summed by SamGraph's exact pair tests: computed by the loss evaluator, or reused from an earlier target of the same representative."
	st.Count("tabula_samgraph_row_costs_total", costsHelp, g.RowCosts-g.RowCostsReused, obs.Label{Name: "outcome", Value: "computed"})
	st.Count("tabula_samgraph_row_costs_total", costsHelp, g.RowCostsReused, obs.Label{Name: "outcome", Value: "reused"})
}

// coverBlock is how many of one representative's targets the cover pass
// deals to a worker at a time.
const coverBlock = 64

// coverLookahead is how many of the cells after the current representative
// in visit order, still uncovered, the cover pass's idle workers may sample
// ahead of need. A speculative sample is a full Algorithm 1 run wasted if
// the cell is covered meanwhile, so the window stays small.
const coverLookahead = 4

// Cover is the cover pass Build runs for a loss whose bound evaluators are
// loss.RowCosters, with each representative's sample drawn on demand:
// sample(v) returns vertex v's local sample, and vertices[v].SampleRows is
// not read. On return, each representative's Vertex.SampleRows holds its
// sample; every other vertex's is left as it was. The graph, its counters
// and the samples kept are exactly those of Build over vertices whose
// SampleRows hold sample(v) for every v, at any opts.Workers.
//
// sample must be a deterministic function of v, safe for concurrent calls:
// workers that have no test blocks to run call it ahead of need for the
// next few uncovered cells in visit order, and the result of a cell that
// ends up covered is dropped — its error too. An error sample returns for
// a representative is returned unchanged. ctx cancellation aborts the pass
// with ctx.Err(); every goroutine it started has exited when it returns.
func Cover(ctx context.Context, tbl *dataset.Table, vertices []Vertex, f loss.Func, theta float64, opts BuildOptions, sample func(v int) ([]int32, error)) (*Graph, error) {
	defer obs.StartStage(ctx, "samgraph_join")()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g, err := coverAhead(ctx, tbl, vertices, f, theta, opts, coverLookahead, sample)
	if err != nil {
		return nil, err
	}
	g.count(ctx)
	return g, nil
}

// coverAhead is Cover with the given lookahead.
func coverAhead(ctx context.Context, tbl *dataset.Table, vertices []Vertex, f loss.Func, theta float64, opts BuildOptions, lookahead int, sample func(v int) ([]int32, error)) (*Graph, error) {
	dr, ok := f.(loss.DryRunner)
	if !ok {
		return nil, fmt.Errorf("samgraph: loss %q has no bound evaluators to cover with", f.Name())
	}
	g, j, workers := newJoin(tbl, vertices, f, theta, opts)
	j.dr = dr
	if err := j.cover(ctx, g, workers, lookahead, sample); err != nil {
		return nil, err
	}
	return g, nil
}

// cover runs the cover pass. Vertices are visited by descending population,
// index ascending among ties; one that no earlier representative covers
// becomes a representative, and Graph.Out[v] lists v and the vertices
// assigned to it. That is the online pass — test each cell against the
// representatives so far, in the order they were chosen — run rep-major: a
// representative binds its evaluator once and tests every later vertex
// still uncovered. A vertex left uncovered by all earlier representatives
// has failed each of them, so the representative that covers it now is its
// first covering one, exactly as online. MaxCandidates > 0 stops testing a
// vertex after that many representatives. Select on the result keeps
// exactly the representatives: their cover sets are disjoint and every
// other vertex has only its self-edge.
//
// The calling goroutine walks the visit order; workers-1 helpers share a
// representative's test blocks with it and, while no block is left, sample
// up to lookahead of the next uncovered cells ahead of need (coverPool).
// The walker consumes samples strictly in visit order, so the output does
// not depend on workers or lookahead.
func (j *join) cover(ctx context.Context, g *Graph, workers, lookahead int, sample func(v int) ([]int32, error)) error {
	n := len(j.vertices)
	visit := make([]int, n)
	for i := range visit {
		visit[i] = i
	}
	sort.Slice(visit, func(a, b int) bool {
		na, nb := len(j.vertices[visit[a]].Rows), len(j.vertices[visit[b]].Rows)
		if na != nb {
			return na > nb
		}
		return visit[a] < visit[b]
	})
	p := &coverPool{j: j, ctx: ctx, sample: sample, counts: make([]coverCounts, workers), spec: make([]specCell, n),
		costTab: newCostTable(j.tbl.NumRows())}
	p.wake = sync.NewCond(&p.mu)
	if cf, ok := j.f.(loss.CostFloorer); ok {
		floors, err := cf.CostFloors(j.tbl)
		if err != nil {
			return fmt.Errorf("samgraph: cost floors: %w", err)
		}
		if floors != nil {
			var regions int
			p.floors = floors
			p.regionOf, regions = floors.Regions()
			p.floorTab = newCostTable(regions)
		}
	}
	err := j.walk(ctx, g, p, visit, lookahead)
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	if err != nil {
		return err
	}
	g.CoverTests = g.PairsTested
	var computed int64
	for _, c := range p.counts {
		g.RowCosts += c.costs
		g.PairsPruned += c.pruned
		computed += c.computed
	}
	g.RowCostsReused = g.RowCosts - computed
	return nil
}

// walk is the cover pass's walker: it visits the cells in order, samples
// and binds each representative, and runs its test blocks with the pool,
// whose helpers have all exited when it returns.
func (j *join) walk(ctx context.Context, g *Graph, p *coverPool, visit []int, lookahead int) error {
	for w := 1; w < len(p.counts); w++ {
		p.wg.Add(1)
		go p.help(w)
	}
	defer p.close()
	n := len(j.vertices)
	covered := make([]bool, n)
	var tested []int // representatives each vertex was tested against, under a cap
	if j.maxCand > 0 {
		tested = make([]int, n)
	}
	var (
		targets []int32
		passed  []bool
		ord     uint32 // the representatives bound so far: the memo stamp
	)
	for i, v := range visit {
		if covered[v] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		covered[v] = true
		p.speculate(visit[i+1:], covered, lookahead)
		sam, err := p.take(v)
		if err != nil {
			return err
		}
		j.vertices[v].SampleRows = sam
		targets = targets[:0]
		for _, u := range visit[i+1:] {
			if !covered[u] && (tested == nil || tested[u] < j.maxCand) {
				targets = append(targets, int32(u))
			}
		}
		if len(targets) == 0 {
			continue
		}
		ev, err := j.dr.BindSample(j.tbl, dataset.NewView(j.tbl, sam))
		if err != nil {
			return fmt.Errorf("samgraph: binding representative %d: %w", v, err)
		}
		rc, ok := ev.(loss.RowCoster)
		if !ok {
			return fmt.Errorf("samgraph: representative %d's evaluator has no row costs", v)
		}
		if cap(passed) < len(targets) {
			passed = make([]bool, len(targets))
		}
		passed = passed[:len(targets)]
		ord++
		if err := p.test(rc, targets, passed, ord); err != nil {
			return err
		}
		g.PairsTested += int64(len(targets))
		p.mu.Lock()
		for k, u := range targets {
			switch {
			case passed[k]:
				covered[u] = true
				p.spec[u] = specCell{state: specSettled}
				g.Out[v] = append(g.Out[v], int(u))
			case tested != nil:
				tested[u]++
			}
		}
		p.mu.Unlock()
		sort.Ints(g.Out[v])
	}
	return nil
}

// specCell is one vertex's speculative sample.
type specCell struct {
	state specState
	rows  []int32
	err   error
}

type specState uint8

const (
	specNone    specState = iota
	specQueued            // in coverPool.queue
	specRunning           // being sampled ahead of need
	specDone              // rows and err hold the result
	specSettled           // covered, or taken by the walker: a late result is thrown away
)

// coverPool is what the cover pass's walker and its helpers share. The
// walker posts a representative's test blocks, runs blocks itself until
// none is left and waits for the helpers' to finish; a helper runs blocks
// while any is left, and otherwise samples the next queued cell.
type coverPool struct {
	j      *join
	ctx    context.Context
	sample func(v int) ([]int32, error)
	counts []coverCounts // per goroutine, the walker's at 0
	wg     sync.WaitGroup
	// costTab memoizes the current representative's row costs by table
	// row. With floors (nil if the loss has none), floorTab memoizes its
	// floors by region, regionOf being each table row's region.
	costTab  costTable
	floors   loss.CostFloors
	regionOf []int32
	floorTab costTable

	mu sync.Mutex
	// wake is broadcast when blocks are posted or finished, a speculative
	// sample finishes, or the pool closes.
	wake *sync.Cond
	// The current representative's test blocks: block b covers
	// targets[b·coverBlock:]; ord is the representative's memo stamp.
	rc       loss.RowCoster
	targets  []int32
	passed   []bool
	ord      uint32
	next, nb int // the next block to deal, and the block count
	running  int // blocks dealt and not finished
	blockErr error
	// Speculation: queue holds the cells to sample ahead, in visit order.
	queue  []int32
	spec   []specCell
	closed bool
}

// speculate queues for the helpers the first lookahead cells of rest that
// are still uncovered and have not been sampled yet.
func (p *coverPool) speculate(rest []int, covered []bool, lookahead int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, u := range p.queue {
		if p.spec[u].state == specQueued {
			p.spec[u].state = specNone
		}
	}
	p.queue = p.queue[:0]
	if len(p.counts) == 1 {
		return // no helper would take them
	}
	window := 0
	for _, u := range rest {
		if window == lookahead {
			break
		}
		if covered[u] {
			continue
		}
		window++
		if p.spec[u].state == specNone {
			p.spec[u].state = specQueued
			p.queue = append(p.queue, int32(u))
		}
	}
	if len(p.queue) > 0 {
		p.wake.Broadcast()
	}
}

// take returns vertex v's sample: the speculative one if a helper has
// drawn it, else one drawn now. While a helper is still drawing it, the
// walker samples queued cells itself rather than wait idle. speculate has
// just unqueued v, which is not in the rest it is given.
func (p *coverPool) take(v int) ([]int32, error) {
	p.mu.Lock()
	for p.spec[v].state == specRunning {
		if !p.runQueued() {
			p.wake.Wait()
		}
	}
	c := p.spec[v]
	p.spec[v] = specCell{state: specSettled}
	p.mu.Unlock()
	if c.state == specDone {
		return c.rows, c.err
	}
	return p.sample(v)
}

// test runs the test blocks of the representative with memo stamp ord,
// whose evaluator is rc, on the walker and every idle helper, and returns
// once all have finished: passed[k] reports whether rc's sample represents
// targets[k].
func (p *coverPool) test(rc loss.RowCoster, targets []int32, passed []bool, ord uint32) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rc, p.targets, p.passed, p.ord, p.next, p.blockErr = rc, targets, passed, ord, 0, nil
	p.nb = (len(targets) + coverBlock - 1) / coverBlock
	p.wake.Broadcast()
	for {
		if p.next < p.nb && p.blockErr == nil {
			p.runBlock(0)
			continue
		}
		if p.running == 0 {
			break
		}
		p.wake.Wait()
	}
	p.nb = 0
	return p.blockErr
}

// runBlock deals the next block to goroutine w and runs it, unlocking
// p.mu meanwhile.
func (p *coverPool) runBlock(w int) {
	b := p.next
	p.next++
	p.running++
	rc, targets, passed, ord := p.rc, p.targets, p.passed, p.ord
	p.mu.Unlock()
	err := p.block(w, rc, targets, passed, ord, b)
	p.mu.Lock()
	p.running--
	if err != nil && p.blockErr == nil {
		p.blockErr = err
	}
	if p.running == 0 {
		p.wake.Broadcast() // the walker may be waiting for the last block
	}
}

// block tests block b of targets against rc on goroutine w.
func (p *coverPool) block(w int, rc loss.RowCoster, targets []int32, passed []bool, ord uint32, b int) error {
	var c coverCounts // added to p.counts[w] once: the tallies share cache lines
	defer func() {
		t := &p.counts[w]
		t.costs, t.computed, t.pruned = t.costs+c.costs, t.computed+c.computed, t.pruned+c.pruned
	}()
	for k := b * coverBlock; k < min((b+1)*coverBlock, len(targets)); k++ {
		if err := p.ctx.Err(); err != nil {
			return err
		}
		passed[k] = !p.exceeds(&c, rc, ord, p.j.vertices[targets[k]].Rows)
	}
	return nil
}

// help is helper w's loop: test blocks first, then speculative samples,
// until the pool closes.
func (p *coverPool) help(w int) {
	defer p.wg.Done()
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.closed {
		if p.next < p.nb && p.blockErr == nil {
			p.runBlock(w)
		} else if !p.runQueued() {
			p.wake.Wait()
		}
	}
}

// runQueued samples the first queued cell not covered since it was queued,
// unlocking p.mu meanwhile, and reports whether there was one.
func (p *coverPool) runQueued() bool {
	for len(p.queue) > 0 && p.ctx.Err() == nil {
		v := p.queue[0]
		p.queue = p.queue[1:]
		if p.spec[v].state != specQueued {
			continue
		}
		p.spec[v].state = specRunning
		p.mu.Unlock()
		rows, err := p.sample(int(v))
		p.mu.Lock()
		if p.spec[v].state == specRunning {
			p.spec[v] = specCell{state: specDone, rows: rows, err: err}
		}
		p.wake.Broadcast()
		return true
	}
	return false
}

// close stops the helpers and waits for them to exit; a helper in the
// middle of a speculative sample finishes it first.
func (p *coverPool) close() {
	p.mu.Lock()
	p.closed = true
	p.wake.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// sortKeys fills keyed, keys and unkeyed from every target's key.
func (j *join) sortKeys(keys []float64) {
	for u, k := range keys {
		if math.IsNaN(k) || math.IsInf(k, 0) {
			j.unkeyed = append(j.unkeyed, int32(u))
		} else {
			j.keyed = append(j.keyed, int32(u))
		}
	}
	sort.Slice(j.keyed, func(a, b int) bool { return keys[j.keyed[a]] < keys[j.keyed[b]] })
	j.keys = make([]float64, len(j.keyed))
	for i, u := range j.keyed {
		j.keys[i] = keys[u]
	}
}

// Result is the outcome of representative sample selection.
type Result struct {
	// Representatives lists the selected vertices in selection order;
	// their samples are the only ones persisted.
	Representatives []int
	// AssignedTo maps every vertex to the representative whose sample
	// answers its queries.
	AssignedTo []int
}

// degEntry is one (live degree, vertex) heap entry. Entries go stale as
// selections shrink live degrees; stale entries are detected on pop and
// reinserted with the true degree (lazy decrement).
type degEntry struct {
	deg int
	v   int
}

// degHeap is a max-heap on (degree desc, vertex asc) — the same total
// order the linear scan's "first strictly greater" rule induces, so the
// heap-based Select picks identical representatives.
type degHeap []degEntry

func (h degHeap) Len() int { return len(h) }
func (h degHeap) Less(i, j int) bool {
	if h[i].deg != h[j].deg {
		return h[i].deg > h[j].deg
	}
	return h[i].v < h[j].v
}
func (h degHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *degHeap) Push(x any)   { *h = append(*h, x.(degEntry)) }
func (h *degHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Select runs Algorithm 3: repeatedly pick the vertex with the highest
// out-degree among the remaining ones, persist its sample, and drop every
// vertex it represents, until all vertices are covered. The result is a
// dominating set of the SamGraph — every unselected vertex is represented
// by at least one selected vertex (property-tested), though not
// necessarily a minimum one (the problem is NP-hard).
//
// The max-degree pick uses a lazy-decrement max-heap: stored degrees are
// upper bounds (live degrees only shrink), so a popped entry whose
// stored degree still matches its recomputed live degree is a true
// maximum; stale entries are pushed back with the fresh degree. That
// replaces an O(n²·deg) recompute-on-pop scan while selecting the exact
// same representatives (ties break towards the smaller vertex id in
// both; TestSelectHeapMatchesLinear keeps the scan as its oracle).
func Select(g *Graph) *Result {
	n := g.NumVertices()
	res := &Result{AssignedTo: make([]int, n)}
	for i := range res.AssignedTo {
		res.AssignedTo[i] = -1
	}
	// remaining[v] reports whether v still needs a representative.
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
	h := make(degHeap, n)
	for v := 0; v < n; v++ {
		// Initially every vertex is remaining, so the live degree is the
		// full out-degree (self-edge included).
		h[v] = degEntry{deg: len(g.Out[v]), v: v}
	}
	heap.Init(&h)
	for alive > 0 {
		if h.Len() == 0 {
			// Every remaining vertex keeps at least one heap entry (its
			// original or a reinserted one), so this cannot happen.
			panic("samgraph: selection heap exhausted with vertices uncovered")
		}
		e := heap.Pop(&h).(degEntry)
		if !remaining[e.v] {
			continue // covered since this entry was pushed
		}
		d := liveDegree(e.v)
		if d != e.deg {
			heap.Push(&h, degEntry{deg: d, v: e.v})
			continue
		}
		best := e.v
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

// Verify checks the dominating-set property: every vertex is assigned a
// representative whose out-edges include it. It returns an error naming
// the first violation (used by tests and the harness's self-checks).
func Verify(g *Graph, r *Result) error {
	selected := make(map[int]bool, len(r.Representatives))
	for _, v := range r.Representatives {
		selected[v] = true
	}
	for u, rep := range r.AssignedTo {
		if rep < 0 {
			return fmt.Errorf("samgraph: vertex %d has no representative", u)
		}
		if !selected[rep] {
			return fmt.Errorf("samgraph: vertex %d assigned to unselected representative %d", u, rep)
		}
		found := false
		for _, t := range g.Out[rep] {
			if t == u {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("samgraph: representative %d does not cover vertex %d", rep, u)
		}
	}
	return nil
}
