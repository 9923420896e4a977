package sampling

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/geo"
	"github.com/tabula-db/tabula/internal/loss"
)

// referenceGreedy is Algorithm 1 as the sampler ran it before the first
// pick was chosen by branch and bound and the gain heap was typed: every
// first-round candidate is evaluated in batch order, and the lazy loop
// runs on container/heap. Greedy must pick the same rows, one for one.
func referenceGreedy(f loss.Func, raw dataset.View, theta float64, opts GreedyOptions) ([]int32, error) {
	n := raw.Len()
	if n == 0 {
		return nil, nil
	}
	ev, err := newEvaluator(f, raw)
	if err != nil {
		return nil, err
	}
	inSample := make([]bool, n)
	var picked []int32
	commit := func(i int) {
		ev.Add(i)
		inSample[i] = true
		picked = append(picked, raw.RowID(i))
	}
	if opts.Lazy {
		err = referenceLazy(ev, inSample, theta, opts, commit)
	} else {
		err = referenceNaive(ev, inSample, theta, opts.MaxSize, commit)
	}
	return picked, err
}

func referenceNaive(ev loss.GreedyEvaluator, inSample []bool, theta float64, maxSize int, commit func(int)) error {
	size := 0
	for ev.CurrentLoss() > theta {
		best, bestLoss := -1, math.Inf(1)
		for i := range inSample {
			if inSample[i] {
				continue
			}
			if l := ev.LossWith(i); l < bestLoss || best < 0 {
				best, bestLoss = i, l
			}
		}
		if best < 0 {
			return fmt.Errorf("full population sampled at loss %v", ev.CurrentLoss())
		}
		commit(best)
		size++
		if maxSize > 0 && size >= maxSize && ev.CurrentLoss() > theta {
			return ErrBudgetExhausted
		}
	}
	return nil
}

// refHeap is the container/heap max-heap of stale gains.
type refHeap struct {
	idx  []int
	gain []float64
}

func (h *refHeap) Len() int           { return len(h.idx) }
func (h *refHeap) Less(i, j int) bool { return h.gain[i] > h.gain[j] }
func (h *refHeap) Swap(i, j int) {
	h.idx[i], h.idx[j] = h.idx[j], h.idx[i]
	h.gain[i], h.gain[j] = h.gain[j], h.gain[i]
}
func (h *refHeap) Push(x any) {
	p := x.([2]float64)
	h.idx = append(h.idx, int(p[0]))
	h.gain = append(h.gain, p[1])
}
func (h *refHeap) Pop() any {
	n := len(h.idx)
	p := [2]float64{float64(h.idx[n-1]), h.gain[n-1]}
	h.idx, h.gain = h.idx[:n-1], h.gain[:n-1]
	return p
}

func referenceLazy(ev loss.GreedyEvaluator, inSample []bool, theta float64, opts GreedyOptions, commit func(int)) error {
	n := len(inSample)
	cur := ev.CurrentLoss()
	if cur <= theta {
		return nil
	}
	size := 0
	pool := make([]int, n)
	for i := range pool {
		pool[i] = i
	}
	if opts.CandidateCap > 0 {
		rng := opts.Rng
		if rng == nil {
			rng = rand.New(rand.NewSource(1))
		}
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	}
	nextSeed := 0
	seedBatch := func() []int {
		if nextSeed >= len(pool) {
			return nil
		}
		hi := len(pool)
		if opts.CandidateCap > 0 && nextSeed+opts.CandidateCap < hi {
			hi = nextSeed + opts.CandidateCap
		}
		batch := pool[nextSeed:hi]
		nextSeed = hi
		return batch
	}
	firstBatch := seedBatch()
	for math.IsInf(cur, 1) {
		best, bestLoss := -1, math.Inf(1)
		for _, i := range firstBatch {
			if inSample[i] {
				continue
			}
			if l := ev.LossWith(i); l < bestLoss || best < 0 {
				best, bestLoss = i, l
			}
		}
		if best < 0 {
			if more := seedBatch(); more != nil {
				firstBatch = append(firstBatch, more...)
				continue
			}
			return fmt.Errorf("full population sampled at loss %v", cur)
		}
		commit(best)
		cur = ev.CurrentLoss()
		size++
		if cur <= theta {
			return nil
		}
		if opts.MaxSize > 0 && size >= opts.MaxSize {
			return ErrBudgetExhausted
		}
	}
	h := &refHeap{}
	for _, i := range firstBatch {
		if !inSample[i] {
			h.idx = append(h.idx, i)
			h.gain = append(h.gain, cur-ev.LossWith(i))
		}
	}
	heap.Init(h)
	for cur > theta {
		if h.Len() == 0 {
			batch := seedBatch()
			if batch == nil {
				return fmt.Errorf("full population sampled at loss %v", cur)
			}
			for _, i := range batch {
				if !inSample[i] {
					heap.Push(h, [2]float64{float64(i), cur - ev.LossWith(i)})
				}
			}
			continue
		}
		i := int(heap.Pop(h).([2]float64)[0])
		if inSample[i] {
			continue
		}
		fresh := cur - ev.LossWith(i)
		if h.Len() > 0 && fresh < h.gain[0] {
			heap.Push(h, [2]float64{float64(i), fresh})
			continue
		}
		commit(i)
		cur = ev.CurrentLoss()
		size++
		if opts.MaxSize > 0 && size >= opts.MaxSize && cur > theta {
			return ErrBudgetExhausted
		}
	}
	return nil
}

// shapeTable returns n rows of a point column "p" and a float column "v"
// (the point's X) in one of several shapes. The duplicate and collinear
// shapes make exact distance ties, which is where a changed evaluation
// order would first pick a different row.
func shapeTable(r *rand.Rand, shape string, n int) *dataset.Table {
	tbl := dataset.NewTable(dataset.Schema{{Name: "p", Type: dataset.Point}, {Name: "v", Type: dataset.Float64}})
	for i := 0; i < n; i++ {
		var p geo.Point
		switch shape {
		case "uniform":
			p = geo.Point{X: -74 + r.Float64()*0.3, Y: 40.6 + r.Float64()*0.3}
		case "clustered":
			c := float64(r.Intn(4))
			p = geo.Point{X: -74 + c*0.07 + r.NormFloat64()*0.01, Y: 40.6 + c*0.05 + r.NormFloat64()*0.01}
		case "duplicates":
			// A handful of locations, each repeated many times.
			p = geo.Point{X: -74 + float64(r.Intn(7))*0.04, Y: 40.6 + float64(r.Intn(5))*0.05}
		case "collinear":
			// One horizontal line, on a lattice so that distances tie.
			p = geo.Point{X: -74 + float64(r.Intn(200))*0.0015, Y: 40.7}
		case "diagonal":
			t := r.Float64() * 0.3
			p = geo.Point{X: -74 + t, Y: 40.6 + t}
		}
		tbl.MustAppendRow(dataset.PointValue(p), dataset.FloatValue(p.X))
	}
	return tbl
}

// Greedy picks row for row what the reference sampler picks, for the
// heatmap under every metric and for the histogram loss, lazy and naive,
// with and without a candidate cap. The sizes straddle the point count
// from which the heatmap's first pick is found by branch and bound.
func TestGreedyMatchesReference(t *testing.T) {
	thetas := map[geo.Metric]float64{geo.Euclidean: 0.008, geo.Manhattan: 0.011, geo.Haversine: 800}
	type lossCase struct {
		f     loss.Func
		theta float64
	}
	var losses []lossCase
	for _, m := range []geo.Metric{geo.Euclidean, geo.Manhattan, geo.Haversine} {
		losses = append(losses, lossCase{loss.NewHeatmap("p", m), thetas[m]})
	}
	losses = append(losses, lossCase{loss.NewHistogram("v"), 0.004})
	r := rand.New(rand.NewSource(17))
	for _, shape := range []string{"uniform", "clustered", "duplicates", "collinear", "diagonal"} {
		for _, n := range []int{150, 600, 1100} {
			tbl := shapeTable(r, shape, n)
			full := dataset.FullView(tbl)
			for _, lc := range losses {
				for _, opts := range []GreedyOptions{
					{Lazy: true},
					{Lazy: false},
					{Lazy: true, CandidateCap: 400},
				} {
					// 600 points already take the bound; the rest keeps the
					// test short (a Haversine first round is never bounded).
					if !opts.Lazy && n > 150 || opts.CandidateCap > 0 && n > 600 {
						continue
					}
					label := fmt.Sprintf("%s n=%d %s %+v", shape, n, lc.f.Name(), opts)
					if h, ok := lc.f.(*loss.Heatmap); ok {
						if h.Metric == geo.Haversine && n > 600 {
							continue
						}
						label = fmt.Sprintf("%s n=%d heatmap %v %+v", shape, n, h.Metric, opts)
					}
					want, wantErr := referenceGreedy(lc.f, full, lc.theta, opts)
					got, err := Greedy(lc.f, full, lc.theta, opts)
					if (err == nil) != (wantErr == nil) || errors.Is(err, ErrBudgetExhausted) != errors.Is(wantErr, ErrBudgetExhausted) {
						t.Fatalf("%s: error %v, reference %v", label, err, wantErr)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: picked %v,\nreference picked %v", label, got, want)
					}
				}
			}
		}
	}
}

// The branch-and-bound first pick returns the scan's candidate when the
// evaluator's losses are NaN or tie: a NaN first candidate is kept, a NaN
// later one never wins, and among equal losses the earliest is chosen.
func TestBestOfMatchesScan(t *testing.T) {
	nan := math.NaN()
	for _, losses := range [][]float64{
		{nan, 1, 0},
		{3, nan, 2, 2, nan, 1, 1},
		{math.Inf(1), math.Inf(1), 5},
		{math.Inf(1), math.Inf(1)},
		{2, 2, 2, 2},
		{4, 0, 3, 0},
	} {
		for _, loose := range []bool{false, true} {
			ev := &boundedEval{losses: losses, loose: loose}
			s := &greedyRun{ctx: context.Background(), ev: ev, inSample: make([]bool, len(losses))}
			batch := make([]int, len(losses))
			for i := range batch {
				batch[i] = i
			}
			got, err := s.bestOf(batch, true)
			if err != nil {
				t.Fatal(err)
			}
			want, bestLoss := -1, math.Inf(1)
			for i, l := range losses {
				if l < bestLoss || want < 0 {
					want, bestLoss = i, l
				}
			}
			if got != want {
				t.Errorf("losses %v (loose bounds %v): branch and bound picked %d, the scan %d", losses, loose, got, want)
			}
		}
	}
}

// boundedEval is a GreedyEvaluator over fixed first-round losses whose
// bounds are the losses themselves, or 0 when loose.
type boundedEval struct {
	losses []float64
	loose  bool
}

func (e *boundedEval) Len() int               { return len(e.losses) }
func (e *boundedEval) CurrentLoss() float64   { return math.Inf(1) }
func (e *boundedEval) LossWith(i int) float64 { return e.losses[i] }
func (e *boundedEval) Add(int)                {}
func (e *boundedEval) LossWithBounds(cands []int, lo []float64) bool {
	for k, i := range cands {
		if lo[k] = e.losses[i]; e.loose {
			lo[k] = 0
		}
	}
	return true
}
