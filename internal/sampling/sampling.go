// Package sampling implements Tabula's accuracy-loss-aware sampling
// function (the paper's Algorithm 1 with POIsam's lazy-forward
// acceleration) alongside the classic samplers used by the baselines
// (random, reservoir, stratified) and Serfling's-inequality global sample
// sizing.
package sampling

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/loss"
)

// GreedyOptions tunes the greedy sampler.
type GreedyOptions struct {
	// Lazy enables the lazy-forward strategy: candidate gains are kept in
	// a priority queue of stale upper bounds and only the queue head is
	// re-evaluated each round. For the (submodular) average-min-distance
	// losses the bounds are exact upper bounds; for other losses the
	// strategy remains a sound heuristic because the sampler re-checks
	// the true loss after every committed tuple. Defaults to true via
	// DefaultGreedyOptions.
	Lazy bool
	// MaxSize caps the sample size; 0 means unlimited. When the cap is
	// hit before the loss threshold, Greedy returns ErrBudgetExhausted.
	MaxSize int
	// CandidateCap bounds how many candidate tuples are (re)seeded into
	// the lazy queue at a time (0 = all). On very large populations the
	// first greedy round costs one evaluator probe per candidate, so a
	// cap turns O(N) probes into O(cap); when the capped pool cannot
	// reach the threshold, the sampler seeds further batches until it
	// can, so the loss guarantee is unaffected — only sample minimality
	// degrades. This plays the role of the spatial-index acceleration in
	// POIsam's implementation. Ignored by the naive (non-lazy) sampler.
	CandidateCap int
	// Rng drives candidate-batch selection when CandidateCap > 0; nil
	// uses a fixed-seed source (deterministic).
	Rng *rand.Rand
}

// DefaultGreedyOptions returns the configuration used by Tabula proper.
func DefaultGreedyOptions() GreedyOptions { return GreedyOptions{Lazy: true} }

// ErrBudgetExhausted reports that MaxSize tuples did not reach the loss
// threshold.
var ErrBudgetExhausted = fmt.Errorf("sampling: sample budget exhausted before reaching the loss threshold")

// Greedy draws a sample t of the raw view such that
// loss(raw, t) <= theta, greedily adding the tuple with the smallest
// resulting loss each round (Algorithm 1). The returned slice contains
// *table* row ids (raw.RowID space), so the sample can outlive the view.
//
// The sample size is not guaranteed minimal — the underlying minimal
// sampling problem is intractable for general losses — but the threshold
// guarantee is absolute: the function only returns once the user-defined
// loss of the sample is <= theta (or raw is empty, in which case the
// sample is empty and the loss is 0 by convention).
func Greedy(f loss.Func, raw dataset.View, theta float64, opts GreedyOptions) ([]int32, error) {
	return GreedyContext(context.Background(), f, raw, theta, opts)
}

// cancelCheckRows is about how many rows the sampler scans between
// ctx.Err() polls within one round. Every candidate evaluation, an exact
// probe or a lower bound, is charged as a scan of the whole population:
// a first-round probe is one, and later probes and bounds cost less, so
// the sampler polls at least this often.
const cancelCheckRows = 1 << 20

// GreedyContext is Greedy, cancellable: it polls ctx once per pick and
// every cancelCheckRows rows of candidate evaluations, and returns
// ctx.Err() (with no sample) once ctx is done.
func GreedyContext(ctx context.Context, f loss.Func, raw dataset.View, theta float64, opts GreedyOptions) ([]int32, error) {
	if theta < 0 {
		return nil, fmt.Errorf("sampling: negative loss threshold %v", theta)
	}
	n := raw.Len()
	if n == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ev, err := newEvaluator(f, raw)
	if err != nil {
		return nil, err
	}
	s := &greedyRun{ctx: ctx, ev: ev, raw: raw, inSample: make([]bool, n), theta: theta}
	if opts.Lazy {
		err = s.lazy(opts)
	} else {
		err = s.naive(opts.MaxSize)
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		return nil, ctxErr
	}
	return s.picked, err
}

// greedyRun is one run of Algorithm 1.
type greedyRun struct {
	ctx      context.Context
	ev       loss.GreedyEvaluator
	raw      dataset.View
	inSample []bool
	theta    float64
	picked   []int32 // table row ids
	rows     int     // rows charged since the last poll
}

// commit adds tuple i to the sample and returns ctx's error: the poll
// once per pick.
func (s *greedyRun) commit(i int) error {
	s.ev.Add(i)
	s.inSample[i] = true
	s.picked = append(s.picked, s.raw.RowID(i))
	return s.ctx.Err()
}

// charge counts k candidate evaluations, each a scan of the population,
// and polls ctx once cancelCheckRows rows have been charged since the
// last poll.
func (s *greedyRun) charge(k int) error {
	s.rows += k * len(s.inSample)
	if s.rows < cancelCheckRows {
		return nil
	}
	s.rows = 0
	return s.ctx.Err()
}

// lossWith is ev.LossWith, charged one scan.
func (s *greedyRun) lossWith(i int) (float64, error) {
	if err := s.charge(1); err != nil {
		return 0, err
	}
	return s.ev.LossWith(i), nil
}

// bounds is lb.LossWithBounds over batch, in chunks of cancelCheckRows
// rows' worth of candidates with a charge, and so a poll, before each.
// It reports false when a chunk is not bounded.
func (s *greedyRun) bounds(lb loss.LowerBounder, batch []int, lo []float64) (bool, error) {
	chunk := max(1, cancelCheckRows/len(s.inSample))
	for a := 0; a < len(batch); a += chunk {
		b := min(a+chunk, len(batch))
		if err := s.charge(b - a); err != nil {
			return false, err
		}
		if !lb.LossWithBounds(batch[a:b], lo[a:b]) {
			return false, nil
		}
	}
	return true, nil
}

// naive is the paper's Algorithm 1 verbatim: every remaining tuple is
// evaluated each round. O(k·N) evaluator probes for a k-tuple sample.
func (s *greedyRun) naive(maxSize int) error {
	n := len(s.inSample)
	size := 0
	for s.ev.CurrentLoss() > s.theta {
		best, bestLoss := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if s.inSample[i] {
				continue
			}
			l, err := s.lossWith(i)
			if err != nil {
				return err
			}
			// "<= " so a candidate is still chosen when every remaining
			// loss is +Inf (e.g. a regression loss that stays undefined
			// until the sample has two tuples with distinct x).
			if l < bestLoss || best < 0 {
				best, bestLoss = i, l
			}
		}
		if best < 0 {
			// Every tuple is already in the sample yet the loss is still
			// above theta: the loss function is inconsistent (loss(T,T)
			// should be 0 <= theta for any useful definition).
			return fmt.Errorf("sampling: loss %v above threshold %v with the full population sampled", s.ev.CurrentLoss(), s.theta)
		}
		if err := s.commit(best); err != nil {
			return err
		}
		size++
		if maxSize > 0 && size >= maxSize && s.ev.CurrentLoss() > s.theta {
			return ErrBudgetExhausted
		}
	}
	return nil
}

// gainHeap is a max-heap of stale loss-reduction bounds. Its sift rules are
// container/heap's, entry for entry, so the pops — and with them the
// sampler's picks — follow the same order as with that package.
type gainHeap struct {
	idx  []int
	gain []float64
}

func (h *gainHeap) less(i, j int) bool { return h.gain[i] > h.gain[j] }

func (h *gainHeap) swap(i, j int) {
	h.idx[i], h.idx[j] = h.idx[j], h.idx[i]
	h.gain[i], h.gain[j] = h.gain[j], h.gain[i]
}

// init is heap.Init.
func (h *gainHeap) init() {
	n := len(h.idx)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

// push is heap.Push.
func (h *gainHeap) push(i int, gain float64) {
	h.idx = append(h.idx, i)
	h.gain = append(h.gain, gain)
	h.up(len(h.idx) - 1)
}

// pop is heap.Pop.
func (h *gainHeap) pop() int {
	n := len(h.idx) - 1
	h.swap(0, n)
	h.down(0, n)
	i := h.idx[n]
	h.idx, h.gain = h.idx[:n], h.gain[:n]
	return i
}

func (h *gainHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

func (h *gainHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // = 2*i + 2  // right child
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
}

// lazy is Algorithm 1 with POIsam's lazy-forward strategy. The heap holds
// stale *marginal gains* (current loss minus the loss after adding the
// candidate). For the submodular average-min-distance losses a candidate's
// marginal gain only shrinks as the sample grows, so a stale value is a
// valid upper bound: when the refreshed head still dominates the next stale
// bound it is the true argmax and is committed without touching the other
// candidates. For non-submodular losses the strategy is a heuristic; the
// threshold guarantee is unaffected because the loop condition re-checks
// the true current loss after every commit.
func (s *greedyRun) lazy(opts GreedyOptions) error {
	ev, inSample, theta := s.ev, s.inSample, s.theta
	n := len(inSample)
	maxSize := opts.MaxSize
	cur := ev.CurrentLoss()
	if cur <= theta {
		return nil
	}
	size := 0
	// Candidate pool management: with CandidateCap > 0 only a random
	// batch of candidates is seeded at a time; further batches are added
	// when the current pool cannot reach the threshold.
	pool := make([]int, 0, n)
	for i := 0; i < n; i++ {
		pool = append(pool, i)
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

	// While the current loss is infinite (empty sample, or a loss that is
	// undefined for tiny samples) marginal gains are not comparable; run
	// naive rounds over the first batch until the loss becomes finite.
	firstBatch := seedBatch()
	for math.IsInf(cur, 1) {
		best, err := s.bestOf(firstBatch, size == 0)
		if err != nil {
			return err
		}
		if best < 0 {
			if more := seedBatch(); more != nil {
				firstBatch = append(firstBatch, more...)
				continue
			}
			return fmt.Errorf("sampling: loss %v above threshold %v with the full population sampled", cur, theta)
		}
		if err := s.commit(best); err != nil {
			return err
		}
		cur = ev.CurrentLoss()
		size++
		if cur <= theta {
			return nil
		}
		if maxSize > 0 && size >= maxSize {
			return ErrBudgetExhausted
		}
	}
	// Seed the heap with marginal gains against the now-finite loss.
	h := &gainHeap{idx: make([]int, 0, len(firstBatch)), gain: make([]float64, 0, len(firstBatch))}
	for _, i := range firstBatch {
		if inSample[i] {
			continue
		}
		l, err := s.lossWith(i)
		if err != nil {
			return err
		}
		h.idx = append(h.idx, i)
		h.gain = append(h.gain, cur-l)
	}
	h.init()
	for cur > theta {
		if len(h.idx) == 0 {
			batch := seedBatch()
			if batch == nil {
				return fmt.Errorf("sampling: loss %v above threshold %v with the full population sampled", cur, theta)
			}
			for _, i := range batch {
				if inSample[i] {
					continue
				}
				l, err := s.lossWith(i)
				if err != nil {
					return err
				}
				h.push(i, cur-l)
			}
			continue
		}
		i := h.pop()
		if inSample[i] {
			continue
		}
		l, err := s.lossWith(i)
		if err != nil {
			return err
		}
		fresh := cur - l
		if len(h.idx) > 0 && fresh < h.gain[0] {
			// The head's bound was stale and another candidate may now be
			// better; push back with the refreshed bound.
			h.push(i, fresh)
			continue
		}
		if err := s.commit(i); err != nil {
			return err
		}
		cur = ev.CurrentLoss()
		size++
		if maxSize > 0 && size >= maxSize && cur > theta {
			return ErrBudgetExhausted
		}
	}
	return nil
}

// bestOf returns the candidate of batch not yet in the sample with the
// smallest LossWith, the earliest in batch among ties — except that a
// first candidate whose loss is NaN is returned as is — or -1 when every
// candidate is in the sample. That is the scan "l < best, or no best yet"
// in batch order. When bound is set and the evaluator bounds the batch
// (loss.LowerBounder), it finds the same candidate by branch and bound:
// candidates are evaluated in ascending bound order until a bound exceeds
// the best loss so far.
func (s *greedyRun) bestOf(batch []int, bound bool) (int, error) {
	if lb, ok := s.ev.(loss.LowerBounder); ok && bound && len(batch) > 1 {
		lo := make([]float64, len(batch))
		bounded, err := s.bounds(lb, batch, lo)
		if err != nil {
			return -1, err
		}
		if bounded {
			return s.branchAndBound(batch, lo)
		}
	}
	best, bestLoss := -1, math.Inf(1)
	for _, i := range batch {
		if s.inSample[i] {
			continue
		}
		l, err := s.lossWith(i)
		if err != nil {
			return -1, err
		}
		if l < bestLoss || best < 0 {
			best, bestLoss = i, l
		}
	}
	return best, nil
}

// branchAndBound is bestOf over a batch none of whose candidates is in the
// sample, given lower bounds lo on their losses. The first candidate is
// evaluated first: if its loss is NaN the scan would keep it. Any other
// candidate is skipped only when its bound, and hence its loss, exceeds the
// best loss found, so it could neither win nor tie; a NaN bound bounds
// nothing and is evaluated.
func (s *greedyRun) branchAndBound(batch []int, lo []float64) (int, error) {
	bestLoss, err := s.lossWith(batch[0])
	if err != nil || math.IsNaN(bestLoss) {
		return batch[0], err
	}
	bestPos := 0
	order := make([]int32, len(batch)-1)
	for k := range order {
		order[k] = int32(k + 1)
		if math.IsNaN(lo[k+1]) {
			lo[k+1] = math.Inf(-1)
		}
	}
	sort.Slice(order, func(a, b int) bool { return lo[order[a]] < lo[order[b]] })
	for _, k := range order {
		if lo[k] > bestLoss {
			break
		}
		l, err := s.lossWith(batch[k])
		if err != nil {
			return -1, err
		}
		if l < bestLoss || (l == bestLoss && int(k) < bestPos) {
			bestLoss, bestPos = l, int(k)
		}
	}
	return batch[bestPos], nil
}

// newEvaluator returns the loss's incremental evaluator, or a generic
// re-evaluating adapter for losses without GreedyCapable.
func newEvaluator(f loss.Func, raw dataset.View) (loss.GreedyEvaluator, error) {
	if gc, ok := f.(loss.GreedyCapable); ok {
		return gc.NewGreedy(raw)
	}
	return &genericGreedy{f: f, raw: raw}, nil
}

// genericGreedy evaluates loss(raw, sample+cand) from the definition; it
// is O(cost of Loss) per probe and exists so user-provided Funcs work
// without implementing GreedyCapable.
type genericGreedy struct {
	f    loss.Func
	raw  dataset.View
	rows []int32
}

func (g *genericGreedy) Len() int { return g.raw.Len() }

func (g *genericGreedy) CurrentLoss() float64 {
	return g.f.Loss(g.raw, dataset.NewView(g.raw.Table, g.rows))
}

func (g *genericGreedy) LossWith(i int) float64 {
	rows := append(append([]int32(nil), g.rows...), g.raw.RowID(i))
	return g.f.Loss(g.raw, dataset.NewView(g.raw.Table, rows))
}

func (g *genericGreedy) Add(i int) { g.rows = append(g.rows, g.raw.RowID(i)) }

// Random draws k table-row ids from the view uniformly without
// replacement (k is clamped to the view size).
func Random(raw dataset.View, k int, rng *rand.Rand) []int32 {
	n := raw.Len()
	if k >= n {
		out := make([]int32, n)
		for i := 0; i < n; i++ {
			out[i] = raw.RowID(i)
		}
		return out
	}
	// Floyd's algorithm: k distinct indexes in O(k) space.
	chosen := make(map[int]struct{}, k)
	out := make([]int32, 0, k)
	for j := n - k; j < n; j++ {
		t := rng.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, raw.RowID(t))
	}
	return out
}

// Reservoir maintains a fixed-size uniform sample over a stream of row
// ids; used when the population size is unknown up front.
type Reservoir struct {
	k    int
	seen int
	rows []int32
	rng  *rand.Rand
}

// NewReservoir returns a reservoir of capacity k.
func NewReservoir(k int, rng *rand.Rand) *Reservoir {
	return &Reservoir{k: k, rng: rng}
}

// Offer feeds one row id to the reservoir.
func (r *Reservoir) Offer(row int32) {
	r.seen++
	if len(r.rows) < r.k {
		r.rows = append(r.rows, row)
		return
	}
	if j := r.rng.Intn(r.seen); j < r.k {
		r.rows[j] = row
	}
}

// Rows returns the current sample (not a copy).
func (r *Reservoir) Rows() []int32 { return r.rows }

// Stratified draws, for each stratum (a partition of the view's rows), a
// uniform sample of ceil(fraction·|stratum|) rows, at least minPerStratum
// when the stratum is non-empty. This mirrors the SnappyData/BlinkDB
// stratified samples over a Query Column Set.
func Stratified(strata map[uint64][]int32, fraction float64, minPerStratum int, rng *rand.Rand) map[uint64][]int32 {
	out := make(map[uint64][]int32, len(strata))
	for key, rows := range strata {
		k := int(math.Ceil(fraction * float64(len(rows))))
		if k < minPerStratum {
			k = minPerStratum
		}
		if k > len(rows) {
			k = len(rows)
		}
		idx := rng.Perm(len(rows))[:k]
		sample := make([]int32, k)
		for i, j := range idx {
			sample[i] = rows[j]
		}
		out[key] = sample
	}
	return out
}

// SerflingSize returns the global random sample size k ≈ ln(2/δ)/(2ε²)
// derived from Serfling's inequality, as used by Tabula to size
// Sam_global (defaults ε=0.05, δ=0.01 give k≈1060 — enough to represent
// the distribution of the raw dataset regardless of its cardinality).
func SerflingSize(epsilon, delta float64) (int, error) {
	if epsilon <= 0 || epsilon >= 1 {
		return 0, fmt.Errorf("sampling: epsilon must be in (0,1), got %v", epsilon)
	}
	if delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("sampling: delta must be in (0,1), got %v", delta)
	}
	return int(math.Ceil(math.Log(2/delta) / (2 * epsilon * epsilon))), nil
}

// DefaultSerflingSize is SerflingSize with the paper's defaults ε=0.05,
// δ=0.01.
func DefaultSerflingSize() int {
	k, err := SerflingSize(0.05, 0.01)
	if err != nil {
		panic(err) // unreachable: constants are valid
	}
	return k
}
