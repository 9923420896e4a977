package samgraph

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/tabula-db/tabula/internal/dataset"
	"github.com/tabula-db/tabula/internal/geo"
	"github.com/tabula-db/tabula/internal/loss"
)

// recordingSampler hands out precomputed samples on demand, counting the
// calls per vertex; hook, when set, runs first and may fail the call.
type recordingSampler struct {
	samples [][]int32
	hook    func(v int) error
	mu      sync.Mutex
	calls   []int
}

func newRecordingSampler(vertices []Vertex) *recordingSampler {
	s := &recordingSampler{samples: make([][]int32, len(vertices)), calls: make([]int, len(vertices))}
	for v := range vertices {
		s.samples[v] = vertices[v].SampleRows
	}
	return s
}

func (s *recordingSampler) sample(v int) ([]int32, error) {
	s.mu.Lock()
	s.calls[v]++
	s.mu.Unlock()
	if s.hook != nil {
		if err := s.hook(v); err != nil {
			return nil, err
		}
	}
	return s.samples[v], nil
}

func (s *recordingSampler) called(v int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls[v]
}

// withoutSamples copies vertices with their SampleRows cleared, as the
// on-demand cover receives them.
func withoutSamples(vertices []Vertex) []Vertex {
	out := make([]Vertex, len(vertices))
	for v := range vertices {
		out[v] = Vertex{Rows: vertices[v].Rows}
	}
	return out
}

// checkOnDemand requires the on-demand cover's graph to equal Build's over
// the precomputed samples, each vertex to be sampled at most once, and the
// samples kept — the SampleRows it filled in — to be exactly the
// representatives'.
func checkOnDemand(t *testing.T, label string, got, want *Graph, s *recordingSampler, onDemand, vertices []Vertex) {
	t.Helper()
	if !reflect.DeepEqual(got.Out, want.Out) {
		t.Fatalf("%s: Out = %v, Build over the precomputed samples gives %v", label, got.Out, want.Out)
	}
	if got.PairsTested != want.PairsTested || got.CoverTests != want.CoverTests ||
		got.RowCosts != want.RowCosts || got.RowCostsReused != want.RowCostsReused || got.PairsPruned != want.PairsPruned {
		t.Fatalf("%s: counters %+v, Build's %+v", label, *got, *want)
	}
	reps := make(map[int]bool)
	for _, v := range Select(got).Representatives {
		reps[v] = true
	}
	for v := range vertices {
		calls := s.called(v)
		switch {
		case calls > 1:
			t.Fatalf("%s: vertex %d sampled %d times", label, v, calls)
		case reps[v] && (calls != 1 || !reflect.DeepEqual(onDemand[v].SampleRows, vertices[v].SampleRows)):
			t.Fatalf("%s: representative %d sampled %d times, kept %v, want its sample %v", label, v, calls, onDemand[v].SampleRows, vertices[v].SampleRows)
		case !reps[v] && onDemand[v].SampleRows != nil:
			t.Fatalf("%s: covered vertex %d kept the sample %v", label, v, onDemand[v].SampleRows)
		}
	}
}

// The cover pass with samples drawn on demand must give exactly the online
// cover of the loss definition, and Build's graph over the same samples
// precomputed, at every lookahead, worker count and candidate cap — keeping
// exactly the representatives' samples. Without helpers nothing is sampled
// ahead, so only the representatives are sampled at all.
func TestCoverOnDemandMatchesPrecomputed(t *testing.T) {
	losses := map[string]loss.Func{
		"heatmap-euclidean": loss.NewHeatmap("p", geo.Euclidean),
		"heatmap-haversine": loss.NewHeatmap("p", geo.Haversine),
		"histogram":         loss.NewHistogram("v"),
	}
	r := rand.New(rand.NewSource(23))
	for _, shape := range []string{"uniform", "clustered", "duplicates"} {
		tbl, vertices := geoTable(r, shape, 150+r.Intn(150), 16+r.Intn(12))
		for name, f := range losses {
			m := lossMatrix(tbl, vertices, f)
			theta := splitTheta(m, 0.4)
			for _, maxCand := range []int{0, 3} {
				want, err := Build(context.Background(), tbl, vertices, f, theta, BuildOptions{MaxCandidates: maxCand, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				for _, lookahead := range []int{1, 7, 64} {
					for _, workers := range []int{1, 2, 4} {
						label := fmt.Sprintf("%s/%s cap=%d lookahead=%d workers=%d", shape, name, maxCand, lookahead, workers)
						s := newRecordingSampler(vertices)
						onDemand := withoutSamples(vertices)
						g, err := coverAhead(context.Background(), tbl, onDemand, f, theta,
							BuildOptions{MaxCandidates: maxCand, Workers: workers}, lookahead, s.sample)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						checkCover(t, label, g, vertices, m, theta, maxCand)
						checkOnDemand(t, label, g, want, s, onDemand, vertices)
						if workers == 1 {
							var calls int
							for v := range vertices {
								calls += s.called(v)
							}
							if reps := len(Select(g).Representatives); calls != reps {
								t.Fatalf("%s: %d samples drawn for %d representatives", label, calls, reps)
							}
						}
					}
				}
			}
		}
	}
}

// coverFixture is a cover input with at least two representatives and a
// covered vertex: its visit order, representatives and one covered vertex.
func coverFixture(t *testing.T) (*dataset.Table, []Vertex, loss.Func, float64, []int, int) {
	t.Helper()
	f := loss.NewHeatmap("p", geo.Euclidean)
	r := rand.New(rand.NewSource(29))
	for attempt := 0; attempt < 50; attempt++ {
		tbl, vertices := geoTable(r, "clustered", 300, 24)
		m := lossMatrix(tbl, vertices, f)
		theta := splitTheta(m, 0.5)
		_, reps, _ := wantCover(vertices, m, theta, 0)
		isRep := make(map[int]bool)
		for _, v := range reps {
			isRep[v] = true
		}
		for u := range vertices {
			if !isRep[u] && len(reps) >= 2 {
				return tbl, vertices, f, theta, reps, u
			}
		}
	}
	t.Fatal("no fixture with two representatives and a covered vertex")
	return nil, nil, nil, 0, nil, 0
}

var errSampling = errors.New("sampling failed")

// A sampling error on a vertex that ends up covered is dropped with its
// sample; one on a representative fails the pass unchanged.
func TestCoverSamplingErrors(t *testing.T) {
	tbl, vertices, f, theta, reps, covered := coverFixture(t)
	want, err := Build(context.Background(), tbl, vertices, f, theta, BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	// The covered vertex fails, and the first representative's sample is
	// held back until a helper has tried it, so the error really was met.
	s := newRecordingSampler(vertices)
	tried := make(chan struct{})
	s.hook = func(v int) error {
		switch v {
		case covered:
			close(tried)
			return errSampling
		case reps[0]:
			select {
			case <-tried:
			case <-time.After(5 * time.Second):
			}
		}
		return nil
	}
	onDemand := withoutSamples(vertices)
	g, err := coverAhead(context.Background(), tbl, onDemand, f, theta, BuildOptions{Workers: 2}, len(vertices), s.sample)
	if err != nil {
		t.Fatalf("a sampling error on covered vertex %d failed the pass: %v", covered, err)
	}
	if s.called(covered) != 1 {
		t.Fatalf("covered vertex %d was sampled %d times, want once (speculatively)", covered, s.called(covered))
	}
	checkOnDemand(t, "covered vertex fails", g, want, s, onDemand, vertices)

	for _, workers := range []int{1, 4} {
		s := newRecordingSampler(vertices)
		s.hook = func(v int) error {
			if v == reps[1] {
				return errSampling
			}
			return nil
		}
		_, err := coverAhead(context.Background(), tbl, withoutSamples(vertices), f, theta, BuildOptions{Workers: workers}, 7, s.sample)
		if !errors.Is(err, errSampling) {
			t.Fatalf("workers=%d: a sampling error on representative %d gave %v, want it returned", workers, reps[1], err)
		}
	}
}

// A context cancelled while samples are being drawn ahead aborts the pass
// with context.Canceled, and every goroutine the pass started has exited
// when it returns.
func TestCoverCancelledMidSpeculation(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	tbl, vertices := geoTable(r, "uniform", 400, 40)
	f := loss.NewHeatmap("p", geo.Euclidean)
	for _, workers := range []int{1, 4} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		s := newRecordingSampler(vertices)
		var mu sync.Mutex
		calls := 0
		s.hook = func(int) error {
			mu.Lock()
			calls++
			n := calls
			mu.Unlock()
			if n == 3 {
				cancel()
			}
			time.Sleep(time.Millisecond) // let the other goroutines run on
			return nil
		}
		g, err := coverAhead(ctx, tbl, withoutSamples(vertices), f, 1e-9, BuildOptions{Workers: workers}, 16, s.sample)
		cancel()
		if err != context.Canceled {
			t.Fatalf("workers=%d: cover = %v, %v after a cancel at the third sample, want context.Canceled", workers, g, err)
		}
		if after := runtime.NumGoroutine(); after != before {
			t.Fatalf("workers=%d: %d goroutines before the pass, %d after it returned", workers, before, after)
		}
	}
}

// FuzzCoverSpeculative checks the on-demand cover against the cover over
// precomputed samples on small random inputs, losses, lookaheads, worker
// counts and candidate caps.
func FuzzCoverSpeculative(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(0), uint8(1), uint8(2), uint8(0), uint8(128))
	f.Add(int64(2), uint8(20), uint8(1), uint8(7), uint8(4), uint8(3), uint8(40))
	f.Add(int64(3), uint8(2), uint8(2), uint8(64), uint8(3), uint8(1), uint8(230))
	f.Add(int64(4), uint8(15), uint8(3), uint8(3), uint8(1), uint8(2), uint8(10))
	shapes := []string{"uniform", "clustered", "duplicates", "all-equal"}
	losses := []loss.Func{
		loss.NewHeatmap("p", geo.Euclidean),
		loss.NewHeatmap("p", geo.Haversine),
		loss.NewHeatmap("p", geo.Manhattan),
		loss.NewHistogram("v"),
	}
	f.Fuzz(func(t *testing.T, seed int64, n, lossKind, lookahead, workers, maxCand, q uint8) {
		r := rand.New(rand.NewSource(seed))
		nv := 2 + int(n)%23
		tbl, vertices := geoTable(r, shapes[r.Intn(len(shapes))], 20+r.Intn(120), nv)
		fn := losses[int(lossKind)%len(losses)]
		m := lossMatrix(tbl, vertices, fn)
		theta := splitTheta(m, float64(q)/255)
		opts := BuildOptions{MaxCandidates: int(maxCand) % 4, Workers: 1 + int(workers)%4}
		want, err := Build(context.Background(), tbl, vertices, fn, theta, opts)
		if err != nil {
			t.Fatal(err)
		}
		s := newRecordingSampler(vertices)
		onDemand := withoutSamples(vertices)
		g, err := coverAhead(context.Background(), tbl, onDemand, fn, theta, opts, 1+int(lookahead)%64, s.sample)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%s theta=%g %+v lookahead=%d", fn.Name(), theta, opts, 1+int(lookahead)%64)
		checkCover(t, label, g, vertices, m, theta, opts.MaxCandidates)
		checkOnDemand(t, label, g, want, s, onDemand, vertices)
	})
}
