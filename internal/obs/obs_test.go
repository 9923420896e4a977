package obs

import (
	"context"
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_c_total", "help", Label{Name: "k", Value: "v"})
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	// Same name+labels returns the same instrument.
	if again := r.Counter("t_c_total", "help", Label{Name: "k", Value: "v"}); again != c {
		t.Fatal("re-registration did not return the existing counter")
	}
	g := r.Gauge("t_g", "help")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
	if v, ok := r.Value("t_c_total", Label{Name: "k", Value: "v"}); !ok || v != 5 {
		t.Fatalf("Value(t_c_total) = %v, %v", v, ok)
	}
	if _, ok := r.Value("missing"); ok {
		t.Fatal("Value on unregistered name reported ok")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_h", "help", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if got := h.Sum(); math.Abs(got-108) > 1e-9 {
		t.Fatalf("sum = %v, want 108", got)
	}
	text := string(r.AppendPrometheus(nil))
	// le="1" is cumulative: 0.5 and the exact bound 1 both land in it.
	for _, want := range []string{
		`t_h_bucket{le="1"} 2`,
		`t_h_bucket{le="2"} 4`,
		`t_h_bucket{le="5"} 5`,
		`t_h_bucket{le="+Inf"} 6`,
		`t_h_sum 108`,
		`t_h_count 6`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestNilRegistryAndInstrumentsAreNoops(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "h")
	g := r.Gauge("x2", "h")
	h := r.Histogram("x3", "h", LatencyBuckets)
	r.CounterFunc("x4", "h", func() float64 { return 1 })
	c.Inc()
	c.Add(7)
	g.Set(1)
	h.Observe(3)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments recorded something")
	}
	if got := r.AppendPrometheus(nil); len(got) != 0 {
		t.Fatalf("nil registry rendered %q", got)
	}
	if _, ok := r.Value("x"); ok {
		t.Fatal("nil registry Value reported ok")
	}
	if err := r.WritePrometheus(failWriter{}); err != nil {
		t.Fatalf("nil registry WritePrometheus: %v", err)
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return len(p), nil }

func TestFuncCollectorsAndReplacement(t *testing.T) {
	r := NewRegistry()
	n := 10.0
	r.CounterFunc("t_f_total", "help", func() float64 { return n })
	if v, ok := r.Value("t_f_total"); !ok || v != 10 {
		t.Fatalf("func value = %v, %v", v, ok)
	}
	n = 11
	if v, _ := r.Value("t_f_total"); v != 11 {
		t.Fatalf("func value after change = %v", v)
	}
	// Re-registration replaces the callback (a re-registered cube hands
	// its series to the new instance).
	r.CounterFunc("t_f_total", "help", func() float64 { return 99 })
	if v, _ := r.Value("t_f_total"); v != 99 {
		t.Fatalf("replaced func value = %v", v)
	}
}

// expositionLine matches every legal non-comment sample line.
var expositionLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [-+0-9.eE naInf]+$`)

func TestExpositionFormatParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_req_total", "requests", Label{Name: "route", Value: "/v1/query"}, Label{Name: "code", Value: "2xx"}).Add(3)
	r.Gauge("t_residency", "entries").Set(12)
	r.Histogram("t_lat_seconds", "latency", LatencyBuckets, Label{Name: "route", Value: "/v1/query"}).Observe(0.002)
	r.GaugeFunc("t_gen", "generation", func() float64 { return 4 }, Label{Name: "cube", Value: `ta"xi`})
	text := string(r.AppendPrometheus(nil))
	var families []string
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			families = append(families, strings.Fields(line)[2])
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
	// Families sorted by name — deterministic scrapes.
	for i := 1; i < len(families); i++ {
		if families[i-1] >= families[i] {
			t.Fatalf("families out of order: %v", families)
		}
	}
	if !strings.Contains(text, `t_gen{cube="ta\"xi"} 4`) {
		t.Fatalf("label escaping missing:\n%s", text)
	}
	if !strings.Contains(text, `t_req_total{code="2xx",route="/v1/query"} 3`) {
		t.Fatalf("label sorting missing:\n%s", text)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_cc_total", "help")
	h := r.Histogram("t_ch", "help", []float64{1})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("lost updates: counter=%d hist=%d", c.Value(), h.Count())
	}
	if math.Abs(h.Sum()-4000) > 1e-6 {
		t.Fatalf("hist sum = %v", h.Sum())
	}
}

func TestStageTracer(t *testing.T) {
	r := NewRegistry()
	st := NewStages(r)
	ctx := WithStages(context.Background(), st)
	done := StartStage(ctx, "dry_run")
	time.Sleep(time.Millisecond)
	done()
	st.Observe("dry_run", 2*time.Second)
	if v, ok := r.Value("tabula_build_stage_seconds", Label{Name: "stage", Value: "dry_run"}); !ok || v != 2 {
		t.Fatalf("stage histogram count = %v, %v (want 2 observations)", v, ok)
	}
	// A stage started inside another is a series of its own.
	doneJoin := StartStage(ctx, "samgraph_join")
	StartStage(ctx, "samgraph_summaries")()
	doneJoin()
	for _, stage := range []string{"samgraph_join", "samgraph_summaries"} {
		if v, ok := r.Value("tabula_build_stage_seconds", Label{Name: "stage", Value: stage}); !ok || v != 1 {
			t.Fatalf("nested stage %q: %v observations (ok=%v), want 1", stage, v, ok)
		}
	}
	// No tracer installed: the shared no-op comes back and does nothing.
	if done := StartStage(context.Background(), "x"); &done == nil {
		t.Fatal("unreachable")
	} else {
		done()
	}
	if NewStages(nil) != nil {
		t.Fatal("NewStages(nil) should be a nil tracer")
	}
	st.Count("tabula_stage_work_total", "work", 3, Label{Name: "outcome", Value: "a"})
	st.Count("tabula_stage_work_total", "work", 4, Label{Name: "outcome", Value: "a"})
	if v, ok := r.Value("tabula_stage_work_total", Label{Name: "outcome", Value: "a"}); !ok || v != 7 {
		t.Fatalf("stage counter = %v, %v (want 7)", v, ok)
	}
	var nilStages *Stages
	nilStages.Observe("x", time.Second) // must not panic
	nilStages.Count("x", "x", 1)
	if got := WithStages(context.Background(), nil); got != context.Background() {
		t.Fatal("WithStages(nil) should return ctx unchanged")
	}
}
