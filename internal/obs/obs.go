// Package obs is the middleware's observability layer: a stdlib-only
// metrics registry with Prometheus text exposition.
//
// The registry is built for the serving hot path. Instruments are
// registered once, up front (per route, per cube), and the per-event
// operations — Counter.Inc, Counter.Add, Histogram.Observe — are single
// atomic ops on pre-allocated state: no locks, no maps, no allocation.
// Sampled metrics (resident wire bytes, snapshot generations) register a
// read callback instead and cost nothing until a scrape reads them.
//
// Disabled mode is a true no-op: every constructor on a nil *Registry
// returns a nil instrument, and every method on a nil instrument
// returns immediately, so callers wire metrics unconditionally and pay
// nothing when observability is off.
//
// Exposition is the Prometheus text format (version 0.0.4): families
// sorted by name, each with one # HELP/# TYPE header and its series in
// registration order, histograms with cumulative le buckets plus _sum
// and _count. Bucket bounds are fixed at registration (deterministic
// across runs), so dashboards can rely on stable series identities.
package obs

import (
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair of a metric series.
type Label struct {
	Name  string
	Value string
}

// metric kinds, in exposition TYPE vocabulary.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// Counter is a monotonically increasing counter. A nil Counter is a
// valid no-op instrument.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value. A nil Gauge is a valid no-op
// instrument.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram with deterministic bounds set
// at registration. Observe is lock-free: a binary search over the
// bounds, one atomic bucket increment, and one CAS-loop float add for
// the sum. A nil Histogram is a valid no-op instrument.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; counts has one extra +Inf slot
	counts  []atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose upper bound is >= v (Prometheus le semantics).
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// LatencyBuckets are the default request/append latency bounds in
// seconds: 100µs to 10s, roughly ×2.5 per step. Deterministic so series
// identities never depend on observed traffic.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// StageBuckets are the build-stage wall-time bounds in seconds: stages
// run milliseconds to minutes.
var StageBuckets = []float64{
	0.001, 0.005, 0.025, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

// ShardBuckets count shards touched per append (DefaultShards is 16;
// cubes rarely exceed 64 partitions).
var ShardBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

// series is one labeled instrument (or sampled callback) of a family.
type series struct {
	labels string // pre-rendered {a="b",...} or ""
	// exactly one of the following is set
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	sample  func() float64
}

// family groups every series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   string
	series []*series
	byKey  map[string]*series // labels -> series
}

// Registry holds metric families and renders them in the Prometheus
// text format. The zero value is not usable; use NewRegistry. A nil
// *Registry is the valid disabled mode: every constructor returns a nil
// no-op instrument and exposition renders nothing.
//
// The registry mutex guards registration and exposition only; recording
// into registered instruments is lock-free.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// familyFor returns (creating if needed) the named family, enforcing
// one kind per name. Caller holds r.mu.
func (r *Registry) familyFor(name, help, kind string) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, byKey: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic("obs: metric " + name + " registered as " + f.kind + " and " + kind)
	}
	return f
}

// seriesFor returns (creating if needed) the series of f with the given
// labels. Caller holds r.mu.
func (f *family) seriesFor(labels []Label) *series {
	key := renderLabels(labels)
	s, ok := f.byKey[key]
	if !ok {
		s = &series{labels: key}
		f.byKey[key] = s
		f.series = append(f.series, s)
	}
	return s
}

// Counter registers (or returns the existing) counter series under
// name and labels. Nil registry returns a nil no-op counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.familyFor(name, help, kindCounter).seriesFor(labels)
	if s.counter == nil && s.sample == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// Gauge registers (or returns the existing) settable gauge series.
// Nil registry returns a nil no-op gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.familyFor(name, help, kindGauge).seriesFor(labels)
	if s.gauge == nil && s.sample == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// Histogram registers (or returns the existing) histogram series with
// the given ascending bucket bounds (a +Inf bucket is implicit). Nil
// registry returns a nil no-op histogram.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.familyFor(name, help, kindHistogram).seriesFor(labels)
	if s.hist == nil {
		h := &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Uint64, len(bounds)+1),
		}
		s.hist = h
	}
	return s.hist
}

// CounterFunc registers a sampled counter series: f is called at
// exposition (and Value) time. Re-registering the same name and labels
// replaces the callback — a cube re-registered under a name hands the
// series to the new instance. No-op on a nil registry.
func (r *Registry) CounterFunc(name, help string, f func() float64, labels ...Label) {
	r.registerFunc(name, help, kindCounter, f, labels)
}

// GaugeFunc registers a sampled gauge series; see CounterFunc.
func (r *Registry) GaugeFunc(name, help string, f func() float64, labels ...Label) {
	r.registerFunc(name, help, kindGauge, f, labels)
}

func (r *Registry) registerFunc(name, help, kind string, f func() float64, labels []Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.familyFor(name, help, kind).seriesFor(labels)
	s.sample = f
}

// Value reads the current value of the series under name and labels:
// counter counts, gauge values, sampled callbacks, or a histogram's
// observation count. The second return is false when no such series is
// registered. It exists so benchmarks and tests can assert exposition
// numbers without parsing text.
func (r *Registry) Value(name string, labels ...Label) (float64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		return 0, false
	}
	s, ok := f.byKey[renderLabels(labels)]
	if !ok {
		return 0, false
	}
	switch {
	case s.sample != nil:
		return s.sample(), true
	case s.counter != nil:
		return float64(s.counter.Value()), true
	case s.gauge != nil:
		return s.gauge.Value(), true
	case s.hist != nil:
		return float64(s.hist.Count()), true
	}
	return 0, false
}

// AppendPrometheus renders every family into b in the Prometheus text
// exposition format and returns the extended slice. Families are sorted
// by name so output is deterministic; series stay in registration
// order. Nil registry appends nothing.
func (r *Registry) AppendPrometheus(b []byte) []byte {
	if r == nil {
		return b
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := r.families[name]
		b = append(b, "# HELP "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = appendEscapedHelp(b, f.help)
		b = append(b, "\n# TYPE "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, f.kind...)
		b = append(b, '\n')
		for _, s := range f.series {
			b = appendSeries(b, f, s)
		}
	}
	return b
}

// WritePrometheus writes AppendPrometheus output to w.
func (r *Registry) WritePrometheus(w io.Writer) error {
	_, err := w.Write(r.AppendPrometheus(nil))
	return err
}

// appendSeries renders one series of f.
func appendSeries(b []byte, f *family, s *series) []byte {
	if s.hist != nil {
		// Cumulative le buckets, then _sum and _count.
		var cum uint64
		for i, bound := range s.hist.bounds {
			cum += s.hist.counts[i].Load()
			b = appendHistLine(b, f.name, "_bucket", s.labels, formatFloat(bound), float64(cum))
		}
		cum += s.hist.counts[len(s.hist.bounds)].Load()
		b = appendHistLine(b, f.name, "_bucket", s.labels, "+Inf", float64(cum))
		b = appendSample(b, f.name+"_sum", s.labels, s.hist.Sum())
		b = appendSample(b, f.name+"_count", s.labels, float64(cum))
		return b
	}
	var v float64
	switch {
	case s.sample != nil:
		v = s.sample()
	case s.counter != nil:
		v = float64(s.counter.Value())
	case s.gauge != nil:
		v = s.gauge.Value()
	}
	return appendSample(b, f.name, s.labels, v)
}

// appendSample renders `name{labels} value\n`.
func appendSample(b []byte, name, labels string, v float64) []byte {
	b = append(b, name...)
	b = append(b, labels...)
	b = append(b, ' ')
	b = append(b, formatFloat(v)...)
	return append(b, '\n')
}

// appendHistLine renders a bucket sample, merging the le label into the
// series labels.
func appendHistLine(b []byte, name, suffix, labels, le string, v float64) []byte {
	b = append(b, name...)
	b = append(b, suffix...)
	if labels == "" {
		b = append(b, `{le="`...)
	} else {
		b = append(b, labels[:len(labels)-1]...) // strip trailing '}'
		b = append(b, `,le="`...)
	}
	b = append(b, le...)
	b = append(b, `"} `...)
	b = append(b, formatFloat(v)...)
	return append(b, '\n')
}

// renderLabels pre-renders a label set as `{a="b",c="d"}` (empty string
// for no labels). Labels are sorted by name so the same set always
// renders — and keys — identically.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	b := []byte{'{'}
	for i, l := range ls {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Name...)
		b = append(b, `="`...)
		b = appendEscapedValue(b, l.Value)
		b = append(b, '"')
	}
	b = append(b, '}')
	return string(b)
}

// appendEscapedValue escapes a label value per the exposition format
// (backslash, double-quote, newline).
func appendEscapedValue(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b = append(b, `\\`...)
		case '"':
			b = append(b, `\"`...)
		case '\n':
			b = append(b, `\n`...)
		default:
			b = append(b, s[i])
		}
	}
	return b
}

// appendEscapedHelp escapes help text (backslash and newline).
func appendEscapedHelp(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b = append(b, `\\`...)
		case '\n':
			b = append(b, `\n`...)
		default:
			b = append(b, s[i])
		}
	}
	return b
}

// formatFloat renders a sample value: integers without exponent (the
// common case for counters), everything else in Go's shortest form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
