package obs

import (
	"context"
	"sync"
	"time"
)

// Stage tracing: cube initialization is a pipeline of long stages (dry
// run, real run, representative sample selection) executed deep inside
// internal/cube and internal/samgraph, far from wherever the registry
// lives. Rather than threading a registry through every build
// signature, the tracer rides the context that already flows end to
// end: the owner installs a *Stages with WithStages, and each stage
// brackets itself with StartStage — a no-op returning a shared func
// when no tracer is installed, so un-instrumented builds pay one
// context lookup per stage and nothing else.

// Stages records build-stage wall times into a registry as the
// tabula_build_stage_seconds histogram family, one series per stage
// label. A nil *Stages is a valid no-op tracer.
type Stages struct {
	reg *Registry
	mu  sync.Mutex
	h   map[string]*Histogram
}

// NewStages creates a tracer recording into reg (nil reg → nil tracer).
func NewStages(reg *Registry) *Stages {
	if reg == nil {
		return nil
	}
	return &Stages{reg: reg, h: make(map[string]*Histogram)}
}

// Observe records one completed stage run.
func (s *Stages) Observe(stage string, d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	h, ok := s.h[stage]
	if !ok {
		h = s.reg.Histogram("tabula_build_stage_seconds",
			"Wall time of cube initialization stages.",
			StageBuckets, Label{Name: "stage", Value: stage})
		s.h[stage] = h
	}
	s.mu.Unlock()
	h.Observe(d.Seconds())
}

// Count adds n to a counter series in the tracer's registry: the work a
// stage did (pairs tested, costs reused), exposed next to its wall time so
// a slow stage can be told apart from a stage that had more to do.
func (s *Stages) Count(name, help string, n int64, labels ...Label) {
	if s == nil {
		return
	}
	s.reg.Counter(name, help, labels...).Add(uint64(n))
}

type stagesKey struct{}

// WithStages installs the tracer into ctx (returns ctx unchanged for a
// nil tracer).
func WithStages(ctx context.Context, s *Stages) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, stagesKey{}, s)
}

// StagesFrom returns the tracer installed in ctx, or nil.
func StagesFrom(ctx context.Context) *Stages {
	s, _ := ctx.Value(stagesKey{}).(*Stages)
	return s
}

// noopDone is returned when no tracer is installed, so callers can
// unconditionally `defer StartStage(ctx, "x")()` without allocating a
// closure on un-instrumented builds.
var noopDone = func() {}

// StartStage begins timing the named stage against the tracer in ctx
// and returns the completion func. With no tracer installed it returns
// a shared no-op.
func StartStage(ctx context.Context, stage string) func() {
	s := StagesFrom(ctx)
	if s == nil {
		return noopDone
	}
	start := time.Now()
	return func() { s.Observe(stage, time.Since(start)) }
}
