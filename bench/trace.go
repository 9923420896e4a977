package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer's public function, recorded from the
// benchmark's side of the boundary. Times are nanoseconds since the tracer
// was created; Parent is the index of the enclosing span (-1 for a root) and
// Req groups the spans of one replayed request (-1 outside requests).
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the same replay code runs traced and untraced and the
// difference between the two is the tracing overhead. It is used from one
// goroutine at a time.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its index for end and for children.
func (t *tracer) start(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req, Start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
}

// durMS returns the summed duration of every span with the given name.
func (t *tracer) durMS(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e6
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Children may overlap each other (parallel
// work) and are clipped to the parent, so the result is never negative.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, cursor := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// traceFile is the on-disk form of a traced run: every span plus its self
// time, in recording order.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Spans    []traceSpan `json:"spans"`
}

type traceSpan struct {
	span
	ID   int   `json:"id"`
	Self int64 `json:"self_ns"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	self := selfTimes(t.spans)
	out := traceFile{Workload: workload, Seed: seed, Spans: make([]traceSpan, len(t.spans))}
	for i, s := range t.spans {
		out.Spans[i] = traceSpan{span: s, ID: i, Self: self[i]}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
