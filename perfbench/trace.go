package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanRecord is one finished harness span: a timed call into one layer
// of the program, tied to the op that caused it.
type spanRecord struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"` // 0 for a root span
	Op      int64  `json:"op"`     // op index; -1 for set-up and checks
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the run began
	EndNS   int64  `json:"end_ns"`
}

// spanStats aggregates every span of one name. Self time is a span's
// duration minus the part its child spans cover.
type spanStats struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// maxKeptSpans bounds the spans kept in memory for the trace file; the
// per-name aggregates always cover every span.
const maxKeptSpans = 200000

// tracer records harness spans in memory and writes them out once, at
// the end of the run. A nil *tracer records nothing, which is how the
// untraced runs that give the end-to-end metrics pay no tracing cost.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu      sync.Mutex
	spans   []spanRecord
	dropped int
	agg     map[string]*spanStats
}

func newTracer(t0 time.Time) *tracer {
	return &tracer{t0: t0, agg: map[string]*spanStats{}}
}

// span is an open span; nil means "not traced" and every method is a
// no-op on it.
type span struct {
	tr      *tracer
	id      int64
	parent  *span
	op      int64
	name    string
	start   time.Time
	childNS atomic.Int64
}

// root opens a top-level span for op, or returns nil when the tracer is
// off or this op is in the untraced half of an A/B pair.
func (t *tracer) root(name string, op int64, on bool) *span {
	if t == nil || !on {
		return nil
	}
	return &span{tr: t, id: t.nextID.Add(1), op: op, name: name, start: time.Now()}
}

// child opens a span caused by s (nil when s is nil).
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return &span{tr: s.tr, id: s.tr.nextID.Add(1), parent: s, op: s.op, name: name, start: time.Now()}
}

// end closes the span and records it.
func (s *span) end() {
	if s == nil {
		return
	}
	now := time.Now()
	d := now.Sub(s.start).Nanoseconds()
	var parentID int64
	if s.parent != nil {
		parentID = s.parent.id
		s.parent.childNS.Add(d)
	}
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.agg[s.name]
	if a == nil {
		a = &spanStats{Name: s.name}
		t.agg[s.name] = a
	}
	a.Count++
	a.TotalMS += float64(d) / 1e6
	a.SelfMS += float64(d-s.childNS.Load()) / 1e6
	if len(t.spans) >= maxKeptSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, spanRecord{
		ID: s.id, Parent: parentID, Op: s.op, Name: s.name,
		StartNS: s.start.Sub(t.t0).Nanoseconds(), EndNS: now.Sub(t.t0).Nanoseconds(),
	})
}

// summary returns the per-name aggregates, slowest total first.
func (t *tracer) summary() []spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]spanStats, 0, len(t.agg))
	for _, a := range t.agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalMS != out[j].TotalMS {
			return out[i].TotalMS > out[j].TotalMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// count returns how many spans were recorded.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans) + t.dropped
}

// write saves the spans, the per-name summary, and any attribution the
// workload adds as one JSON document.
func (t *tracer) write(path, workload string, seed int64, extra map[string]any) error {
	sum := t.summary()
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := map[string]any{
		"workload": workload,
		"seed":     seed,
		"summary":  sum,
		"dropped":  t.dropped,
		"spans":    t.spans,
	}
	for k, v := range extra {
		doc[k] = v
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
