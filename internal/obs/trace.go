package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Stage tracing: cheap span timers around the hot pipeline stages
// (epoch generation, incremental assembly, verdict repair, store
// persist, table render). A span costs one time.Now at start and, at
// End, one histogram observation plus one slot write in a bounded ring
// of recent spans — nothing allocates after the ring fills. Spans are
// per-stage-invocation (per epoch, per render), never per record, so
// tracing is always on. Counter gates in internal/core and
// internal/stream pin the span count per stage and zero allocations
// per span.

// Stage names used across the pipeline. Instrumentation sites and the
// docs both reference these constants so the names cannot drift.
const (
	StageEpochGeneration     = "epoch_generation"     // core generator pass (GenerateEpochs, Run)
	StageIncrementalAssembly = "incremental_assembly" // core.Incremental.Advance: one epoch folded in (also Run, Snapshot replays)
	StageVerdictRepair       = "verdict_repair"       // core.Incremental.repairFlips: in-place verdict repair
	StageStorePersist        = "store_persist"        // store segment write / manifest advance
	StageTableRender         = "table_render"         // core.RenderExperiment(AtK): one table or figure
)

// StageHistogramName is the histogram family every span observes into,
// labeled by stage.
const StageHistogramName = "stage_duration_seconds"

// SpanRecord is one finished span in the ring.
type SpanRecord struct {
	Stage      string    `json:"stage"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
}

// stageAgg is the all-time aggregate of one stage (the ring only keeps
// recent spans; totals never drop).
type stageAgg struct {
	count   uint64
	totalNS int64
	maxNS   int64
}

// Tracer owns the ring of recent spans and the per-stage aggregates.
type Tracer struct {
	mu    sync.Mutex
	ring  []SpanRecord
	next  int
	total uint64
	aggs  map[string]*stageAgg
}

// DefaultTraceCapacity bounds the default tracer's ring: enough to
// hold a full default sweep's renders (8 prefixes × 10 K × 2 tables)
// plus the ingest chain around it.
const DefaultTraceCapacity = 512

// NewTracer returns a tracer retaining the most recent capacity spans.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]SpanRecord, 0, capacity), aggs: map[string]*stageAgg{}}
}

var defaultTracer = NewTracer(DefaultTraceCapacity)

// DefaultTracer returns the process-wide tracer GET /v1/trace and the
// -trace CLI flag read.
func DefaultTracer() *Tracer { return defaultTracer }

func (t *Tracer) record(rec SpanRecord) {
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, rec)
	} else {
		t.ring[t.next] = rec
	}
	t.next = (t.next + 1) % cap(t.ring)
	t.total++
	agg := t.aggs[rec.Stage]
	if agg == nil {
		agg = &stageAgg{}
		t.aggs[rec.Stage] = agg
	}
	agg.count++
	ns := int64(rec.DurationMS * 1e6)
	agg.totalNS += ns
	if ns > agg.maxNS {
		agg.maxNS = ns
	}
	t.mu.Unlock()
}

// Recent returns the retained spans, oldest first.
func (t *Tracer) Recent() []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) < cap(t.ring) {
		return append([]SpanRecord(nil), t.ring...)
	}
	out := make([]SpanRecord, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	return append(out, t.ring[:t.next]...)
}

// Total returns how many spans were ever recorded (retained or not).
func (t *Tracer) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Capacity returns the ring bound.
func (t *Tracer) Capacity() int { return cap(t.ring) }

// StageSummary is the per-stage breakdown: all-time count/total/mean/
// max from the aggregates, median over the spans still in the ring.
type StageSummary struct {
	Stage    string  `json:"stage"`
	Count    uint64  `json:"count"`
	TotalMS  float64 `json:"total_ms"`
	MeanMS   float64 `json:"mean_ms"`
	MedianMS float64 `json:"median_ms"` // over retained spans only
	MaxMS    float64 `json:"max_ms"`
}

// Summary returns one row per stage seen so far, sorted by descending
// total time — the stage eating the run floats to the top.
func (t *Tracer) Summary() []StageSummary {
	recent := t.Recent()
	byStage := map[string][]float64{}
	for _, rec := range recent {
		byStage[rec.Stage] = append(byStage[rec.Stage], rec.DurationMS)
	}
	t.mu.Lock()
	out := make([]StageSummary, 0, len(t.aggs))
	for stage, agg := range t.aggs {
		s := StageSummary{
			Stage:   stage,
			Count:   agg.count,
			TotalMS: float64(agg.totalNS) / 1e6,
			MaxMS:   float64(agg.maxNS) / 1e6,
		}
		if agg.count > 0 {
			s.MeanMS = s.TotalMS / float64(agg.count)
		}
		out = append(out, s)
	}
	t.mu.Unlock()
	for i := range out {
		if ds := byStage[out[i].Stage]; len(ds) > 0 {
			sort.Float64s(ds)
			out[i].MedianMS = ds[len(ds)/2]
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalMS != out[j].TotalMS {
			return out[i].TotalMS > out[j].TotalMS
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}

// WriteSummary prints the per-stage breakdown as one `trace:` line per
// stage — the -trace CLI output.
func (t *Tracer) WriteSummary(w io.Writer) {
	rows := t.Summary()
	if len(rows) == 0 {
		fmt.Fprintln(w, "trace: no spans recorded")
		return
	}
	fmt.Fprintf(w, "trace: per-stage breakdown (%d spans, newest %d retained)\n", t.Total(), len(t.Recent()))
	for _, r := range rows {
		fmt.Fprintf(w, "trace: stage=%s count=%d total_ms=%.3f mean_ms=%.3f median_ms=%.3f max_ms=%.3f\n",
			r.Stage, r.Count, r.TotalMS, r.MeanMS, r.MedianMS, r.MaxMS)
	}
}

// Span is one in-flight stage timer, opened by StartStage.
type Span struct {
	tracer *Tracer
	hist   *Histogram
	stage  string
	start  time.Time
}

// stageHists caches the per-stage histogram handle so StartStage does
// not resolve through the registry maps on every span.
var (
	stageHistMu sync.Mutex
	stageHists  = map[string]*Histogram{}
)

func stageHistogram(stage string) *Histogram {
	stageHistMu.Lock()
	h := stageHists[stage]
	if h == nil {
		h = Default().Histogram(StageHistogramName,
			"Latency of one pipeline stage invocation.", nil, L("stage", stage))
		stageHists[stage] = h
	}
	stageHistMu.Unlock()
	return h
}

// StartStage opens a span on the default tracer; End records it into
// the stage_duration_seconds histogram and the trace ring.
func StartStage(stage string) Span {
	return Span{tracer: defaultTracer, hist: stageHistogram(stage), stage: stage, start: time.Now()}
}

// End finishes the span.
func (sp Span) End() {
	d := time.Since(sp.start)
	sp.hist.ObserveDuration(d)
	sp.tracer.record(SpanRecord{Stage: sp.stage, Start: sp.start, DurationMS: d.Seconds() * 1e3})
}
