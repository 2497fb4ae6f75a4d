package core

import (
	"runtime"
	"testing"

	"cloudwatch/internal/obs"
)

// genCost is what one GenerateEpochs call allocated (heap objects and
// heap bytes, from runtime.MemStats deltas around the call) and how
// many spans it recorded.
type genCost struct {
	mallocs, bytes, spans uint64
	records               int
}

func measureGenerate(t *testing.T, cfg Config, epochs int) genCost {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	spans := obs.DefaultTracer().Total()
	es, err := GenerateEpochs(cfg, epochs)
	spans = obs.DefaultTracer().Total() - spans
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return genCost{
		mallocs: after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
		spans:   spans,
		records: es.NumRecords(),
	}
}

// TestEpochGenerationAllocGate is the deterministic gate on the cost
// of epoch partitioning. One worker makes the sink layout a function
// of the configuration alone, so heap objects and bytes repeat to
// within a few objects run over run. Eight-epoch generation is priced
// against one-epoch generation of the same study (the Run path):
//   - the bytes ratio catches sinks that lose their pre-sizing and
//     regrow geometrically;
//   - the bytes-per-record budget catches columns that lose the shared
//     per-worker arena;
//   - the mallocs ratio catches per-probe or per-epoch allocations in
//     the dispatch path;
//   - one span per call catches a span opened per probe, which
//     allocates nothing once the trace ring is full.
//
// The bounds leave room for the race detector, under which mallocs
// run about 8% higher on both sides. Not parallel: MemStats deltas
// and the tracer total are process-wide.
func TestEpochGenerationAllocGate(t *testing.T) {
	const (
		maxBytesRatio     = 1.10
		maxMallocRatio    = 1.30
		maxBytesPerRecord = 200
	)
	cfg := testConfig(42, 2021)
	cfg.Scale = 0.35 // the root package's QuickStudy size
	cfg.Workers = 1
	// Warm the process-wide memos (payload interner, stream states) so
	// neither measured side pays for them.
	measureGenerate(t, cfg, 8)
	one := measureGenerate(t, cfg, 1)
	eight := measureGenerate(t, cfg, 8)
	if one.records != eight.records {
		t.Fatalf("records: 1 epoch %d, 8 epochs %d", one.records, eight.records)
	}
	mallocRatio := float64(eight.mallocs) / float64(one.mallocs)
	bytesRatio := float64(eight.bytes) / float64(one.bytes)
	perRecord := float64(eight.bytes) / float64(eight.records)
	t.Logf("records %d; mallocs %d -> %d (x%.3f); bytes %d -> %d (x%.3f); %.1f B/record at 8 epochs",
		eight.records, one.mallocs, eight.mallocs, mallocRatio, one.bytes, eight.bytes, bytesRatio, perRecord)
	if one.spans != 1 || eight.spans != 1 {
		t.Errorf("spans per GenerateEpochs: 1 epoch %d, 8 epochs %d; want 1 each", one.spans, eight.spans)
	}
	if bytesRatio > maxBytesRatio {
		t.Errorf("8-epoch/1-epoch bytes x%.3f > x%.2f: epoch sinks regrow instead of appending into pre-sized columns", bytesRatio, maxBytesRatio)
	}
	if mallocRatio > maxMallocRatio {
		t.Errorf("8-epoch/1-epoch mallocs x%.3f > x%.2f: epoch partitioning allocates per probe or per sink", mallocRatio, maxMallocRatio)
	}
	if perRecord > maxBytesPerRecord {
		t.Errorf("8-epoch generation %.1f B/record > %d: columns no longer share the worker arena", perRecord, maxBytesPerRecord)
	}
}

// renderCost is what rendering every experiment once allocated (heap
// objects and heap bytes, from runtime.MemStats deltas).
type renderCost struct{ mallocs, bytes uint64 }

func measureRenderAll(t *testing.T, s *Study) renderCost {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, name := range ExperimentNames() {
		if _, ok := RenderExperiment(s, name); !ok {
			t.Fatalf("experiment %s did not render", name)
		}
	}
	runtime.ReadMemStats(&after)
	return renderCost{mallocs: after.Mallocs - before.Mallocs, bytes: after.TotalAlloc - before.TotalAlloc}
}

// TestRenderAllocGate is the deterministic gate on the cold cost of the
// render layer: all twelve experiments rendered once on a fresh study
// of the root package's QuickStudy size, one worker, so every memo
// (views, summaries, families, telescope series) is built inside the
// measurement. The budgets catch a vantage view build that goes back
// to per-record string keys or per-record source-address sets, or
// that allocates its scratch counters per view.
//
// Measured: 71,700 to 73,500 objects and 13.8 to 13.9 MB at
// GOMAXPROCS 1 to 4, and up to 78,600 objects and 14.3 MB under the
// race detector, whose sync.Pool drops scratch counters at random.
// Scratch counters allocated per view cost about 84,500 objects;
// per-record source sets and string keys about 97,000 objects and
// 18.8 MB. Not parallel: MemStats deltas are process-wide.
func TestRenderAllocGate(t *testing.T) {
	const (
		maxMallocs = 82_000
		maxBytes   = 16 << 20
	)
	cfg := testConfig(42, 2021)
	cfg.Scale = 0.35 // the root package's QuickStudy size
	cfg.Workers = 1
	run := func() *Study {
		s, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Warm the process-wide payload facts on a first study, then
	// measure a second one whose own memos are all cold.
	measureRenderAll(t, run())
	s := run()
	got := measureRenderAll(t, s)
	t.Logf("%d records: rendering all %d experiments cold allocated %d objects, %d bytes",
		s.NumRecords(), len(ExperimentNames()), got.mallocs, got.bytes)
	if got.mallocs > maxMallocs {
		t.Errorf("cold render of every experiment allocated %d objects > %d", got.mallocs, maxMallocs)
	}
	if got.bytes > maxBytes {
		t.Errorf("cold render of every experiment allocated %d bytes > %d", got.bytes, maxBytes)
	}
}
