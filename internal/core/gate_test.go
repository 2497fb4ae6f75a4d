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
