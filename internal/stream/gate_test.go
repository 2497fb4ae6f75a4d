package stream

import (
	"maps"
	"runtime"
	"testing"

	"cloudwatch/internal/obs"
	"cloudwatch/internal/store"
)

// stageCounts returns the process tracer's all-time span count per
// stage.
func stageCounts() map[string]uint64 {
	out := map[string]uint64{}
	for _, s := range obs.DefaultTracer().Summary() {
		out[s.Stage] = s.Count
	}
	return out
}

// checkSpans asserts the spans recorded since before, stage by stage;
// stages absent from want must record none.
func checkSpans(t *testing.T, what string, before, want map[string]uint64) {
	t.Helper()
	got := map[string]uint64{}
	for stage, n := range stageCounts() {
		if d := n - before[stage]; d > 0 {
			got[stage] = d
		}
	}
	maps.DeleteFunc(want, func(_ string, n uint64) bool { return n == 0 })
	if !maps.Equal(got, want) {
		t.Errorf("%s: spans per stage %v, want %v", what, got, want)
	}
}

// storeCounters reads the durable store's write counters.
func storeCounters() (frames, fsyncs, bytes int64) {
	r := obs.Default()
	return r.Counter("store_frames_written_total", "").Value(),
		r.Counter("store_fsync_total", "").Value(),
		r.Counter("store_bytes_written_total", "").Value()
}

// TestIngestCounterGate is the deterministic gate on the cost of
// observability and durability across one streamed week. Spans are per
// stage invocation, never per record, and a span allocates nothing, so
// tracing costs a fixed handful of clock reads per epoch; the store
// writes a fixed number of frames, fsyncs and bytes. Every count is
// exact, and the heap cost of the durable ingests is bounded, so a span
// or an allocation per record fails here instead of showing up as a
// throughput ratio on a noisy runner.
//
// Not parallel: the tracer, the metrics registry and MemStats are all
// process-wide.
func TestIngestCounterGate(t *testing.T) {
	const (
		epochs = 8
		// The segment of the study below: config, payload dictionary
		// and layout frames, then one frame per epoch. The dictionary
		// holds only the study's own payloads, so the length is a
		// function of the configuration alone.
		segmentFrames = 3 + epochs
		segmentBytes  = 10436924
		// The manifest {"version":1,"ingested":N}\n for one-digit N.
		manifestBytes = 27
		// Heap budget of the eight durable ingests once the process is
		// warm: about 2,700 objects and 8.8 MB measured (2,650-2,790
		// objects at GOMAXPROCS 1-8, 8.78 MB under the race detector).
		// The object count grows with GOMAXPROCS (verdict judging fans
		// out per Advance), so its budget keeps wide headroom.
		maxIngestMallocs = 4000
		maxIngestBytes   = 9 << 20
	)
	// The root package's QuickStudy size, with one worker so the
	// heap cost is a function of the configuration alone.
	study := testStudyConfig(42, 2021)
	study.Scale = 0.35
	study.Workers = 1
	cfg := Config{Study: study, Epochs: epochs}

	if n := testing.AllocsPerRun(1000, func() { obs.StartStage(obs.StageTableRender).End() }); n != 0 {
		t.Errorf("StartStage(...).End() allocates %.1f objects, want 0", n)
	}

	// In-memory engine: one generation span, then one assembly span
	// per ingest. It also warms the process-wide memos for the durable
	// run measured below.
	before := stageCounts()
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkSpans(t, "New", before, map[string]uint64{obs.StageEpochGeneration: 1})
	before = stageCounts()
	if err := eng.IngestAll(); err != nil {
		t.Fatal(err)
	}
	checkSpans(t, "in-memory week", before, map[string]uint64{
		obs.StageIncrementalAssembly: epochs,
	})

	// Durable engine on a RAM store: Open adds the segment write's
	// persist span, and every ingest adds the manifest's.
	fs := store.NewMemFS()
	st := openTestStore(t, fs)
	before = stageCounts()
	frames0, fsyncs0, bytes0 := storeCounters()
	deng, err := Open(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	defer deng.Close()
	checkSpans(t, "Open", before, map[string]uint64{
		obs.StageEpochGeneration: 1,
		obs.StageStorePersist:    1,
	})
	frames1, fsyncs1, bytes1 := storeCounters()
	segment := int64(len(fs.Bytes("study/segment")))
	if got := frames1 - frames0; got != segmentFrames {
		t.Errorf("Open wrote %d frames, want %d", got, segmentFrames)
	}
	if got := fsyncs1 - fsyncs0; got != 1 {
		t.Errorf("Open issued %d fsyncs, want 1", got)
	}
	if segment != segmentBytes {
		t.Errorf("segment holds %d bytes, want %d", segment, segmentBytes)
	}
	if got := bytes1 - bytes0; got != segment {
		t.Errorf("Open wrote %d bytes, segment holds %d", got, segment)
	}

	before = stageCounts()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := deng.IngestAll(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	checkSpans(t, "durable week", before, map[string]uint64{
		obs.StageIncrementalAssembly: epochs,
		obs.StageStorePersist:        epochs,
	})
	frames2, fsyncs2, bytes2 := storeCounters()
	if got := frames2 - frames1; got != 0 {
		t.Errorf("ingests wrote %d frames, want 0", got)
	}
	if got := fsyncs2 - fsyncs1; got != epochs {
		t.Errorf("ingests issued %d fsyncs, want %d", got, epochs)
	}
	if got := bytes2 - bytes1; got != epochs*manifestBytes {
		t.Errorf("ingests wrote %d bytes, want %d", got, epochs*manifestBytes)
	}
	mallocs, heap := m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	t.Logf("segment %d bytes; durable week: %d mallocs, %d bytes, %d repairs", segment, mallocs, heap, deng.inc.Repairs())
	if mallocs > maxIngestMallocs {
		t.Errorf("durable week made %d heap objects, budget %d", mallocs, maxIngestMallocs)
	}
	if heap > maxIngestBytes {
		t.Errorf("durable week allocated %d bytes, budget %d", heap, maxIngestBytes)
	}
}
