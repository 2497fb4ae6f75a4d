package stream

import (
	"strings"
	"sync"
	"testing"

	"cloudwatch/internal/core"
	"cloudwatch/internal/memo"
)

// testStudyConfig is the scaled-down study the package tests stream
// (mirrors internal/core's testConfig).
func testStudyConfig(seed int64, year int) core.Config {
	cfg := core.DefaultConfig(seed, year)
	cfg.Deploy.TelescopeSlash24s = 32
	cfg.Deploy.HoneytrapPerCloud = 16
	cfg.Deploy.HurricaneIPs = 16
	cfg.Scale = 0.4
	return cfg
}

func newTestEngine(t *testing.T, epochs int) *Engine {
	t.Helper()
	eng, err := New(Config{Study: testStudyConfig(42, 2021), Epochs: epochs})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestEngineIngestLifecycle(t *testing.T) {
	eng := newTestEngine(t, 4)
	if eng.NumEpochs() != 4 {
		t.Fatalf("NumEpochs = %d, want 4", eng.NumEpochs())
	}
	if eng.Ingested() != 0 {
		t.Fatalf("fresh engine reports %d ingested", eng.Ingested())
	}
	if _, err := eng.Snapshot(1); err == nil {
		t.Fatal("Snapshot before ingest should fail")
	}
	for want := 1; want <= 4; want++ {
		p, ok, err := eng.IngestNext()
		if err != nil || !ok || p != want {
			t.Fatalf("IngestNext = (%d, %v, %v), want (%d, true, nil)", p, ok, err, want)
		}
	}
	if _, ok, _ := eng.IngestNext(); ok {
		t.Fatal("IngestNext past the last epoch should report done")
	}
	// Prefix record counts are monotonically non-decreasing and the
	// final snapshot holds the whole week.
	prev := 0
	total := 0
	for e := 0; e < 4; e++ {
		total += eng.EpochRecords(e)
	}
	for p := 1; p <= 4; p++ {
		snap, err := eng.Snapshot(p)
		if err != nil {
			t.Fatal(err)
		}
		if snap.NumRecords() < prev {
			t.Fatalf("prefix %d shrank: %d < %d", p, snap.NumRecords(), prev)
		}
		prev = snap.NumRecords()
	}
	if prev != total {
		t.Fatalf("final snapshot has %d records, epoch sum is %d", prev, total)
	}
}

func TestEngineSnapshotWindowedConfig(t *testing.T) {
	eng := newTestEngine(t, 3)
	if err := eng.IngestAll(); err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= 3; p++ {
		snap, err := eng.Snapshot(p)
		if err != nil {
			t.Fatal(err)
		}
		if p < 3 && snap.Cfg.WindowSec == 0 {
			t.Fatalf("prefix %d snapshot claims the full week", p)
		}
		if p == 3 && snap.Cfg.WindowSec != 0 {
			t.Fatalf("final snapshot carries a truncation window (%d)", snap.Cfg.WindowSec)
		}
	}
}

func TestSweepGridAndValidation(t *testing.T) {
	eng := newTestEngine(t, 3)
	if err := eng.IngestAll(); err != nil {
		t.Fatal(err)
	}

	res, err := eng.Sweep(SweepRequest{Tables: []string{"table2", "table5"}, KMin: 1, KMax: 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * 4 * 2; res.Renders != want || len(res.Cells) != want {
		t.Fatalf("sweep rendered %d cells, want %d", len(res.Cells), want)
	}
	// Every cell must match a direct AtK render on the same snapshot.
	for _, cell := range res.Cells[:8] {
		snap, err := eng.Snapshot(cell.Prefix)
		if err != nil {
			t.Fatal(err)
		}
		want, ok := core.RenderExperimentAtK(snap, cell.Table, cell.K)
		if !ok || cell.Output != want {
			t.Fatalf("sweep cell (p=%d k=%d %s) differs from direct render", cell.Prefix, cell.K, cell.Table)
		}
	}
	// The K=3 grid line must equal the un-parameterized tables.
	for _, cell := range res.Cells {
		if cell.K != core.TopK || cell.Table != "table2" {
			continue
		}
		snap, _ := eng.Snapshot(cell.Prefix)
		if want := snap.Table2().Render(); cell.Output != want {
			t.Fatalf("K=3 sweep cell differs from Table2 at prefix %d", cell.Prefix)
		}
	}

	// Defaults: all ingested prefixes, K=1..10, table2+table5.
	res, err = eng.Sweep(SweepRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * 10 * 2; res.Renders != want {
		t.Fatalf("default sweep rendered %d, want %d", res.Renders, want)
	}

	// Rendered cells state the width actually compared: K != TopK
	// relabels the top-K characteristics, K == TopK keeps the paper's
	// fixed "Top 3" names.
	for _, cell := range res.Cells {
		if cell.Table != "table2" {
			continue
		}
		switch cell.K {
		case 3:
			if strings.Contains(cell.Output, "Top 4") || !strings.Contains(cell.Output, "Top 3 AS") {
				t.Fatalf("K=3 cell mislabeled:\n%s", cell.Output)
			}
		case 4:
			if !strings.Contains(cell.Output, "Top 4 AS") || strings.Contains(cell.Output, "Top 3 AS") {
				t.Fatalf("K=4 cell still labeled Top 3:\n%s", cell.Output)
			}
		}
	}

	// Duplicate prefixes collapse instead of double-counting renders.
	res, err = eng.Sweep(SweepRequest{Tables: []string{"table2"}, KMin: 1, KMax: 2, Prefixes: []int{2, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Renders != 2 {
		t.Fatalf("duplicate-prefix sweep rendered %d, want 2", res.Renders)
	}

	// Each K bound defaults independently, per the field docs.
	res, err = eng.Sweep(SweepRequest{Tables: []string{"table2"}, KMax: 2, Prefixes: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Renders != 2 { // K = 1..2
		t.Fatalf("kmax-only sweep rendered %d, want 2", res.Renders)
	}
	res, err = eng.Sweep(SweepRequest{Tables: []string{"table2"}, KMin: 9, Prefixes: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Renders != 2 { // K = 9..10
		t.Fatalf("kmin-only sweep rendered %d, want 2", res.Renders)
	}

	// Validation errors name the valid values.
	if _, err := eng.Sweep(SweepRequest{Tables: []string{"table9"}}); err == nil || !strings.Contains(err.Error(), "table10") {
		t.Fatalf("bad table error should list valid tables, got %v", err)
	}
	if _, err := eng.Sweep(SweepRequest{KMin: 5, KMax: 2}); err == nil {
		t.Fatal("inverted K range should fail")
	}
	if _, err := eng.Sweep(SweepRequest{Prefixes: []int{9}}); err == nil {
		t.Fatal("out-of-range prefix should fail")
	}
}

// TestSnapshotLRUEvictionFallback covers the non-tip snapshot path:
// prefixes served from the LRU are the chain-assembled snapshots, and
// a prefix that has fallen out of the LRU is replayed through a fresh
// assembly chain and renders byte-identically to the chain snapshot it
// replaced.
func TestSnapshotLRUEvictionFallback(t *testing.T) {
	eng := newTestEngine(t, 4)
	if err := eng.IngestAll(); err != nil {
		t.Fatal(err)
	}
	// Reference renders from the chain snapshots, while still cached.
	want := make(map[int]string)
	for p := 1; p <= 4; p++ {
		snap, err := eng.Snapshot(p)
		if err != nil {
			t.Fatal(err)
		}
		want[p] = snap.Table2().Render() + snap.Table5().Render()
	}
	evictAll(eng)
	for p := 1; p <= 4; p++ {
		snap, err := eng.Snapshot(p)
		if err != nil {
			t.Fatalf("prefix %d after eviction: %v", p, err)
		}
		if got := snap.Table2().Render() + snap.Table5().Render(); got != want[p] {
			t.Fatalf("prefix %d reassembled snapshot renders differently", p)
		}
	}
	// The reassembled non-tip prefixes are cached again: a second read
	// returns the same *Study, not another replay, and allocates
	// nothing (the serving hot path).
	first, _ := eng.Snapshot(2)
	second, _ := eng.Snapshot(2)
	if first != second {
		t.Fatal("reassembled snapshot was not cached")
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = eng.Snapshot(2) }); n != 0 {
		t.Fatalf("%v allocs per snapshot-LRU hit, want 0", n)
	}
}

// evictAll empties the engine's snapshot LRU, as if every non-tip
// prefix had fallen out of it.
func evictAll(eng *Engine) {
	eng.snaps = memo.NewLRU[int, *core.Study](snapCacheCap, mSnapEvictions, mSnapEntries)
}

// TestConcurrentSnapshotMissesShareOneReplay: concurrent requests for
// one evicted prefix share a single chain replay, so every caller gets
// the same *core.Study and only one of them counts as a miss.
func TestConcurrentSnapshotMissesShareOneReplay(t *testing.T) {
	eng := newTestEngine(t, 4)
	if err := eng.IngestAll(); err != nil {
		t.Fatal(err)
	}
	evictAll(eng)
	const n = 8
	misses := mSnapMisses.Value()
	snaps := make([]*core.Study, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			snap, err := eng.Snapshot(3)
			if err != nil {
				t.Error(err)
			}
			snaps[i] = snap
		}(i)
	}
	close(start)
	wg.Wait()
	for i, snap := range snaps {
		if snap == nil || snap != snaps[0] {
			t.Fatalf("caller %d got a different snapshot than caller 0", i)
		}
	}
	if got := mSnapMisses.Value() - misses; got != 1 {
		t.Fatalf("%d snapshot-LRU misses for one evicted prefix, want 1", got)
	}
}

// TestConcurrentSweepAndIngest hammers the engine from several
// goroutines while ingestion advances — the serving pattern — and must
// be race-clean.
func TestConcurrentSweepAndIngest(t *testing.T) {
	eng := newTestEngine(t, 4)
	if _, ok, err := eng.IngestNext(); !ok || err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				if _, err := eng.Sweep(SweepRequest{Tables: []string{"table2"}, KMin: 1, KMax: 3, Prefixes: []int{1}}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := eng.IngestAll(); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	if eng.Ingested() != 4 {
		t.Fatalf("ingested %d, want 4", eng.Ingested())
	}
}
