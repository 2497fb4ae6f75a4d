package stream

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"cloudwatch/internal/core"
	"cloudwatch/internal/store"
)

func openTestStore(t *testing.T, fsys store.FS) *store.Store {
	t.Helper()
	st, err := store.Open(fsys, "study")
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// renderEvery renders every registered experiment of one prefix
// snapshot into a single string — the byte-identity probe.
func renderEvery(t *testing.T, eng *Engine, prefix int) string {
	t.Helper()
	snap, err := eng.Snapshot(prefix)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, name := range core.ExperimentNames() {
		out, ok := core.RenderExperiment(snap, name)
		if !ok {
			t.Fatalf("experiment %s not renderable", name)
		}
		fmt.Fprintf(&b, "== %s ==\n%s\n", name, out)
	}
	return b.String()
}

// TestOpenRecoversByteIdentical is the end-to-end crash-recovery
// matrix: generate through a store, ingest, crash, reopen — the
// recovered engine must skip generation and serve every prefix
// byte-identically to an engine that never crashed, across seeds,
// years, and worker counts.
func TestOpenRecoversByteIdentical(t *testing.T) {
	const epochs = 3
	cells := []struct {
		seed    int64
		year    int
		workers int
	}{
		{42, 2021, 1},
		{42, 2021, 4},
		{7, 2020, 1},
		{7, 2020, 4},
	}
	if testing.Short() {
		cells = cells[:2]
	}
	for _, cell := range cells {
		t.Run(fmt.Sprintf("seed%d-year%d-workers%d", cell.seed, cell.year, cell.workers), func(t *testing.T) {
			study := testStudyConfig(cell.seed, cell.year)
			study.Workers = cell.workers
			cfg := Config{Study: study, Epochs: epochs}

			// The never-crashed reference chain.
			ref, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.IngestAll(); err != nil {
				t.Fatal(err)
			}
			wants := make([]string, epochs+1)
			for p := 1; p <= epochs; p++ {
				wants[p] = renderEvery(t, ref, p)
			}

			// Cold start against an empty store: generates, persists,
			// ingests partway, then the process dies.
			fsys := store.NewMemFS()
			eng, err := Open(cfg, openTestStore(t, fsys))
			if err != nil {
				t.Fatal(err)
			}
			if eng.Recovered() {
				t.Fatal("fresh store reported a recovery")
			}
			if _, _, err := eng.IngestNext(); err != nil {
				t.Fatal(err)
			}
			if _, _, err := eng.IngestNext(); err != nil {
				t.Fatal(err)
			}
			fsys.Crash()

			// Restart: recovery skips generation, rehydrates to the
			// acknowledged prefix, and the remaining epochs ingest on
			// top — every snapshot byte-identical to the reference.
			eng2, err := Open(cfg, openTestStore(t, fsys))
			if err != nil {
				t.Fatal(err)
			}
			if !eng2.Recovered() {
				t.Fatal("second open did not recover from the store")
			}
			if got := eng2.Ingested(); got != 2 {
				t.Fatalf("rehydrated to %d epochs, want 2", got)
			}
			if err := eng2.IngestAll(); err != nil {
				t.Fatal(err)
			}
			for p := 1; p <= epochs; p++ {
				if renderEvery(t, eng2, p) != wants[p] {
					t.Errorf("prefix %d: recovered engine renders differently", p)
				}
			}

			// Snapshot range errors behave identically on the recovered
			// engine.
			if _, err := eng2.Snapshot(0); err == nil {
				t.Error("prefix 0 served on recovered engine")
			}
			if _, err := eng2.Snapshot(epochs + 1); err == nil {
				t.Error("out-of-range prefix served on recovered engine")
			}
		})
	}
}

// TestOpenRegeneratesTornStore tears the persisted segment and
// expects Open to regenerate deterministically, rewrite the store,
// and still serve byte-identical snapshots (and recover for real on
// the open after that).
func TestOpenRegeneratesTornStore(t *testing.T) {
	const epochs = 2
	cfg := Config{Study: testStudyConfig(42, 2021), Epochs: epochs}
	fsys := store.NewMemFS()
	eng, err := Open(cfg, openTestStore(t, fsys))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestAll(); err != nil {
		t.Fatal(err)
	}
	wants := make([]string, epochs+1)
	for p := 1; p <= epochs; p++ {
		wants[p] = renderEvery(t, eng, p)
	}

	seg := fsys.Bytes("study/segment")
	fsys.SetBytes("study/segment", seg[:len(seg)*2/3])

	eng2, err := Open(cfg, openTestStore(t, fsys))
	if err != nil {
		t.Fatal(err)
	}
	if eng2.Recovered() {
		t.Fatal("torn segment reported as recovered")
	}
	// The manifest survived the tear, so rehydration still reaches the
	// acknowledged prefix — on regenerated material.
	if got := eng2.Ingested(); got != epochs {
		t.Fatalf("rehydrated to %d epochs, want %d", got, epochs)
	}
	for p := 1; p <= epochs; p++ {
		if renderEvery(t, eng2, p) != wants[p] {
			t.Errorf("prefix %d: regenerated engine renders differently", p)
		}
	}

	eng3, err := Open(cfg, openTestStore(t, fsys))
	if err != nil {
		t.Fatal(err)
	}
	if !eng3.Recovered() {
		t.Fatal("rewritten store did not recover")
	}
}

func TestOpenRejectsMismatchedStore(t *testing.T) {
	fsys := store.NewMemFS()
	cfgA := Config{Study: testStudyConfig(42, 2021), Epochs: 2}
	if _, err := Open(cfgA, openTestStore(t, fsys)); err != nil {
		t.Fatal(err)
	}

	for name, cfgB := range map[string]Config{
		"different seed":        {Study: testStudyConfig(7, 2021), Epochs: 2},
		"different year":        {Study: testStudyConfig(42, 2022), Epochs: 2},
		"different epoch count": {Study: testStudyConfig(42, 2021), Epochs: 3},
	} {
		if _, err := Open(cfgB, openTestStore(t, fsys)); err == nil {
			t.Errorf("%s: store accepted", name)
		}
	}

	// Workers and WindowSec are execution parameters, not identity:
	// the store opens under any worker count.
	cfgW := cfgA
	cfgW.Study.Workers = 3
	eng, err := Open(cfgW, openTestStore(t, fsys))
	if err != nil {
		t.Fatalf("worker-count change rejected: %v", err)
	}
	if !eng.Recovered() {
		t.Error("worker-count change forced regeneration")
	}
}

// TestIngestPersistFailureSurfaces verifies the satellite contract:
// when the manifest update fails, IngestNext returns the error (the
// HTTP layer turns it into a non-200) while the in-memory snapshot
// stays published and the durable cursor stays at the old prefix.
func TestIngestPersistFailureSurfaces(t *testing.T) {
	errInjected := errors.New("injected fault")
	fsys := store.NewMemFS()
	cfg := Config{Study: testStudyConfig(42, 2021), Epochs: 2}
	eng, err := Open(cfg, openTestStore(t, fsys))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.IngestNext(); err != nil {
		t.Fatal(err)
	}

	fsys.SyncHook = func(string) error { return errInjected }
	p, ok, err := eng.IngestNext()
	if !errors.Is(err, errInjected) {
		t.Fatalf("persist failure surfaced as %v", err)
	}
	if p != 2 || !ok {
		t.Fatalf("p=%d ok=%v after persist failure; in-memory ingest should stand", p, ok)
	}
	if _, err := eng.Snapshot(2); err != nil {
		t.Errorf("published snapshot unavailable after persist failure: %v", err)
	}
	fsys.SyncHook = nil
	fsys.Crash()

	// Restart sees only the acknowledged prefix.
	eng2, err := Open(cfg, openTestStore(t, fsys))
	if err != nil {
		t.Fatal(err)
	}
	if got := eng2.Ingested(); got != 1 {
		t.Fatalf("rehydrated to %d, want the acknowledged 1", got)
	}
}

// TestConcurrentIngestAndRecoveryReads hammers a recovered engine
// with concurrent ingests, snapshot reads, and sweeps — the -race
// target for the durability path.
func TestConcurrentIngestAndRecoveryReads(t *testing.T) {
	const epochs = 4
	cfg := Config{Study: testStudyConfig(42, 2021), Epochs: epochs}
	fsys := store.NewMemFS()
	eng, err := Open(cfg, openTestStore(t, fsys))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.IngestNext(); err != nil {
		t.Fatal(err)
	}
	fsys.Crash()
	eng2, err := Open(cfg, openTestStore(t, fsys))
	if err != nil {
		t.Fatal(err)
	}
	if !eng2.Recovered() {
		t.Fatal("not recovered")
	}

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		if err := eng2.IngestAll(); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			n := eng2.Ingested()
			if n == 0 {
				continue
			}
			if _, err := eng2.Snapshot(n); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if eng2.Ingested() == 0 {
				continue
			}
			if _, err := eng2.Sweep(SweepRequest{KMin: 1, KMax: 2}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if got := eng2.Ingested(); got != epochs {
		t.Fatalf("ingested %d of %d", got, epochs)
	}
}

// TestEpochCountBounded checks that New and Open bound the epoch count
// with the valid range in the error, before generating anything or
// writing the store.
func TestEpochCountBounded(t *testing.T) {
	want := fmt.Sprintf("[1, %d]", core.MaxEpochs)
	for _, n := range []int{-1, core.MaxEpochs + 1} {
		cfg := Config{Study: testStudyConfig(42, 2021), Epochs: n}
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("New with %d epochs: error %v should name the range %s", n, err, want)
		}
		if _, err := Open(cfg, openTestStore(t, store.NewMemFS())); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Open with %d epochs: error %v should name the range %s", n, err, want)
		}
	}
}
