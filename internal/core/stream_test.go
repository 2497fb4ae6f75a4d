package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"cloudwatch/internal/netsim"
)

// TestStreamingSnapshotsMatchTruncatedRuns is the streaming
// equivalence matrix: for every cell of equivalenceMatrix × generation
// Workers 1/4/GOMAXPROCS, every epoch-prefix snapshot EpochSet.Snapshot
// serves (the replay path for evicted prefixes) renders every table,
// figure, and ablation byte-identically to a Run truncated to the same
// window, and the final snapshot byte-identically to the full-week
// run. The assembly chain the streaming engine ingests through is
// checked against the same references in
// TestIncrementalMatchesFromScratch.
func TestStreamingSnapshotsMatchTruncatedRuns(t *testing.T) {
	const epochs = 4
	workersList := []int{1, 4, runtime.GOMAXPROCS(0)}

	for _, cell := range equivalenceMatrix() {
		t.Run(fmt.Sprintf("seed%d-year%d", cell.seed, cell.year), func(t *testing.T) {
			wants := truncatedRunRenders(t, cell.seed, cell.year, epochs)
			for _, workers := range workersList {
				cfg := testConfig(cell.seed, cell.year)
				cfg.Workers = workers
				es, err := GenerateEpochs(cfg, epochs)
				if err != nil {
					t.Fatal(err)
				}
				for p := 1; p <= epochs; p++ {
					snap, err := es.Snapshot(p)
					if err != nil {
						t.Fatal(err)
					}
					if got := renderAllAnalyses(snap); got != wants[p] {
						t.Errorf("workers=%d prefix=%d: replayed snapshot differs from truncated run", workers, p)
					}
				}
			}
		})
	}
}

// TestFinalSnapshotIsTheFullStudy deep-compares the final prefix
// snapshot against the full-week run — records with their verdicts,
// per-vantage lists, and collectors, not just rendered output. The
// five-epoch chain lays records out epoch-major, so the records are
// compared as a multiset.
func TestFinalSnapshotIsTheFullStudy(t *testing.T) {
	cfg := testConfig(42, 2021)
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	es, err := GenerateEpochs(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := es.Snapshot(5)
	if err != nil {
		t.Fatal(err)
	}
	assertStudiesEquivalent(t, want, got, "final snapshot")
}

// TestWindowedRunTruncates pins WindowSec semantics: a truncated run
// holds exactly the records of the full run whose study-second falls
// inside the window, in the full run's order, and its telescope saw
// no later packet either.
func TestWindowedRunTruncates(t *testing.T) {
	cfg := testConfig(7, 2021)
	full, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eb := netsim.NewEpochs(3)
	wcfg := cfg
	wcfg.WindowSec = eb.Bound(1)
	trunc, err := Run(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	if trunc.NumRecords() == 0 || trunc.NumRecords() >= full.NumRecords() {
		t.Fatalf("truncated run has %d records (full %d)", trunc.NumRecords(), full.NumRecords())
	}
	if trunc.Tel.Packets() >= full.Tel.Packets() {
		t.Fatalf("truncated telescope saw %d packets (full %d)", trunc.Tel.Packets(), full.Tel.Packets())
	}
	// The truncated record sequence is the full sequence filtered to
	// the window.
	i := 0
next:
	for r := 0; r < trunc.NumRecords(); r++ {
		rec := recordAt(trunc, r)
		if sec, _ := netsim.StudySeconds(rec.T); sec >= wcfg.WindowSec {
			t.Fatalf("truncated run kept a record at study-second %d (window %d)", sec, wcfg.WindowSec)
		}
		for i < full.NumRecords() {
			fr := recordAt(full, i)
			i++
			if recordsEqual(rec, fr) {
				continue next
			}
		}
		t.Fatal("truncated records are not a subsequence of the full run")
	}
}

// TestGenerateEpochsValidation pins the API edges: truncation windows
// cannot combine with streaming, the epoch count is bounded with the
// valid range named in the error, and snapshot prefixes are bounded.
func TestGenerateEpochsValidation(t *testing.T) {
	cfg := testConfig(42, 2021)
	cfg.WindowSec = 3600
	if _, err := GenerateEpochs(cfg, 4); err == nil {
		t.Fatal("GenerateEpochs accepted a truncation window")
	}
	cfg.WindowSec = 0
	for _, n := range []int{0, -1, MaxEpochs + 1} {
		_, err := GenerateEpochs(cfg, n)
		if err == nil {
			t.Fatalf("GenerateEpochs accepted %d epochs", n)
		}
		if want := fmt.Sprintf("[1, %d]", MaxEpochs); !strings.Contains(err.Error(), want) {
			t.Errorf("%d epochs: error %q does not name the valid range %s", n, err, want)
		}
	}
	es, err := GenerateEpochs(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, -1, 5} {
		if _, err := es.Snapshot(p); err == nil {
			t.Errorf("Snapshot(%d) accepted", p)
		}
	}
	// Epoch accounting covers every generated record.
	total := 0
	for e := 0; e < es.NumEpochs(); e++ {
		total += es.EpochRecords(e)
	}
	snap, err := es.Snapshot(4)
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumRecords() != total {
		t.Fatalf("epoch records sum to %d, final snapshot has %d", total, snap.NumRecords())
	}
}

// TestOneEpochSnapshotIsRun pins the one-epoch edge: a single-epoch
// set's only snapshot is Run itself, record for record — through the
// block adoption at one worker and the copying assembly at four.
func TestOneEpochSnapshotIsRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := testConfig(7, 2021)
		cfg.Workers = workers
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		es, err := GenerateEpochs(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := es.Snapshot(1)
		if err != nil {
			t.Fatal(err)
		}
		assertStudiesIdentical(t, want, got, fmt.Sprintf("workers=%d", workers))
	}
}

// TestMaxEpochs runs the chain at the epoch cap, where every epoch is
// shortest: the first prefix matches the Run truncated at its bound
// and the last the full week.
func TestMaxEpochs(t *testing.T) {
	cfg := testConfig(42, 2021)
	es, err := GenerateEpochs(cfg, MaxEpochs)
	if err != nil {
		t.Fatal(err)
	}
	inc := es.Incremental()
	first, err := inc.Advance()
	if err != nil {
		t.Fatal(err)
	}
	var last *Study
	for inc.Prefix() < MaxEpochs {
		if last, err = inc.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	wcfg := cfg
	wcfg.WindowSec = es.Bound(1)
	for _, c := range []struct {
		cfg  Config
		snap *Study
	}{{wcfg, first}, {cfg, last}} {
		want, err := Run(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if renderAllAnalyses(c.snap) != renderAllAnalyses(want) {
			t.Errorf("window %d: %d-epoch chain snapshot differs from the truncated run", c.cfg.WindowSec, MaxEpochs)
		}
	}
}

// TestGenerateEpochsMoreWorkersThanActors exercises the worker clamp of
// the epoch generator: asking for more workers than actors yields one
// sink set per actor and the same study.
func TestGenerateEpochsMoreWorkersThanActors(t *testing.T) {
	cfg := testConfig(3, 2021)
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 10_000
	es, err := GenerateEpochs(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if w, actors := es.Material().Workers, len(want.Actors); w != actors {
		t.Fatalf("generation used %d workers for %d actors", w, actors)
	}
	got, err := es.Snapshot(3)
	if err != nil {
		t.Fatal(err)
	}
	assertStudiesEquivalent(t, want, got, "workers=10000")
}
