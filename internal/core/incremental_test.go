package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"cloudwatch/internal/netsim"
)

// equivalenceCell is one (seed, year) cell of the prefix-equivalence
// matrix; flips marks a cell whose chain must flip a verdict.
type equivalenceCell struct {
	seed  int64
	year  int
	flips bool
}

// equivalenceMatrix returns the cells the prefix-equivalence suite
// sweeps: seeds 42/7 × years 2020–2022 (-short keeps one), plus a seed
// whose four-epoch chain moves verdict anchors onto a different
// (transport, port) and flips verdicts.
func equivalenceMatrix() []equivalenceCell {
	var cells []equivalenceCell
	seeds, years := []int64{42, 7}, []int{2020, 2021, 2022}
	if testing.Short() {
		seeds, years = []int64{42}, []int{2021}
	}
	for _, seed := range seeds {
		for _, year := range years {
			cells = append(cells, equivalenceCell{seed: seed, year: year})
		}
	}
	return append(cells, equivalenceCell{seed: 3, year: 2021, flips: true})
}

var truncatedRenders = struct {
	sync.Mutex
	m map[string][]string
}{m: map[string][]string{}}

// truncatedRunRenders returns, indexed by prefix 1..epochs, the
// rendered analyses of a from-scratch Run truncated to each epoch
// bound (the last prefix is the full week). Each Run is checked record
// by record against the reference generator in
// TestGenerationEquivalence. The references are built once per cell at
// the default worker count and shared by the suites that compare
// against them, so every comparison also crosses worker counts.
func truncatedRunRenders(t *testing.T, seed int64, year, epochs int) []string {
	t.Helper()
	key := fmt.Sprintf("%d/%d/%d", seed, year, epochs)
	truncatedRenders.Lock()
	defer truncatedRenders.Unlock()
	if wants, ok := truncatedRenders.m[key]; ok {
		return wants
	}
	cfg := testConfig(seed, year)
	eb := netsim.NewEpochs(epochs)
	wants := make([]string, epochs+1)
	for p := 1; p <= epochs; p++ {
		bcfg := cfg
		if p < epochs {
			bcfg.WindowSec = eb.Bound(p)
		}
		batch, err := Run(bcfg)
		if err != nil {
			t.Fatal(err)
		}
		wants[p] = renderAllAnalyses(batch)
	}
	for p := 2; p <= epochs; p++ {
		if wants[p] == wants[p-1] {
			t.Fatalf("prefixes %d and %d render identically — the windows are not truncating", p-1, p)
		}
	}
	truncatedRenders.m[key] = wants
	return wants
}

// TestIncrementalMatchesFromScratch is the incremental-assembly
// equivalence matrix: for every cell × generation Workers
// 1/4/GOMAXPROCS, every snapshot of the chain the streaming engine
// ingests through renders every table, figure, and ablation
// byte-identically to a from-scratch Run truncated to the same prefix
// window (the final prefix to the full-week run). Every chain snapshot
// is rendered only after the whole chain is assembled, so the
// comparison also proves later appends (and verdict flips) never
// disturb an earlier published snapshot (the chain shares column
// backing arrays). The replay path for evicted prefixes is checked
// against the same references in TestStreamingSnapshotsMatchTruncatedRuns.
func TestIncrementalMatchesFromScratch(t *testing.T) {
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

				inc := es.Incremental()
				if inc.Prefix() != 0 || inc.Tip() != nil {
					t.Fatal("fresh assembler is not at prefix 0")
				}
				chain := make([]*Study, 0, epochs)
				for p := 1; p <= epochs; p++ {
					snap, err := inc.Advance()
					if err != nil {
						t.Fatal(err)
					}
					if inc.Prefix() != p || inc.Tip() != snap {
						t.Fatalf("after Advance #%d: Prefix=%d, Tip==snap %v", p, inc.Prefix(), inc.Tip() == snap)
					}
					chain = append(chain, snap)
				}
				if _, err := inc.Advance(); err == nil {
					t.Fatal("Advance past the last epoch should error")
				}
				if r := inc.Repairs(); cell.flips && r == 0 {
					t.Fatalf("workers=%d: the chain flipped no verdict", workers)
				}

				for p := 1; p <= epochs; p++ {
					if got := renderAllAnalyses(chain[p-1]); got != wants[p] {
						t.Errorf("workers=%d prefix=%d: incremental analyses differ from truncated from-scratch run", workers, p)
					}
				}
			}
		})
	}
}

// TestIncrementalWindowedConfig pins the snapshot configs the chain
// stamps: non-final prefixes carry the truncation window of their
// bound, the final prefix is the full week.
func TestIncrementalWindowedConfig(t *testing.T) {
	es, err := GenerateEpochs(testConfig(42, 2021), 3)
	if err != nil {
		t.Fatal(err)
	}
	inc := es.Incremental()
	for p := 1; p <= 3; p++ {
		snap, err := inc.Advance()
		if err != nil {
			t.Fatal(err)
		}
		if p < 3 && snap.Cfg.WindowSec == 0 {
			t.Errorf("prefix %d snapshot claims the full week", p)
		}
		if p == 3 && snap.Cfg.WindowSec != 0 {
			t.Errorf("final snapshot carries a truncation window (%d)", snap.Cfg.WindowSec)
		}
	}
}
