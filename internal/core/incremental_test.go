package core

import (
	"fmt"
	"runtime"
	"testing"
)

// TestIncrementalMatchesFromScratch is the incremental-assembly
// equivalence matrix: for seeds 42/7 × years 2020–2022 × generation
// Workers 1/4/GOMAXPROCS, every snapshot the incremental chain
// produces renders every table, figure, and ablation byte-identically
// to a from-scratch Run truncated to the same prefix window. Every
// chain snapshot is rendered only after the whole chain is assembled,
// so the comparison also proves later appends never disturb an earlier
// published snapshot (the chain shares column backing arrays).
func TestIncrementalMatchesFromScratch(t *testing.T) {
	const epochs = 4
	workersList := []int{1, 4, runtime.GOMAXPROCS(0)}
	seeds, years := equivalenceMatrix()

	for _, seed := range seeds {
		for _, year := range years {
			t.Run(fmt.Sprintf("seed%d-year%d", seed, year), func(t *testing.T) {
				wants := truncatedRunRenders(t, seed, year, epochs)
				for _, workers := range workersList {
					cfg := testConfig(seed, year)
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
					if r := inc.Repairs(); r > 0 {
						t.Logf("workers=%d: %d verdict-flip repair(s)", workers, r)
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
