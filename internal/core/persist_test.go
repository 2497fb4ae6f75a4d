package core

import (
	"fmt"
	"strings"
	"testing"
)

// TestRestoreEpochSetByteIdentical is the persistence half of the
// streaming equivalence matrix: exporting a generated epoch set's
// material and restoring it into a fresh set must reproduce every
// prefix snapshot — tables, figures, and ablations — byte for byte,
// across seeds, years, and generation worker counts. The restored set
// is exercised through both Snapshot and the Incremental chain (the
// path the streaming engine takes on rehydration).
func TestRestoreEpochSetByteIdentical(t *testing.T) {
	type matrix struct {
		seed    int64
		year    int
		workers int
	}
	cells := []matrix{
		{42, 2021, 1},
		{42, 2021, 4},
		{7, 2020, 1},
		{7, 2020, 4},
	}
	if testing.Short() {
		cells = cells[:2]
	}
	const epochs = 3

	for _, cell := range cells {
		t.Run(fmt.Sprintf("seed%d-year%d-workers%d", cell.seed, cell.year, cell.workers), func(t *testing.T) {
			cfg := testConfig(cell.seed, cell.year)
			cfg.Workers = cell.workers
			es, err := GenerateEpochs(cfg, epochs)
			if err != nil {
				t.Fatal(err)
			}

			restored, err := RestoreEpochSet(cfg, es.Material())
			if err != nil {
				t.Fatal(err)
			}

			inc := restored.Incremental()
			for p := 1; p <= epochs; p++ {
				want, err := es.Snapshot(p)
				if err != nil {
					t.Fatal(err)
				}
				ref := renderAllAnalyses(want)

				snap, err := restored.Snapshot(p)
				if err != nil {
					t.Fatal(err)
				}
				if renderAllAnalyses(snap) != ref {
					t.Errorf("prefix %d: restored snapshot differs from original", p)
				}
				chained, err := inc.Advance()
				if err != nil {
					t.Fatal(err)
				}
				if renderAllAnalyses(chained) != ref {
					t.Errorf("prefix %d: restored incremental chain differs from original", p)
				}
			}
		})
	}
}

// TestRestoreEpochSetValidation feeds RestoreEpochSet structurally
// damaged material and expects a clean error for each mutation, never
// a panic or a silently wrong set.
func TestRestoreEpochSetValidation(t *testing.T) {
	cfg := testConfig(42, 2021)
	es, err := GenerateEpochs(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	pristine := es.Material()

	// Material shares the set's columns, so every mutation works on a
	// fresh shallow re-export.
	damage := map[string]func(m *StudyMaterial){
		"zero workers":        func(m *StudyMaterial) { m.Workers = 0 },
		"actor map short":     func(m *StudyMaterial) { m.ActorWorker = m.ActorWorker[:1] },
		"worker out of range": func(m *StudyMaterial) { m.ActorWorker[0] = int32(m.Workers) },
		"negative worker":     func(m *StudyMaterial) { m.ActorWorker[0] = -1 },
		"missing sink": func(m *StudyMaterial) {
			m.Epochs[0].Sinks = m.Epochs[0].Sinks[:0]
		},
		"nil collector": func(m *StudyMaterial) {
			sinks := append([]SinkMaterial(nil), m.Epochs[1].Sinks...)
			sinks[0].Tel = nil
			m.Epochs[1].Sinks = sinks
		},
		"seq length skew": func(m *StudyMaterial) {
			sinks := append([]SinkMaterial(nil), m.Epochs[0].Sinks...)
			sinks[0].Seq = append(append([]int32(nil), sinks[0].Seq...), 0)
			m.Epochs[0].Sinks = sinks
		},
		"run bounds short": func(m *StudyMaterial) {
			m.Epochs[0].Lo = m.Epochs[0].Lo[:0]
		},
		"run out of sink": func(m *StudyMaterial) {
			hi := append([]int32(nil), m.Epochs[0].Hi...)
			hi[0] = int32(m.Epochs[0].Sinks[m.ActorWorker[0]].Blk.Len()) + 1
			m.Epochs[0].Hi = hi
		},
		"inverted run": func(m *StudyMaterial) {
			lo := append([]int32(nil), m.Epochs[0].Lo...)
			lo[0] = m.Epochs[0].Hi[0] + 1
			m.Epochs[0].Lo = lo
		},
	}
	for name, mutate := range damage {
		t.Run(name, func(t *testing.T) {
			m := es.Material()
			mutate(m)
			if _, err := RestoreEpochSet(cfg, m); err == nil {
				t.Fatal("damaged material restored successfully")
			}
		})
	}

	// The pristine export still restores after all that: the mutations
	// above must not have reached shared state.
	if _, err := RestoreEpochSet(cfg, pristine); err != nil {
		t.Fatalf("pristine material no longer restores: %v", err)
	}

	// Empty material clashes with the minimum one-epoch partition. (A
	// nonzero truncation restores as a legitimately shorter set; the
	// store layer checks frame counts against its manifest.)
	m := es.Material()
	m.Epochs = m.Epochs[:0]
	if _, err := RestoreEpochSet(cfg, m); err == nil {
		t.Fatal("empty material restored successfully")
	}

	// Persisted material is the whole week; a truncation window cannot
	// apply to it.
	wcfg := cfg
	wcfg.WindowSec = es.Bound(1)
	if _, err := RestoreEpochSet(wcfg, pristine); err == nil {
		t.Fatal("material restored under a truncation window")
	}

	// Material is checked against the actor population alone, before
	// the deployment is built: a short actor map is reported as such
	// even under a config whose deployment cannot be built.
	bcfg := cfg
	bcfg.Deploy.TelescopeSlash24s = 0
	m = es.Material()
	m.ActorWorker = m.ActorWorker[:1]
	if _, err := RestoreEpochSet(bcfg, m); err == nil || !strings.Contains(err.Error(), "maps 1 actors") {
		t.Fatalf("short actor map under an unbuildable deployment: got %v", err)
	}
}
