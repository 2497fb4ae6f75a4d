package core

import (
	"runtime"
	"strings"
	"testing"

	"cloudwatch/internal/scanners"
)

// scenarioTestConfig is the scaled-down study of a named scenario: the
// standard test deployment with a thinner population so the full
// scenario × worker-count matrix stays fast.
func scenarioTestConfig(seed int64, scenario string) Config {
	cfg := testConfig(seed, 2021)
	cfg.Scale = 0.2
	cfg.Scenario = scenario
	return cfg
}

// scenarioWorkerCounts is the worker-count axis of the determinism
// matrix: serial, a fixed parallel count, and whatever this machine
// defaults to (deduplicated so each study runs once).
func scenarioWorkerCounts() []int {
	counts := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		counts = append(counts, p)
	}
	return counts
}

// TestScenariosDeterministicAcrossWorkers extends the central
// byte-identity guarantee to every registered scenario: for each
// scenario, Run at Workers 1, 4, and GOMAXPROCS builds identical
// studies, and the two-epoch chain's full-prefix snapshot holds the
// same records and renders the same analyses byte for byte.
func TestScenariosDeterministicAcrossWorkers(t *testing.T) {
	const epochs = 2
	scenarioIDs := scanners.Scenarios()
	if testing.Short() {
		scenarioIDs = []string{scanners.BaselineScenario, "burst-ddos"}
	}
	for _, id := range scenarioIDs {
		t.Run(id, func(t *testing.T) {
			cfg := scenarioTestConfig(17, id)
			cfg.Workers = 1
			serial, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if serial.NumRecords() == 0 {
				t.Fatal("scenario collected no honeypot records")
			}
			want := renderAllAnalyses(serial)

			for _, workers := range scenarioWorkerCounts() {
				wcfg := scenarioTestConfig(17, id)
				wcfg.Workers = workers

				if workers != 1 { // serial batch study is the reference itself
					batch, err := Run(wcfg)
					if err != nil {
						t.Fatal(err)
					}
					assertStudiesIdentical(t, serial, batch, "batch")
					if renderAllAnalyses(batch) != want {
						t.Fatalf("workers=%d: batch analyses differ from serial", workers)
					}
				}

				es, err := GenerateEpochs(wcfg, epochs)
				if err != nil {
					t.Fatal(err)
				}
				snap, err := es.Snapshot(epochs)
				if err != nil {
					t.Fatal(err)
				}
				assertStudiesEquivalent(t, serial, snap, "streaming snapshot")
				if renderAllAnalyses(snap) != want {
					t.Fatalf("workers=%d: full-prefix snapshot differs from batch", workers)
				}
			}
		})
	}
}

// TestScenarioStoreRoundTrip is the persistence half under a
// non-baseline scenario: exported material restores into a set whose
// snapshots render byte-identically, and material generated under one
// scenario refuses to restore into a study configured for another.
func TestScenarioStoreRoundTrip(t *testing.T) {
	const epochs = 2
	cfg := scenarioTestConfig(42, "stealth")
	es, err := GenerateEpochs(cfg, epochs)
	if err != nil {
		t.Fatal(err)
	}
	m := es.Material()
	if got := scanners.CanonicalScenario(m.Scenario); got != "stealth" {
		t.Fatalf("material scenario = %q, want stealth", got)
	}

	restored, err := RestoreEpochSet(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= epochs; p++ {
		want, err := es.Snapshot(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.Snapshot(p)
		if err != nil {
			t.Fatal(err)
		}
		if renderAllAnalyses(got) != renderAllAnalyses(want) {
			t.Errorf("prefix %d: restored snapshot differs from original", p)
		}
	}

	// Scenario mismatch: the same material under a different scenario id
	// (including the implicit baseline of a pre-scenario config) must be
	// refused with an error naming both worlds.
	for _, other := range []string{scanners.BaselineScenario, "", "burst-ddos"} {
		mis := cfg
		mis.Scenario = other
		_, err := RestoreEpochSet(mis, es.Material())
		if err == nil {
			t.Fatalf("scenario %q restored stealth material", other)
		}
		if !strings.Contains(err.Error(), "stealth") {
			t.Errorf("mismatch error should name the material's scenario, got %v", err)
		}
	}
}

// TestRunRejectsInvalidActorConfig checks batch and streaming
// generation both surface actor-config validation errors (unknown
// scenario, negative scale) instead of silently building the baseline.
func TestRunRejectsInvalidActorConfig(t *testing.T) {
	bad := testConfig(42, 2021)
	bad.Scenario = "bogus"
	if _, err := Run(bad); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("Run with unknown scenario: err = %v", err)
	}
	if _, err := GenerateEpochs(bad, 2); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("GenerateEpochs with unknown scenario: err = %v", err)
	}
	neg := testConfig(42, 2021)
	neg.Scale = -1
	if _, err := Run(neg); err == nil {
		t.Error("Run with negative scale succeeded")
	}
	if _, err := GenerateEpochs(neg, 2); err == nil {
		t.Error("GenerateEpochs with negative scale succeeded")
	}
	year := testConfig(42, 2019)
	if err := year.Validate(); err == nil || !strings.Contains(err.Error(), "2019") {
		t.Errorf("Validate with year 2019: err = %v", err)
	}
	if _, err := Run(year); err == nil || !strings.Contains(err.Error(), "2019") {
		t.Errorf("Run with year 2019: err = %v", err)
	}
}
