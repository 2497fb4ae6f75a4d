package stream

import (
	"net/http/httptest"
	"strings"
	"testing"

	"cloudwatch/internal/core"
	"cloudwatch/internal/scanners"
	"cloudwatch/internal/store"
)

// scenarioStudyConfig is testStudyConfig under a named scenario, with
// a thinner population (the scenario suites run several engines).
func scenarioStudyConfig(seed int64, scenario string) core.Config {
	cfg := testStudyConfig(seed, 2021)
	cfg.Scale = 0.2
	cfg.Scenario = scenario
	return cfg
}

// TestEngineScenarioAxis pins the sweep scenario axis against a single
// engine: empty selects the active scenario, the active id passes,
// unknown ids enumerate the registry, and registered-but-inactive ids
// name what this engine serves.
func TestEngineScenarioAxis(t *testing.T) {
	eng, err := New(Config{Study: scenarioStudyConfig(42, "stealth"), Epochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestAll(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Scenario(); got != "stealth" {
		t.Fatalf("Scenario() = %q, want stealth", got)
	}

	req := SweepRequest{Tables: []string{"table2"}, KMin: 3, KMax: 3, Prefixes: []int{2}}
	res, err := eng.Sweep(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != 1 || res.Scenarios[0] != "stealth" {
		t.Fatalf("result scenarios = %v", res.Scenarios)
	}
	for _, c := range res.Cells {
		if c.Scenario != "stealth" {
			t.Fatalf("cell not stamped with scenario: %+v", c)
		}
	}

	req.Scenarios = []string{"stealth"}
	if _, err := eng.Sweep(req); err != nil {
		t.Errorf("active scenario rejected: %v", err)
	}
	req.Scenarios = []string{"bogus"}
	if _, err := eng.Sweep(req); err == nil || !strings.Contains(err.Error(), "attack-platform") {
		t.Errorf("unknown scenario error should enumerate registered ids, got %v", err)
	}
	req.Scenarios = []string{scanners.BaselineScenario}
	if _, err := eng.Sweep(req); err == nil || !strings.Contains(err.Error(), "stealth") {
		t.Errorf("inactive scenario error should name the active one, got %v", err)
	}
}

// TestMergeSweepResults checks the multi-engine merge the CLI's
// multi-scenario sweep mode uses: cells and scenario lists concatenate
// in order and the throughput re-derives from the summed wall-clock.
func TestMergeSweepResults(t *testing.T) {
	a := &SweepResult{
		Year: 2021, Seed: 42, Scenarios: []string{"baseline"},
		Cells:   []SweepCell{{Scenario: "baseline", Prefix: 1, K: 3, Table: "table2"}},
		Renders: 1, Seconds: 1,
	}
	b := &SweepResult{
		Year: 2021, Seed: 42, Scenarios: []string{"stealth"},
		Cells: []SweepCell{
			{Scenario: "stealth", Prefix: 1, K: 3, Table: "table2"},
			{Scenario: "stealth", Prefix: 2, K: 3, Table: "table2"},
		},
		Renders: 2, Seconds: 3,
	}
	m := MergeSweepResults(a, b)
	if m.Year != 2021 || m.Seed != 42 {
		t.Fatalf("merged identity = %d/%d", m.Year, m.Seed)
	}
	if len(m.Scenarios) != 2 || m.Scenarios[0] != "baseline" || m.Scenarios[1] != "stealth" {
		t.Fatalf("merged scenarios = %v", m.Scenarios)
	}
	if m.Renders != 3 || len(m.Cells) != 3 || m.Cells[2].Prefix != 2 {
		t.Fatalf("merged cells = %+v", m.Cells)
	}
	if m.Seconds != 4 || m.RendersPerSec != 0.75 {
		t.Fatalf("merged throughput = %v renders/s over %vs", m.RendersPerSec, m.Seconds)
	}
}

// TestServerScenarioSurfaces drives the HTTP layer of the scenario
// axis: /readyz and /v1/status report the active scenario, snapshot
// requests may assert one (unknown and not-served ids 404 with the
// registry resp. the active id in the message), and /v1/sweep accepts
// the scenario query parameter.
func TestServerScenarioSurfaces(t *testing.T) {
	eng, err := New(Config{Study: scenarioStudyConfig(7, "burst-ddos"), Epochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestAll(); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var ready map[string]any
	getJSON(t, ts.URL+"/readyz", 200, &ready)
	if ready["scenario"] != "burst-ddos" {
		t.Fatalf("readyz scenario = %v", ready["scenario"])
	}

	var st statusResponse
	getJSON(t, ts.URL+"/v1/status", 200, &st)
	if st.Scenario != "burst-ddos" || st.ScenarioDescription == "" {
		t.Fatalf("status scenario = %q (%q)", st.Scenario, st.ScenarioDescription)
	}
	if len(st.Scenarios) < 4 || st.Scenarios[0] != scanners.BaselineScenario {
		t.Fatalf("status should list the registry baseline-first, got %v", st.Scenarios)
	}

	var snap snapshotResponse
	getJSON(t, ts.URL+"/v1/snapshot/1/table2", 200, &snap)
	if snap.Scenario != "burst-ddos" {
		t.Fatalf("snapshot scenario = %q", snap.Scenario)
	}
	getJSON(t, ts.URL+"/v1/snapshot/1/table2?scenario=burst-ddos", 200, &snap)

	var e errorResponse
	getJSON(t, ts.URL+"/v1/snapshot/1/table2?scenario=bogus", 404, &e)
	if !strings.Contains(e.Error, "attack-platform") {
		t.Errorf("unknown-scenario 404 should enumerate registered ids: %q", e.Error)
	}
	getJSON(t, ts.URL+"/v1/snapshot/1/table2?scenario=stealth", 404, &e)
	if !strings.Contains(e.Error, "burst-ddos") {
		t.Errorf("not-served 404 should name the active scenario: %q", e.Error)
	}

	var swp SweepResult
	getJSON(t, ts.URL+"/v1/sweep?tables=table2&kmin=3&kmax=3&prefixes=1&scenario=burst-ddos", 200, &swp)
	if len(swp.Scenarios) != 1 || swp.Scenarios[0] != "burst-ddos" {
		t.Fatalf("sweep scenarios = %v", swp.Scenarios)
	}
	getJSON(t, ts.URL+"/v1/sweep?tables=table2&kmin=3&kmax=3&prefixes=1&scenarios=stealth", 400, &e)
	if !strings.Contains(e.Error, "burst-ddos") {
		t.Errorf("sweep not-served error should name the active scenario: %q", e.Error)
	}
}

// TestStoreRefusesScenarioMismatch is the persistence guarantee: a
// durable store written under one scenario refuses to serve a study
// configured for another (scenario is identity, like seed and year),
// while reopening under the same scenario recovers without
// regeneration.
func TestStoreRefusesScenarioMismatch(t *testing.T) {
	fsys := store.NewMemFS()
	cfg := Config{Study: scenarioStudyConfig(42, "stealth"), Epochs: 2}
	eng, err := Open(cfg, openTestStore(t, fsys))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestAll(); err != nil {
		t.Fatal(err)
	}
	want := renderEvery(t, eng, 2)

	// Same scenario spelled the same way: recovered, byte-identical.
	again, err := Open(cfg, openTestStore(t, fsys))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Recovered() {
		t.Fatal("same-scenario reopen regenerated")
	}
	if renderEvery(t, again, 2) != want {
		t.Error("recovered engine renders differently")
	}

	// Any other scenario — including the implicit baseline of a
	// pre-scenario config — is a different study.
	for _, other := range []string{scanners.BaselineScenario, "", "burst-ddos"} {
		mis := cfg
		mis.Study.Scenario = other
		if _, err := Open(mis, openTestStore(t, fsys)); err == nil {
			t.Errorf("scenario %q opened a stealth store", other)
		}
	}
}

// TestStoreScenarioCanonicalization checks an unset scenario and year
// share a store identity with "baseline" and 2021: a store written
// under the defaults serves a config that spells them out.
func TestStoreScenarioCanonicalization(t *testing.T) {
	fsys := store.NewMemFS()
	implicit := Config{Study: testStudyConfig(42, 0), Epochs: 2}
	implicit.Study.Scale = 0.2
	implicit.Study.Scenario = ""
	eng, err := Open(implicit, openTestStore(t, fsys))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestAll(); err != nil {
		t.Fatal(err)
	}

	explicit := implicit
	explicit.Study.Year = 2021
	explicit.Study.Scenario = scanners.BaselineScenario
	again, err := Open(explicit, openTestStore(t, fsys))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Recovered() {
		t.Error("explicit-baseline config regenerated an implicit-baseline store")
	}
}
