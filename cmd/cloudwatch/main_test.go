package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"cloudwatch/internal/core"
	"cloudwatch/internal/obs"
	"cloudwatch/internal/stream"
)

// TestFigureBumpAppliesToAll pins the Figure 1 regression: the
// telescope bump must apply whenever Figure 1 will be rendered, so
// "-experiment all" and "-experiment figure1" build identical studies
// (the same seed used to render two different Figure 1s: 128 /24s
// under "all", 512 under "figure1").
func TestFigureBumpAppliesToAll(t *testing.T) {
	all, allDesc := studyConfig(42, 2021, 1, false, 0, "all", "baseline", false)
	fig, figDesc := studyConfig(42, 2021, 1, false, 0, "figure1", "baseline", false)
	if !reflect.DeepEqual(all, fig) {
		t.Fatalf("configs differ between all and figure1:\n all %+v\n fig %+v", all, fig)
	}
	if all.Deploy.TelescopeSlash24s != figureMinSlash24s {
		t.Fatalf("telescope = %d /24s, want %d (two full /16s)", all.Deploy.TelescopeSlash24s, figureMinSlash24s)
	}
	for _, desc := range []string{allDesc, figDesc} {
		if !strings.Contains(desc, "Figure 1") {
			t.Errorf("deployment description %q does not say which deployment was used", desc)
		}
	}
}

// TestNoBumpForTableExperiments checks table-only runs (including the
// appendix, which renders no figure) keep the default telescope.
func TestNoBumpForTableExperiments(t *testing.T) {
	def := core.DefaultConfig(42, 2021).Deploy.TelescopeSlash24s
	for _, exp := range []string{"table2", "table10", "appendix"} {
		cfg, desc := studyConfig(42, 2021, 1, false, 0, exp, "baseline", false)
		if cfg.Deploy.TelescopeSlash24s != def {
			t.Errorf("%s: telescope = %d /24s, want default %d", exp, cfg.Deploy.TelescopeSlash24s, def)
		}
		if desc != "default deployment" {
			t.Errorf("%s: deployment description = %q", exp, desc)
		}
	}
}

// TestFullFlagScalesWholeDeployment pins the -full fix: paper scale
// means the full Orion telescope and the full HE /24 honeypot fleet,
// not just the telescope.
func TestFullFlagScalesWholeDeployment(t *testing.T) {
	cfg, desc := studyConfig(42, 2021, 1, true, 0, "table2", "baseline", false)
	if cfg.Deploy.TelescopeSlash24s != 1856 {
		t.Errorf("full telescope = %d /24s, want 1856", cfg.Deploy.TelescopeSlash24s)
	}
	if cfg.Deploy.HurricaneIPs != 256 {
		t.Errorf("full HE fleet = %d IPs, want 256", cfg.Deploy.HurricaneIPs)
	}
	if desc != "paper-scale deployment" {
		t.Errorf("deployment description = %q", desc)
	}
	// -full already exceeds the Figure 1 minimum: no further bump.
	fig, _ := studyConfig(42, 2021, 1, true, 0, "figure1", "baseline", false)
	if fig.Deploy.TelescopeSlash24s != 1856 {
		t.Errorf("full+figure1 telescope = %d /24s, want 1856", fig.Deploy.TelescopeSlash24s)
	}
}

// TestServeModeBumpsTelescope pins the serve-mode deployment choice:
// a server's clients can request Figure 1 at any time, so serve mode
// gets the Figure 1 telescope; one-shot sweep mode renders tables only
// and keeps the default.
func TestServeModeBumpsTelescope(t *testing.T) {
	srv, desc := studyConfig(42, 2021, 1, false, 0, "all", "baseline", true)
	if srv.Deploy.TelescopeSlash24s != figureMinSlash24s {
		t.Errorf("serve telescope = %d /24s, want %d", srv.Deploy.TelescopeSlash24s, figureMinSlash24s)
	}
	if !strings.Contains(desc, "Figure 1") {
		t.Errorf("serve deployment description = %q", desc)
	}
	swp, desc := studyConfig(42, 2021, 1, false, 0, "sweep", "baseline", false)
	if def := core.DefaultConfig(42, 2021).Deploy.TelescopeSlash24s; swp.Deploy.TelescopeSlash24s != def {
		t.Errorf("sweep telescope = %d /24s, want default %d", swp.Deploy.TelescopeSlash24s, def)
	}
	if desc != "default deployment" {
		t.Errorf("sweep deployment description = %q", desc)
	}
}

// TestSweepFlagValidation exercises the sweep-flag validation: bad
// values are rejected with errors that enumerate the valid ones.
func TestSweepFlagValidation(t *testing.T) {
	good := sweepFlags{epochs: 8, tables: "table2,table5", kMin: 1, kMax: 10, prefixes: "all"}
	req, err := good.sweepRequest()
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Tables) != 2 || req.KMin != 1 || req.KMax != 10 || req.Prefixes != nil {
		t.Fatalf("request = %+v", req)
	}

	bad := good
	bad.tables = "table2,table3"
	if _, err := bad.sweepRequest(); err == nil || !strings.Contains(err.Error(), "table10") {
		t.Errorf("unknown table error should list valid tables, got %v", err)
	}
	bad = good
	bad.kMin, bad.kMax = 4, 2
	if _, err := bad.sweepRequest(); err == nil {
		t.Error("inverted K range accepted")
	}
	bad = good
	bad.kMax = stream.MaxSweepK + 1
	if _, err := bad.sweepRequest(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("<= %d", stream.MaxSweepK)) {
		t.Errorf("-sweep-kmax %d: error should name the bound, got %v", bad.kMax, err)
	}
	bad.kMax = stream.MaxSweepK
	if _, err := bad.sweepRequest(); err != nil {
		t.Errorf("-sweep-kmax %d rejected: %v", stream.MaxSweepK, err)
	}
	bad = good
	bad.prefixes = "1,99"
	if _, err := bad.sweepRequest(); err == nil || !strings.Contains(err.Error(), "1..8") {
		t.Errorf("out-of-range prefix error should name the range, got %v", err)
	}
	for _, n := range []int{0, core.MaxEpochs + 1} {
		bad = good
		bad.epochs = n
		if _, err := bad.sweepRequest(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("[1, %d]", core.MaxEpochs)) {
			t.Errorf("-epochs %d: error should name the valid range, got %v", n, err)
		}
	}
	max := good
	max.epochs = core.MaxEpochs
	if _, err := max.sweepRequest(); err != nil {
		t.Errorf("-epochs %d rejected: %v", core.MaxEpochs, err)
	}
	explicit := good
	explicit.prefixes = "2, 4"
	req, err = explicit.sweepRequest()
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Prefixes) != 2 || req.Prefixes[0] != 2 || req.Prefixes[1] != 4 {
		t.Fatalf("explicit prefixes = %v", req.Prefixes)
	}
}

// TestSweepRejectionsAgreeAcrossCLIAndHTTP sends the same bad sweep
// inputs through the CLI's flag path and through GET /v1/sweep: both
// must refuse every one, with the same rule named, and the server must
// render nothing for them. The server runs with the serve-mode
// defaults of "-sweep-kmax 4", so an explicit 0 cannot fall back to
// any default.
func TestSweepRejectionsAgreeAcrossCLIAndHTTP(t *testing.T) {
	cfg, _ := studyConfig(42, 2021, 0.1, false, 0, "table2", "baseline", false)
	cfg.Deploy.TelescopeSlash24s = 32
	eng, err := stream.New(stream.Config{Study: cfg, Epochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestAll(); err != nil {
		t.Fatal(err)
	}
	good := sweepFlags{epochs: 2, tables: "table2", kMin: 1, kMax: 4, prefixes: "all"}
	defaults, err := good.sweepRequest()
	if err != nil {
		t.Fatal(err)
	}
	srv := stream.NewServer(eng)
	srv.SetLogger(nil)
	srv.SetSweepDefaults(defaults)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name  string
		flags func(*sweepFlags)
		flag  string // -scenario value, when the case is about scenarios
		query string
		want  string // what both errors must name
	}{
		{"unknown table", func(f *sweepFlags) { f.tables = "table3" }, "", "tables=table3", "table10"},
		{"inverted K range", func(f *sweepFlags) { f.kMin, f.kMax = 4, 2 }, "", "kmin=4&kmax=2", "k_min <= k_max"},
		{"K above MaxSweepK", func(f *sweepFlags) { f.kMax = stream.MaxSweepK + 1 }, "",
			fmt.Sprintf("kmax=%d", stream.MaxSweepK+1), fmt.Sprintf("<= %d", stream.MaxSweepK)},
		{"explicit kmin 0", func(f *sweepFlags) { f.kMin = 0 }, "", "kmin=0", "1 <= k_min"},
		{"explicit kmax 0", func(f *sweepFlags) { f.kMax = 0 }, "", "kmax=0", "1 <= k_min"},
		{"explicit K of 0", func(f *sweepFlags) { f.kMin, f.kMax = 0, 0 }, "", "tables=table2&kmin=0&kmax=0&prefixes=1", "1 <= k_min"},
		{"prefix out of range", func(f *sweepFlags) { f.prefixes = "1,3" }, "", "prefixes=1,3", "1..2"},
		{"unknown scenario", nil, "bogus", "scenario=bogus", "attack-platform"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cliErr error
			if tc.flags != nil {
				f := good
				tc.flags(&f)
				_, cliErr = f.sweepRequest()
			} else {
				_, cliErr = parseScenarios(tc.flag, true)
			}
			if cliErr == nil || !strings.Contains(cliErr.Error(), tc.want) {
				t.Errorf("CLI: error %v, want one naming %q", cliErr, tc.want)
			}

			before := renders()
			resp, err := http.Get(ts.URL + "/v1/sweep?" + tc.query)
			if err != nil {
				t.Fatal(err)
			}
			var body struct{ Error string }
			err = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, tc.want) {
				t.Errorf("HTTP: %d %q (%v), want 400 naming %q", resp.StatusCode, body.Error, err, tc.want)
			}
			if n := renders() - before; n != 0 {
				t.Errorf("HTTP: refused sweep rendered %d tables", n)
			}
		})
	}
}

// renders returns the process-wide count of table_render spans.
func renders() uint64 {
	for _, st := range obs.DefaultTracer().Summary() {
		if st.Stage == obs.StageTableRender {
			return st.Count
		}
	}
	return 0
}

// TestKnownExperiment pins the accepted -experiment values, including
// the streaming sweep mode.
func TestKnownExperiment(t *testing.T) {
	for _, name := range []string{"table1", "table11", "figure1", "appendix", "all", "sweep"} {
		if !knownExperiment(name) {
			t.Errorf("%q rejected", name)
		}
	}
	for _, name := range []string{"table12", "bogus", ""} {
		if knownExperiment(name) {
			t.Errorf("%q accepted", name)
		}
	}
	if v := validExperiments(); !strings.Contains(v, "sweep") || !strings.Contains(v, "table11") {
		t.Errorf("validExperiments() = %q", v)
	}
}

// TestParseScenarios pins the -scenario flag validation: unknown ids
// are rejected with the registered ids enumerated (the -experiment
// pattern), lists are sweep-only, and the empty value means baseline.
func TestParseScenarios(t *testing.T) {
	ids, err := parseScenarios("baseline", false)
	if err != nil || len(ids) != 1 || ids[0] != "baseline" {
		t.Fatalf("baseline: ids=%v err=%v", ids, err)
	}
	if ids, err = parseScenarios("", false); err != nil || len(ids) != 1 || ids[0] != "baseline" {
		t.Fatalf("empty value should mean baseline: ids=%v err=%v", ids, err)
	}
	if _, err = parseScenarios("bogus", false); err == nil ||
		!strings.Contains(err.Error(), "stealth") || !strings.Contains(err.Error(), "attack-platform") {
		t.Errorf("unknown scenario error should enumerate registered ids, got %v", err)
	}
	if _, err = parseScenarios("baseline,stealth", false); err == nil {
		t.Error("multi-scenario list accepted outside sweep mode")
	}
	ids, err = parseScenarios("baseline, stealth, baseline", true)
	if err != nil || len(ids) != 2 || ids[0] != "baseline" || ids[1] != "stealth" {
		t.Errorf("sweep list should dedup and trim: ids=%v err=%v", ids, err)
	}
	ids, err = parseScenarios("burst-ddos", true)
	if err != nil || len(ids) != 1 || ids[0] != "burst-ddos" {
		t.Errorf("burst-ddos: ids=%v err=%v", ids, err)
	}
}

// TestScenarioThreadsIntoStudyConfig checks the flag value lands in
// the study configuration (and thereby in store identity).
func TestScenarioThreadsIntoStudyConfig(t *testing.T) {
	cfg, _ := studyConfig(42, 2021, 1, false, 0, "table2", "stealth", false)
	if cfg.Scenario != "stealth" {
		t.Fatalf("Scenario = %q, want stealth", cfg.Scenario)
	}
}

// TestAllAndFigure1RenderIdenticalFigure1 is the end-to-end
// regression: the same seed renders the same Figure 1 whether it was
// requested via "figure1" or as part of "all". Reduced actor scale
// keeps the two 512-/24 studies fast.
func TestAllAndFigure1RenderIdenticalFigure1(t *testing.T) {
	cfgAll, _ := studyConfig(42, 2021, 0.1, false, 0, "all", "baseline", false)
	cfgFig, _ := studyConfig(42, 2021, 0.1, false, 0, "figure1", "baseline", false)
	sAll, err := core.Run(cfgAll)
	if err != nil {
		t.Fatal(err)
	}
	sFig, err := core.Run(cfgFig)
	if err != nil {
		t.Fatal(err)
	}
	a, b := sAll.Figure1().Render(), sFig.Figure1().Render()
	if a != b {
		t.Errorf("Figure 1 differs between -experiment all and -experiment figure1:\nall:\n%s\nfigure1:\n%s", a, b)
	}
	if !strings.Contains(a, "port 22") {
		t.Error("Figure 1 render missing panels")
	}
}
