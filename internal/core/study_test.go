package core

import (
	"testing"

	"cloudwatch/internal/cloud"
	"cloudwatch/internal/netsim"
	"cloudwatch/internal/scanners"
)

// testConfig is a scaled-down study for fast tests.
func testConfig(seed int64, year int) Config {
	cfg := DefaultConfig(seed, year)
	cfg.Deploy.TelescopeSlash24s = 32
	cfg.Deploy.HoneytrapPerCloud = 16
	cfg.Deploy.HurricaneIPs = 16
	cfg.Actors.Scale = 0.4
	return cfg
}

func runTestStudy(t *testing.T, seed int64, year int) *Study {
	t.Helper()
	s, err := Run(testConfig(seed, year))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStudyRunsAndCollects(t *testing.T) {
	s := runTestStudy(t, 42, 2021)
	if s.NumRecords() == 0 {
		t.Fatal("no honeypot records collected")
	}
	if s.Tel.Packets() == 0 {
		t.Fatal("no telescope packets collected")
	}
	t.Logf("records=%d telescope=%d actors=%d", s.NumRecords(), s.Tel.Packets(), len(s.Actors))

	// Every record must reference a real vantage point.
	for i := 0; i < min(1000, s.NumRecords()); i++ {
		if _, ok := s.U.ByID(recordAt(s, i).Vantage); !ok {
			t.Fatalf("record %d references unknown vantage", i)
		}
	}
}

func TestStudyDeterministic(t *testing.T) {
	a := runTestStudy(t, 7, 2021)
	b := runTestStudy(t, 7, 2021)
	if a.NumRecords() != b.NumRecords() {
		t.Fatalf("record counts differ: %d vs %d", a.NumRecords(), b.NumRecords())
	}
	for i := 0; i < a.NumRecords(); i++ {
		ra, rb := recordAt(a, i), recordAt(b, i)
		if ra.Src != rb.Src || ra.Vantage != rb.Vantage || !ra.T.Equal(rb.T) {
			t.Fatalf("record %d differs between identical runs", i)
		}
	}
	if a.Tel.Packets() != b.Tel.Packets() {
		t.Errorf("telescope packets differ: %d vs %d", a.Tel.Packets(), b.Tel.Packets())
	}
}

func TestStudyGreyNoiseSemantics(t *testing.T) {
	s := runTestStudy(t, 42, 2021)
	interactiveWithPayload := 0
	interactiveWithCreds := 0
	for i := 0; i < s.NumRecords(); i++ {
		rec := recordAt(s, i)
		tgt, _ := s.U.ByID(rec.Vantage)
		if tgt.Collector != netsim.CollectGreyNoise {
			continue
		}
		if rec.Port == 22 || rec.Port == 23 || rec.Port == 2222 || rec.Port == 2323 {
			if rec.Payload != nil {
				interactiveWithPayload++
			}
			if len(rec.Creds) > 0 {
				interactiveWithCreds++
			}
		}
	}
	if interactiveWithPayload != 0 {
		t.Errorf("GreyNoise interactive ports recorded %d payloads, want 0", interactiveWithPayload)
	}
	if interactiveWithCreds == 0 {
		t.Error("GreyNoise interactive ports captured no credentials")
	}
}

func TestStudyTelescopeSeesNoPayloadPorts(t *testing.T) {
	s := runTestStudy(t, 42, 2021)
	// Telnet sweeps make port 23 the busiest telescope port.
	if s.Tel.UniqueSourceCount(23) == 0 {
		t.Error("telescope saw no telnet scanners")
	}
	if s.Tel.UniqueSourceCount(22) == 0 {
		t.Error("telescope saw no SSH scanners")
	}
	if s.Tel.UniqueSourceCount(445) == 0 {
		t.Error("telescope saw no SMB scanners")
	}
}

func TestStudySearchEnginesIndexedFleet(t *testing.T) {
	s := runTestStudy(t, 42, 2021)
	if s.Censys.Size() == 0 || s.Shodan.Size() == 0 {
		t.Fatal("search engines indexed nothing")
	}
	// Control-group targets must never be indexed.
	for _, tgt := range s.U.Targets() {
		if tgt.BlockSearch && (tgt.IndexedCensys || tgt.IndexedShodan) {
			t.Errorf("blocked target %s was indexed", tgt.ID)
		}
		if tgt.LeakEngine == "censys" && tgt.IndexedShodan {
			t.Errorf("censys-leaked target %s indexed by shodan", tgt.ID)
		}
		if tgt.LeakEngine == "shodan" && tgt.IndexedCensys {
			t.Errorf("shodan-leaked target %s indexed by censys", tgt.ID)
		}
	}
}

func TestStudyMaliciousClassification(t *testing.T) {
	s := runTestStudy(t, 42, 2021)
	malicious, benign := 0, 0
	for i := 0; i < s.NumRecords(); i++ {
		if recordMalicious(s, recordAt(s, i)) {
			malicious++
		} else {
			benign++
		}
	}
	if malicious == 0 || benign == 0 {
		t.Fatalf("degenerate classification: malicious=%d benign=%d", malicious, benign)
	}
	frac := float64(malicious) / float64(malicious+benign)
	// §3.2: substantial fractions of traffic are malicious, but far
	// from all of it.
	if frac < 0.15 || frac > 0.95 {
		t.Errorf("malicious fraction = %.2f, outside plausible range", frac)
	}
}

func TestStudyVantageRecords(t *testing.T) {
	s := runTestStudy(t, 42, 2021)
	total := 0
	for _, tgt := range s.U.Targets() {
		recs := vantageRecords(s, tgt.ID)
		total += len(recs)
		for _, rec := range recs {
			if rec.Vantage != tgt.ID {
				t.Fatalf("vantage %s's record list holds a record for %s", tgt.ID, rec.Vantage)
			}
		}
	}
	if total != s.NumRecords() {
		t.Errorf("per-vantage records sum to %d, want %d", total, s.NumRecords())
	}
}

func TestStudyYearZeroDefaults(t *testing.T) {
	cfg := testConfig(1, 2021)
	cfg.Year = 0
	cfg.Actors.Year = 0
	s, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cfg.Year != 2021 {
		t.Errorf("year defaulted to %d, want 2021", s.Cfg.Year)
	}
}

func TestStudyRejectsBadDeployment(t *testing.T) {
	cfg := testConfig(1, 2021)
	cfg.Deploy.GreyNoisePerRegion = 0
	if _, err := Run(cfg); err == nil {
		t.Error("bad deployment config should fail")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Silence unused import when cloud defaults change.
var _ = cloud.DefaultConfig
var _ = scanners.Config{}
