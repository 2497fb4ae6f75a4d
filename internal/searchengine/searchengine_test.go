package searchengine

import (
	"testing"
	"time"

	"cloudwatch/internal/netsim"
	"cloudwatch/internal/wire"
)

func leakUniverse(t *testing.T) *netsim.Universe {
	t.Helper()
	targets := []*netsim.Target{
		{ID: "fleet:0", IP: wire.MustParseAddr("10.0.0.1"), Region: "fleet",
			Ports: []uint16{22, 80}},
		{ID: "leak:control", IP: wire.MustParseAddr("10.0.0.2"), Region: "leak",
			Ports: []uint16{22, 80}, BlockSearch: true},
		{ID: "leak:censys80", IP: wire.MustParseAddr("10.0.0.3"), Region: "leak",
			Ports: []uint16{22, 80}, LeakEngine: "censys", LeakPort: 80},
		{ID: "leak:prev", IP: wire.MustParseAddr("10.0.0.4"), Region: "leak",
			Ports: []uint16{22, 80}, BlockSearch: true, PrevIndexed: true},
	}
	u, err := netsim.NewUniverse(targets)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestCrawlHonorsControls(t *testing.T) {
	u := leakUniverse(t)
	censys := New("censys")
	shodan := New("shodan")
	now := time.Now()
	censys.Crawl(u, now)
	shodan.Crawl(u, now)

	fleet := wire.MustParseAddr("10.0.0.1")
	control := wire.MustParseAddr("10.0.0.2")
	leaked := wire.MustParseAddr("10.0.0.3")
	prev := wire.MustParseAddr("10.0.0.4")

	if !censys.Indexed(fleet, 22) || !censys.Indexed(fleet, 80) {
		t.Error("fleet target should be fully indexed")
	}
	if censys.IndexedHost(control) || shodan.IndexedHost(control) {
		t.Error("control group must not be indexed")
	}
	if !censys.Indexed(leaked, 80) {
		t.Error("censys must index the leaked port")
	}
	if censys.Indexed(leaked, 22) {
		t.Error("censys must not index the non-leaked port")
	}
	if shodan.IndexedHost(leaked) {
		t.Error("shodan must not index a censys-leaked host")
	}
	if censys.IndexedHost(prev) {
		t.Error("previously-leaked host is blocked from live indexing")
	}
	if !censys.Historical(prev) {
		t.Error("previously-leaked host must appear in history")
	}
	if !censys.Historical(fleet) {
		t.Error("live-indexed host enters history")
	}
	if censys.Historical(control) {
		t.Error("control host must have no history")
	}
}

func TestCrawlSetsTargetFlags(t *testing.T) {
	u := leakUniverse(t)
	New("censys").Crawl(u, time.Now())
	leaked, _ := u.ByID("leak:censys80")
	if !leaked.IndexedCensys {
		t.Error("IndexedCensys flag not set")
	}
	if leaked.IndexedShodan {
		t.Error("IndexedShodan set without a shodan crawl")
	}
}

func TestSearchSortedAndSized(t *testing.T) {
	u := leakUniverse(t)
	e := New("censys")
	e.Crawl(u, time.Now())
	got := e.Search(80)
	if len(got) != 2 {
		t.Fatalf("Search(80) = %v", got)
	}
	if got[0] > got[1] {
		t.Error("Search results must be sorted")
	}
	if e.Size() != 3 { // fleet:22, fleet:80, leaked:80
		t.Errorf("Size = %d, want 3", e.Size())
	}
}

func TestIndexedAtFirstWins(t *testing.T) {
	u := leakUniverse(t)
	e := New("censys")
	t0 := time.Date(2021, 6, 30, 0, 0, 0, 0, time.UTC)
	e.Crawl(u, t0)
	e.Crawl(u, t0.Add(24*time.Hour)) // re-crawl must not move timestamps
	ts, ok := e.IndexedAt(wire.MustParseAddr("10.0.0.1"), 80)
	if !ok || !ts.Equal(t0) {
		t.Errorf("IndexedAt = %v, %v; want %v", ts, ok, t0)
	}
	if _, ok := e.IndexedAt(wire.MustParseAddr("10.0.0.2"), 80); ok {
		t.Error("control group should have no index timestamp")
	}
}
