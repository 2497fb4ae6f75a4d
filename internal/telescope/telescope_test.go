package telescope

import (
	"slices"
	"sync"
	"testing"

	"cloudwatch/internal/netsim"
	"cloudwatch/internal/wire"
)

func telUniverse(t *testing.T) *netsim.Universe {
	t.Helper()
	u, err := netsim.NewUniverse(nil)
	if err != nil {
		t.Fatal(err)
	}
	u.TelescopeBlocks = []wire.Block{
		wire.MustParseBlock("100.64.0.0/24"),
		wire.MustParseBlock("100.64.1.0/24"),
	}
	return u
}

func mkProbe(src, dst string, port uint16, asn int) *netsim.Probe {
	return &netsim.Probe{
		Src: wire.MustParseAddr(src), Dst: wire.MustParseAddr(dst),
		Port: port, ASN: asn, Transport: wire.TCP,
	}
}

func TestCollectorAggregation(t *testing.T) {
	c := New()
	c.Observe(mkProbe("1.1.1.1", "100.64.0.5", 22, 4134))
	c.Observe(mkProbe("1.1.1.1", "100.64.0.6", 22, 4134)) // same src, 2nd dst
	c.Observe(mkProbe("2.2.2.2", "100.64.0.5", 22, 174))
	c.Observe(mkProbe("3.3.3.3", "100.64.1.9", 443, 174)) // unwatched port

	if c.Packets() != 4 {
		t.Errorf("packets = %d", c.Packets())
	}
	if len(c.UniqueSources(22)) != 2 {
		t.Errorf("unique srcs port 22 = %d, want 2", len(c.UniqueSources(22)))
	}
	if len(c.UniqueSources(443)) != 1 {
		t.Errorf("unique srcs port 443 = %d, want 1", len(c.UniqueSources(443)))
	}
	if len(c.AllSources()) != 3 {
		t.Errorf("all srcs = %d, want 3", len(c.AllSources()))
	}
	if got := c.ASFrequencies(22)["AS4134 Chinanet"]; got != 2 {
		t.Errorf("AS4134 count = %v, want 2", got)
	}
	if got := c.ASFrequenciesAll().Total(); got != 4 {
		t.Errorf("all-port AS total = %v, want 4", got)
	}
	if got := c.ASFrequencies(8080); len(got) != 0 {
		t.Errorf("unseen port should have empty AS table: %v", got)
	}
}

func TestCollectorUnknownAS(t *testing.T) {
	c := New()
	c.Observe(mkProbe("1.1.1.1", "100.64.0.5", 22, 999999))
	if got := c.ASFrequencies(22)["unknown"]; got != 1 {
		t.Errorf("unknown AS count = %v", got)
	}
}

func TestPerAddressSeries(t *testing.T) {
	u := telUniverse(t)
	c := New()
	// Three distinct scanners on .5 of block 0; one on .9 of block 1.
	c.Observe(mkProbe("1.1.1.1", "100.64.0.5", 445, 4134))
	c.Observe(mkProbe("2.2.2.2", "100.64.0.5", 445, 4134))
	c.Observe(mkProbe("2.2.2.2", "100.64.0.5", 445, 4134)) // repeat: same src
	c.Observe(mkProbe("3.3.3.3", "100.64.1.9", 445, 4134))
	c.Observe(mkProbe("3.3.3.3", "100.64.1.9", 443, 4134)) // unwatched port

	series := c.PerAddressSeries(u, 445)
	if len(series) != 512 {
		t.Fatalf("series length = %d, want 512", len(series))
	}
	if series[5] != 2 {
		t.Errorf("series[5] = %d, want 2 unique scanners", series[5])
	}
	if series[256+9] != 1 {
		t.Errorf("series[265] = %d, want 1", series[256+9])
	}
	if series[0] != 0 {
		t.Errorf("untouched address should be 0")
	}
	if got := c.PerAddressSeries(u, 443); got != nil {
		t.Errorf("unwatched port series = %v, want nil", got)
	}
}

// TestRollingMedianWindow checks BlockMeans: one mean per complete,
// non-overlapping block, and nothing for a block that does not fill.
func TestRollingMedianWindow(t *testing.T) {
	series := []int{1, 1, 1, 1, 9, 9, 9, 9}
	got := BlockMeans(series, 4)
	if len(got) != 2 || got[0] != 1 || got[1] != 9 {
		t.Errorf("windows = %v, want [1 9]", got)
	}
	if got := BlockMeans(series, 0); got != nil {
		t.Errorf("zero window = %v", got)
	}
	if got := BlockMeans(nil, 4); got != nil {
		t.Errorf("empty series = %v", got)
	}
	// Window larger than series: no complete window.
	if got := BlockMeans([]int{1, 2}, 4); len(got) != 0 {
		t.Errorf("oversized window = %v", got)
	}
}

// TestCollectorMergeEquivalentToSerial splits one probe stream across
// two shard collectors and checks that merging them reproduces the
// serial collector exactly — the invariant the parallel study pipeline
// depends on.
func TestCollectorMergeEquivalentToSerial(t *testing.T) {
	u := telUniverse(t)
	probes := []*netsim.Probe{
		mkProbe("1.1.1.1", "100.64.0.5", 22, 4134),
		mkProbe("1.1.1.1", "100.64.0.6", 22, 4134),
		mkProbe("2.2.2.2", "100.64.0.5", 22, 174),
		mkProbe("2.2.2.2", "100.64.1.9", 445, 174),
		mkProbe("3.3.3.3", "100.64.1.9", 443, 999999), // unwatched, unknown AS
		mkProbe("3.3.3.3", "100.64.0.5", 22, 4134),    // src seen by both shards
	}

	serial := New()
	for _, p := range probes {
		serial.Observe(p)
	}

	a, b := New(), New()
	for i, p := range probes {
		if i%2 == 0 {
			a.Observe(p)
		} else {
			b.Observe(p)
		}
	}
	merged := New()
	merged.Merge(a)
	merged.Merge(b)

	if merged.Packets() != serial.Packets() {
		t.Errorf("packets = %d, want %d", merged.Packets(), serial.Packets())
	}
	for _, port := range []uint16{22, 443, 445} {
		if got, want := len(merged.UniqueSources(port)), len(serial.UniqueSources(port)); got != want {
			t.Errorf("port %d unique srcs = %d, want %d", port, got, want)
		}
		mf, sf := merged.ASFrequencies(port), serial.ASFrequencies(port)
		if len(mf) != len(sf) {
			t.Fatalf("port %d AS tables differ: %v vs %v", port, mf, sf)
		}
		for k, v := range sf {
			if mf[k] != v {
				t.Errorf("port %d AS %q = %v, want %v", port, k, mf[k], v)
			}
		}
	}
	for _, port := range []uint16{22, 445} {
		ms, ss := merged.PerAddressSeries(u, port), serial.PerAddressSeries(u, port)
		if len(ms) != len(ss) {
			t.Fatalf("port %d series lengths differ", port)
		}
		for i := range ss {
			if ms[i] != ss[i] {
				t.Errorf("port %d series[%d] = %d, want %d", port, i, ms[i], ss[i])
			}
		}
	}
	if got, want := len(merged.AllSources()), len(serial.AllSources()); got != want {
		t.Errorf("all srcs = %d, want %d", got, want)
	}
}

// TestCollectorMergeIntoEmpty checks merging into a fresh collector
// copies rather than aliases the source's maps.
func TestCollectorMergeIntoEmpty(t *testing.T) {
	a := New()
	a.Observe(mkProbe("1.1.1.1", "100.64.0.5", 22, 4134))
	merged := New()
	merged.Merge(a)
	merged.Observe(mkProbe("2.2.2.2", "100.64.0.5", 22, 174))
	if len(a.UniqueSources(22)) != 1 {
		t.Errorf("merge aliased source collector: %d srcs", len(a.UniqueSources(22)))
	}
	if len(merged.UniqueSources(22)) != 2 {
		t.Errorf("merged srcs = %d, want 2", len(merged.UniqueSources(22)))
	}
}

// TestWatchedPorts checks that exactly WatchPorts, in Figure 1's panel
// order, get per-destination series.
func TestWatchedPorts(t *testing.T) {
	if want := []uint16{22, 445, 80, 17128}; !slices.Equal(WatchPorts, want) {
		t.Fatalf("WatchPorts = %v, want %v", WatchPorts, want)
	}
	u := telUniverse(t)
	c := New()
	ports := append([]uint16{23, 443, 8080}, WatchPorts...)
	for _, port := range ports {
		c.Observe(mkProbe("1.1.1.1", "100.64.0.5", port, 4134))
	}
	for _, port := range ports {
		series := c.PerAddressSeries(u, port)
		if watch := slices.Contains(WatchPorts, port); watch != (series != nil) {
			t.Errorf("port %d: watched %v, series %v", port, watch, series != nil)
		}
		if series != nil && series[5] != 1 {
			t.Errorf("port %d series[5] = %d, want 1", port, series[5])
		}
	}
}

func TestCollectorSelfMergeNoOp(t *testing.T) {
	c := New()
	c.Observe(mkProbe("1.1.1.1", "100.64.0.5", 22, 4134))
	c.Merge(c)
	if c.Packets() != 1 {
		t.Errorf("self-merge changed packets: %d, want 1", c.Packets())
	}
	if got := c.ASFrequencies(22)["AS4134 Chinanet"]; got != 1 {
		t.Errorf("self-merge changed AS count: %v, want 1", got)
	}
}

// TestObserveCachesFlushOnReads checks that interleaved ports, ASNs,
// and repeated sources produce exactly the per-probe counts, whether
// read directly or after Merge.
func TestObserveCachesFlushOnReads(t *testing.T) {
	c := New()
	probes := []*netsim.Probe{
		mkProbe("10.0.0.1", "1.1.1.1", 22, 4134),
		mkProbe("10.0.0.1", "1.1.1.1", 22, 4134),
		mkProbe("10.0.0.1", "1.1.1.2", 22, 4134),
		mkProbe("10.0.0.2", "1.1.1.1", 23, 4134),
		mkProbe("10.0.0.2", "1.1.1.1", 22, 16276),
		mkProbe("10.0.0.1", "1.1.1.1", 22, 16276),
		mkProbe("10.0.0.1", "1.1.1.1", 22, 4134),
	}
	for _, p := range probes {
		c.Observe(p)
	}
	f := c.ASFrequencies(22)
	chinanet := netsim.MustAS(4134).Key()
	ovh := netsim.MustAS(16276).Key()
	if f[chinanet] != 4 || f[ovh] != 2 {
		t.Fatalf("port 22 AS counts = %v, want %s:4 %s:2", f, chinanet, ovh)
	}
	if g := c.ASFrequencies(23); g[chinanet] != 1 {
		t.Fatalf("port 23 AS counts = %v", g)
	}
	if len(c.UniqueSources(22)) != 2 || len(c.UniqueSources(23)) != 1 {
		t.Fatalf("unique sources = %d/%d", len(c.UniqueSources(22)), len(c.UniqueSources(23)))
	}

	// Split across two collectors and merged.
	a, b := New(), New()
	for _, p := range probes[:3] {
		a.Observe(p)
	}
	for _, p := range probes[3:] {
		b.Observe(p)
	}
	a.Merge(b)
	got := a.ASFrequencies(22)
	for k, v := range f {
		if got[k] != v {
			t.Fatalf("merged AS %q = %v, want %v", k, got[k], v)
		}
	}
	if a.Packets() != c.Packets() {
		t.Fatalf("merged packets = %d, want %d", a.Packets(), c.Packets())
	}
}

// TestMergedCollectorConcurrentReads locks in the read-path contract:
// the readers perform no writes, so concurrent experiment fan-out over
// a merged collector is race-free (run under -race).
func TestMergedCollectorConcurrentReads(t *testing.T) {
	shard := New()
	for i := 0; i < 50; i++ {
		shard.Observe(mkProbe("10.0.0.1", "1.1.1.1", 22, 4134))
		shard.Observe(mkProbe("10.0.0.2", "1.1.1.2", 23, 16276))
	}
	merged := New()
	merged.Merge(shard)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = merged.ASFrequencies(22)
				_ = merged.ASFrequenciesAll()
				_ = len(merged.UniqueSources(23))
			}
		}()
	}
	wg.Wait()
	if f := merged.ASFrequencies(22); f[netsim.MustAS(4134).Key()] != 50 {
		t.Fatalf("merged AS counts wrong after concurrent reads: %v", f)
	}
}

// TestCollectorCloneIsolation checks the incremental-chain contract:
// a clone carries the original's aggregated state exactly, and merging
// new shards into the clone never mutates the original — while the
// shared watch-log columns keep extending append-style.
func TestCollectorCloneIsolation(t *testing.T) {
	u := telUniverse(t)
	orig := New()
	orig.Observe(mkProbe("1.1.1.1", "100.64.0.5", 22, 4134))
	orig.Observe(mkProbe("2.2.2.2", "100.64.0.5", 22, 174))
	orig.Observe(mkProbe("2.2.2.2", "100.64.1.9", 445, 174))

	clone := orig.Clone()
	if clone.Packets() != orig.Packets() {
		t.Fatalf("clone packets = %d, want %d", clone.Packets(), orig.Packets())
	}
	chinanet := netsim.MustAS(4134).Key()
	if len(clone.UniqueSources(22)) != 2 || clone.ASFrequencies(22)[chinanet] != 1 {
		t.Fatalf("clone lost aggregated state: %d srcs, AS table %v",
			len(clone.UniqueSources(22)), clone.ASFrequencies(22))
	}
	wantSeries := orig.PerAddressSeries(u, 22)
	gotSeries := clone.PerAddressSeries(u, 22)
	for i := range wantSeries {
		if gotSeries[i] != wantSeries[i] {
			t.Fatalf("clone series[%d] = %d, want %d", i, gotSeries[i], wantSeries[i])
		}
	}

	// Extend the clone with a new shard; the original must not move.
	shard := New()
	shard.Observe(mkProbe("3.3.3.3", "100.64.0.7", 22, 4134))
	shard.Observe(mkProbe("3.3.3.3", "100.64.1.9", 445, 4134))
	clone.Merge(shard)

	if orig.Packets() != 3 || clone.Packets() != 5 {
		t.Fatalf("packets after merge = orig %d / clone %d, want 3 / 5", orig.Packets(), clone.Packets())
	}
	if len(orig.UniqueSources(22)) != 2 || len(clone.UniqueSources(22)) != 3 {
		t.Fatalf("port 22 srcs after merge = orig %d / clone %d, want 2 / 3",
			len(orig.UniqueSources(22)), len(clone.UniqueSources(22)))
	}
	if orig.ASFrequencies(22)[chinanet] != 1 || clone.ASFrequencies(22)[chinanet] != 2 {
		t.Fatalf("AS counts after merge = orig %v / clone %v",
			orig.ASFrequencies(22)[chinanet], clone.ASFrequencies(22)[chinanet])
	}
	// Figure 1 series: the clone sees the new destination, the
	// original still renders its own window.
	if s := orig.PerAddressSeries(u, 22); s[7] != 0 {
		t.Fatalf("original series gained the clone's destination: %v", s[7])
	}
	if s := clone.PerAddressSeries(u, 22); s[7] != 1 || s[5] != 2 {
		t.Fatalf("clone series = dst7:%d dst5:%d, want 1 and 2", s[7], s[5])
	}
	if s := clone.PerAddressSeries(u, 445); s[256+9] != 2 {
		t.Fatalf("clone port 445 series[265] = %d, want 2 unique scanners", s[256+9])
	}
}
