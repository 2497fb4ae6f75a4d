package scanners

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"cloudwatch/internal/netsim"
	"cloudwatch/internal/searchengine"
	"cloudwatch/internal/wire"
)

func miniUniverse(t *testing.T) *netsim.Universe {
	t.Helper()
	targets := []*netsim.Target{
		{ID: "aws:ap-sydney:0", IP: wire.MustParseAddr("52.16.0.10"), Network: "aws",
			Kind: netsim.KindCloud, Region: "aws:ap-sydney",
			Geo:   netsim.Geo{Country: "AU", Continent: "APAC"},
			Ports: []uint16{22, 23, 80}, Collector: netsim.CollectGreyNoise},
		{ID: "aws:ap-sydney:1", IP: wire.MustParseAddr("52.16.0.11"), Network: "aws",
			Kind: netsim.KindCloud, Region: "aws:ap-sydney",
			Geo:   netsim.Geo{Country: "AU", Continent: "APAC"},
			Ports: []uint16{22, 23, 80}, Collector: netsim.CollectGreyNoise},
		{ID: "stanford:0", IP: wire.MustParseAddr("171.64.0.10"), Network: "stanford",
			Kind: netsim.KindEducation, Region: "stanford:us-west",
			Geo:   netsim.Geo{Country: "US", Sub: "CA", Continent: "NA"},
			Ports: []uint16{22, 23, 80}, Collector: netsim.CollectHoneytrap},
	}
	u, err := netsim.NewUniverse(targets)
	if err != nil {
		t.Fatal(err)
	}
	u.TelescopeBlocks = []wire.Block{wire.MustParseBlock("100.64.0.0/24")}
	return u
}

func miniContext(t *testing.T) *Context {
	u := miniUniverse(t)
	censys := searchengine.New("censys")
	shodan := searchengine.New("shodan")
	censys.Crawl(u, netsim.StudyStart)
	shodan.Crawl(u, netsim.StudyStart)
	return &Context{U: u, Censys: censys, Shodan: shodan, Seed: 7}
}

func TestSourceIPsDeterministicAndDisjoint(t *testing.T) {
	as := netsim.MustAS(4134)
	a := SourceIPs(as, "x", 50, 1)
	b := SourceIPs(as, "x", 50, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("SourceIPs not deterministic")
		}
	}
	c := SourceIPs(as, "y", 50, 1)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > 5 {
		t.Errorf("different salts should give different hosts: %d matches", same)
	}
	// Uniqueness within one allocation.
	seen := map[wire.Addr]bool{}
	for _, ip := range a {
		if seen[ip] {
			t.Fatal("duplicate source IP")
		}
		seen[ip] = true
	}
}

func TestSourceIPsAvoidVantagePools(t *testing.T) {
	for _, asn := range []int{4134, 398324, 53667, 16509} {
		for _, ip := range SourceIPs(netsim.MustAS(asn), "t", 100, 3) {
			first := ip.Octet(0)
			switch {
			case first >= 52 && first <= 55, first >= 34 && first <= 37,
				first >= 20 && first <= 23, first == 172, first == 216,
				first == 171, first == 198, first == 100:
				t.Fatalf("source %v collides with a vantage pool", ip)
			}
		}
	}
}

func TestScanServicesRespectsFilterAndPorts(t *testing.T) {
	ctx := miniContext(t)
	actor := &Actor{Name: "t", AS: netsim.MustAS(4134), IPs: SourceIPs(netsim.MustAS(4134), "t", 20, 7)}
	var probes []netsim.Probe
	actor.ScanServices(ctx, func(p *netsim.Probe) { probes = append(probes, *p) }, ServiceScan{
		Ports: []uint16{22, 9999}, Cover: 1.0, MinAttempts: 1,
		Filter: func(tg *netsim.Target) bool { return tg.Kind == netsim.KindCloud },
	})
	if len(probes) != 40 { // 20 srcs x 2 cloud targets x port 22 only
		t.Fatalf("probes = %d, want 40", len(probes))
	}
	for _, p := range probes {
		if p.Port != 22 {
			t.Errorf("closed port probed: %d", p.Port)
		}
		tg, ok := ctx.U.ByIP(p.Dst)
		if !ok || tg.Kind != netsim.KindCloud {
			t.Errorf("filter violated: %v", p.Dst)
		}
		if p.T.Before(netsim.StudyStart) {
			t.Error("timestamp before study start")
		}
	}
}

func TestScanTelescopeStaysInBlocks(t *testing.T) {
	ctx := miniContext(t)
	actor := &Actor{Name: "t", AS: netsim.MustAS(4134), IPs: SourceIPs(netsim.MustAS(4134), "t", 5, 7)}
	var probes []netsim.Probe
	actor.ScanTelescope(ctx, func(p *netsim.Probe) { probes = append(probes, *p) }, TelescopeScan{
		Ports: []uint16{445}, PerIP: 30,
	})
	if len(probes) != 150 {
		t.Fatalf("probes = %d, want 150", len(probes))
	}
	for _, p := range probes {
		if !ctx.U.InTelescope(p.Dst) {
			t.Fatalf("telescope probe escaped blocks: %v", p.Dst)
		}
		if p.Payload != nil {
			t.Error("telescope probes carry no payload")
		}
	}
}

func TestAvoid255Picker(t *testing.T) {
	ctx := miniContext(t)
	rng := netsim.Stream(1, "avoid")
	pick := Avoid255(9)
	has255, total := 0, 20000
	for i := 0; i < total; i++ {
		if pick(rng, ctx.U).HasOctet(255) {
			has255++
		}
	}
	// Uniform expectation in a /24: 1/256 ≈ 78 of 20000; with 9x
	// avoidance ≈ 9. Allow generous bounds.
	if has255 > 40 {
		t.Errorf("255-octet picks = %d, avoidance not applied", has255)
	}
	if has255 == 0 {
		t.Error("255-octet picks = 0, avoidance too strong (should be rare, not impossible)")
	}
}

func TestFixedTelescopeSet(t *testing.T) {
	ctx := miniContext(t)
	rng := netsim.Stream(1, "fixed")
	pick := FixedTelescopeSet([]int{5, 9})
	seen := map[wire.Addr]bool{}
	for i := 0; i < 100; i++ {
		seen[pick(rng, ctx.U)] = true
	}
	if len(seen) != 2 {
		t.Errorf("fixed set produced %d distinct addresses, want 2", len(seen))
	}
}

func TestPopulationConstruction(t *testing.T) {
	actors := Population(Config{Seed: 1, Year: 2021, Scale: 0.3})
	if len(actors) < 100 {
		t.Fatalf("population has %d actors, want >= 100", len(actors))
	}
	names := map[string]bool{}
	benign := 0
	for _, a := range actors {
		if names[a.Name] {
			t.Errorf("duplicate actor name %q", a.Name)
		}
		names[a.Name] = true
		if len(a.IPs) == 0 {
			t.Errorf("actor %q has no source IPs", a.Name)
		}
		if a.Benign {
			benign++
		}
	}
	if benign < 3 {
		t.Errorf("population has %d benign actors, want >= 3", benign)
	}
	// The named behaviors of the paper must exist.
	for _, want := range []string{"censys", "shodan", "mirai-4134", "emirates-mumbai",
		"satnet-not-mumbai", "smb445-sweep", "port17128-botnet", "chinanet-ssh",
		"miner-http-censys", "nmap-avast", "mirai-huawei-au"} {
		if !names[want] {
			t.Errorf("population missing actor %q", want)
		}
	}
}

func TestPopulationYearVariants(t *testing.T) {
	base := Population(Config{Seed: 1, Year: 2021, Scale: 0.2})
	y2020 := Population(Config{Seed: 1, Year: 2020, Scale: 0.2})
	if len(y2020) <= len(base) {
		t.Error("2020 population should add anomaly actors")
	}
	found := false
	for _, a := range y2020 {
		if strings.HasPrefix(a.Name, "anomaly2020-") {
			found = true
		}
	}
	if !found {
		t.Error("2020 anomaly actors missing")
	}
}

func TestPopulationGenerationDeterministic(t *testing.T) {
	run := func() []netsim.Probe {
		ctx := miniContext(t)
		var probes []netsim.Probe
		for _, a := range Population(Config{Seed: 7, Year: 2021, Scale: 0.1}) {
			a.Run(ctx, func(p *netsim.Probe) { probes = append(probes, *p) })
		}
		return probes
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("probe counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Src != b[i].Src || a[i].Dst != b[i].Dst || !a[i].T.Equal(b[i].T) {
			t.Fatalf("probe %d differs", i)
		}
	}
}

func TestHTTPExploitsPanicsOnUnknownGroup(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown group should panic")
		}
	}()
	HTTPExploits("no-such-group")
}

func TestPickCreds(t *testing.T) {
	rng := netsim.Stream(1, "creds")
	dict := TelnetDictGlobal()
	got := (&Actor{}).pickCreds(rng, dict, 2, 5)
	if len(got) < 2 || len(got) > 5 {
		t.Errorf("pickCreds size = %d", len(got))
	}
	// No duplicates.
	seen := map[netsim.Credential]bool{}
	for _, c := range got {
		if seen[c] {
			t.Error("duplicate credential")
		}
		seen[c] = true
	}
	// Requesting more than the dictionary yields the whole dictionary.
	small := dict[:3]
	if got := (&Actor{}).pickCreds(rng, small, 5, 9); len(got) != 3 {
		t.Errorf("oversized request = %d creds, want 3", len(got))
	}
}

// TestCredSlabSlicesAreIsolated proves the per-actor slab hands out
// non-overlapping, capacity-clipped slices: earlier picks keep their
// contents as later picks (including chunk rollovers) fill the slab,
// and appending through a returned slice cannot reach its neighbor.
func TestCredSlabSlicesAreIsolated(t *testing.T) {
	rng := netsim.Stream(2, "slab")
	a := &Actor{}
	dict := TelnetDictGlobal()
	var picks [][]netsim.Credential
	var want [][]netsim.Credential
	for i := 0; i < 3*credSlabChunk; i++ { // force several chunk rollovers
		p := a.pickCreds(rng, dict, 1, 3)
		picks = append(picks, p)
		want = append(want, append([]netsim.Credential(nil), p...))
	}
	for i, p := range picks {
		if cap(p) != len(p) {
			t.Fatalf("pick %d: cap %d > len %d (append could cross into the next allocation)", i, cap(p), len(p))
		}
		for j := range p {
			if p[j] != want[i][j] {
				t.Fatalf("pick %d clobbered by a later slab allocation", i)
			}
		}
	}
}

// TestActorsConcurrentRunDeterministic exercises the Actor.Run
// concurrency contract: distinct actors running on concurrent workers
// against a shared Context emit exactly the probe streams they emit
// serially, because every random draw comes from actor-name-keyed
// streams.
func TestActorsConcurrentRunDeterministic(t *testing.T) {
	ctx := miniContext(t)
	actors := Population(Config{Seed: 7, Year: 2021, Scale: 0.4})

	serial := make([][]netsim.Probe, len(actors))
	for i, a := range actors {
		a.Run(ctx, func(p *netsim.Probe) { serial[i] = append(serial[i], *p) })
	}

	concurrent := make([][]netsim.Probe, len(actors))
	var wg sync.WaitGroup
	for i, a := range actors {
		wg.Add(1)
		go func(i int, a *Actor) {
			defer wg.Done()
			a.Run(ctx, func(p *netsim.Probe) { concurrent[i] = append(concurrent[i], *p) })
		}(i, a)
	}
	wg.Wait()

	for i := range actors {
		if len(serial[i]) != len(concurrent[i]) {
			t.Fatalf("actor %s emitted %d probes concurrently, %d serially",
				actors[i].Name, len(concurrent[i]), len(serial[i]))
		}
		for j := range serial[i] {
			sp, cp := serial[i][j], concurrent[i][j]
			if sp.Src != cp.Src || sp.Dst != cp.Dst || sp.Port != cp.Port ||
				!sp.T.Equal(cp.T) || sp.ASN != cp.ASN || sp.Transport != cp.Transport ||
				!bytes.Equal(sp.Payload, cp.Payload) || len(sp.Creds) != len(cp.Creds) {
				t.Fatalf("actor %s probe %d differs between serial and concurrent runs",
					actors[i].Name, j)
			}
			for k := range sp.Creds {
				if sp.Creds[k] != cp.Creds[k] {
					t.Fatalf("actor %s probe %d credential %d differs", actors[i].Name, j, k)
				}
			}
		}
	}
}
