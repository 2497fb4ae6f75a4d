package cloud

import (
	"testing"

	"cloudwatch/internal/netsim"
)

func TestRegionCounts(t *testing.T) {
	byProvider := map[Provider]int{}
	for _, r := range GreyNoiseRegions {
		byProvider[r.Provider]++
	}
	want := map[Provider]int{AWS: 16, Azure: 3, Google: 21, Linode: 7, Hurricane: 1}
	for p, n := range want {
		if byProvider[p] != n {
			t.Errorf("%s has %d regions, want %d (Table 1)", p, byProvider[p], n)
		}
	}
}

func TestRegionCountries(t *testing.T) {
	countries := map[string]bool{}
	for _, r := range GreyNoiseRegions {
		countries[r.Geo.Country] = true
	}
	// Table 1 spans 23 countries counting territories separately; with
	// ISO codes (US states as subdivisions) the fleet spans 21 codes.
	if len(countries) != 21 {
		t.Errorf("GreyNoise fleet spans %d country codes, want 21", len(countries))
	}
	for _, c := range []string{"US", "SG", "IN", "AU", "JP", "KR", "HK", "DE", "FR", "GB", "BR", "ZA", "BH"} {
		if !countries[c] {
			t.Errorf("missing country %s", c)
		}
	}
}

func TestProviderKinds(t *testing.T) {
	if AWS.Kind() != netsim.KindCloud || Hurricane.Kind() != netsim.KindCloud {
		t.Error("cloud kinds")
	}
	if Stanford.Kind() != netsim.KindEducation || Merit.Kind() != netsim.KindEducation {
		t.Error("education kinds")
	}
	if Orion.Kind() != netsim.KindTelescope {
		t.Error("telescope kind")
	}
}

func TestMultiCloudCityPairCount(t *testing.T) {
	// NA/EU same-city pairs feed Table 7's cloud–cloud column (paper
	// n=10 with a larger fleet; this deployment yields 7).
	if got := len(CloudCloudPairs()); got != 7 {
		t.Errorf("cloud-cloud pairs = %d, want 7", got)
	}
	// Every referenced region must exist in the deployment.
	valid := map[string]bool{}
	for _, r := range GreyNoiseRegions {
		valid[r.Key()] = true
	}
	for _, c := range MultiCloudCities {
		for p, key := range c.Regions {
			if !valid[key] {
				t.Errorf("city %s references unknown region %s (%s)", c.City, key, p)
			}
		}
	}
}

func TestBuildDeployment(t *testing.T) {
	d, err := Build(42, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Unique IPs and IDs (enforced again by NewUniverse).
	u, err := d.Universe()
	if err != nil {
		t.Fatal(err)
	}

	// GreyNoise honeypots: 47 regions x 4 + HE x 64.
	gn := u.Filter(func(tg *netsim.Target) bool { return tg.Collector == netsim.CollectGreyNoise })
	wantGN := 47*4 + 64
	if len(gn) != wantGN {
		t.Errorf("GreyNoise honeypots = %d, want %d", len(gn), wantGN)
	}

	// Honeytrap: 64*4 + 2 + leak experiment 33.
	ht := u.Filter(func(tg *netsim.Target) bool { return tg.Collector == netsim.CollectHoneytrap })
	wantHT := 64*4 + 2 + 33
	if len(ht) != wantHT {
		t.Errorf("Honeytrap honeypots = %d, want %d", len(ht), wantHT)
	}

	if got := u.TelescopeSize(); got != 128*256 {
		t.Errorf("telescope size = %d, want %d", got, 128*256)
	}
}

func TestBuildHTTPRestriction(t *testing.T) {
	d, err := Build(1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	u, err := d.Universe()
	if err != nil {
		t.Fatal(err)
	}
	region := u.Region("aws:ap-singapore")
	if len(region) != 4 {
		t.Fatalf("aws:ap-singapore has %d honeypots, want 4", len(region))
	}
	httpCount := 0
	sshCount := 0
	for _, tg := range region {
		if tg.ListensOn(80) {
			httpCount++
		}
		if tg.ListensOn(22) {
			sshCount++
		}
	}
	if httpCount != 2 {
		t.Errorf("HTTP honeypots in region = %d, want 2 (Table 1: '4 or 2 (HTTP)')", httpCount)
	}
	if sshCount != 4 {
		t.Errorf("SSH honeypots in region = %d, want 4", sshCount)
	}
}

func TestBuildLeakGroups(t *testing.T) {
	d, err := Build(7, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	control, prev, leaked := 0, 0, 0
	censysLeaks := map[uint16]int{}
	for _, tg := range d.Targets {
		switch tg.Region {
		case "stanford:leak:control":
			control++
			if !tg.BlockSearch || tg.PrevIndexed {
				t.Error("control group flags wrong")
			}
		case "stanford:leak:prevleaked":
			prev++
			if !tg.BlockSearch || !tg.PrevIndexed {
				t.Error("previously-leaked group flags wrong")
			}
		case "stanford:leak:leaked":
			leaked++
			if tg.LeakEngine == "" || tg.LeakPort == 0 {
				t.Error("leaked group needs engine and port")
			}
			if tg.LeakEngine == "censys" {
				censysLeaks[tg.LeakPort]++
			}
		}
	}
	if control != 8 || prev != 7 || leaked != 18 {
		t.Errorf("leak groups = %d/%d/%d, want 8/7/18", control, prev, leaked)
	}
	for _, port := range []uint16{22, 23, 80} {
		if censysLeaks[port] != 3 {
			t.Errorf("censys leak group for port %d = %d, want 3", port, censysLeaks[port])
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(99, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(99, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Targets) != len(b.Targets) {
		t.Fatalf("target counts differ: %d vs %d", len(a.Targets), len(b.Targets))
	}
	for i := range a.Targets {
		if a.Targets[i].IP != b.Targets[i].IP || a.Targets[i].ID != b.Targets[i].ID {
			t.Fatalf("target %d differs between identical builds", i)
		}
	}
}

func TestBuildSeedChangesAddresses(t *testing.T) {
	a, _ := Build(1, DefaultConfig())
	b, _ := Build(2, DefaultConfig())
	same := 0
	for i := range a.Targets {
		if a.Targets[i].IP == b.Targets[i].IP {
			same++
		}
	}
	if same > len(a.Targets)/10 {
		t.Errorf("%d/%d addresses identical across seeds", same, len(a.Targets))
	}
}

func TestBuildAddressInvariants(t *testing.T) {
	d, err := Build(5, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tg := range d.Targets {
		// The paper notes none of the cloud honeypots have a non-final
		// 255 octet; our allocator avoids .0 and .255 entirely.
		oct := tg.IP.Octets()
		if oct[3] == 0 || oct[3] == 255 {
			t.Errorf("honeypot %s has reserved last octet %v", tg.ID, tg.IP)
		}
		pool := Pool(Provider(tg.Network))
		if !pool.Contains(tg.IP) {
			t.Errorf("honeypot %s IP %v outside pool %v", tg.ID, tg.IP, pool)
		}
	}
}

func TestBuildRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TelescopeSlash24s = 0
	if _, err := Build(1, cfg); err == nil {
		t.Error("TelescopeSlash24s=0 should be rejected")
	}
}

func TestPoolsDisjoint(t *testing.T) {
	providers := []Provider{AWS, Google, Azure, Linode, Hurricane, Stanford, Merit, Orion}
	for i, p := range providers {
		for _, q := range providers[i+1:] {
			a, b := Pool(p), Pool(q)
			if a.Contains(b.Base) || b.Contains(a.Base) {
				t.Errorf("pools %s and %s overlap", p, q)
			}
		}
	}
}
