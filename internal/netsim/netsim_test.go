package netsim

import (
	"testing"
	"testing/quick"
	"time"

	"cloudwatch/internal/wire"
)

func TestStreamDeterministic(t *testing.T) {
	a := Stream(42, "mirai")
	b := Stream(42, "mirai")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed+name must yield identical streams")
		}
	}
}

func TestStreamIndependentNames(t *testing.T) {
	a := Stream(42, "mirai")
	b := Stream(42, "tsunami")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different names should decorrelate: %d identical draws", same)
	}
}

func TestStreamSeedSensitivity(t *testing.T) {
	if Stream(1, "x").Uint64() == Stream(2, "x").Uint64() {
		t.Error("different seeds should differ")
	}
}

func TestPickWeighted(t *testing.T) {
	rng := Stream(9, "weights")
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[PickWeighted(rng, []float64{1, 0, 9})]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index picked %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 7 || ratio > 11 {
		t.Errorf("9:1 weights gave ratio %v", ratio)
	}
	// Degenerate all-zero weights fall back to uniform.
	idx := PickWeighted(rng, []float64{0, 0})
	if idx != 0 && idx != 1 {
		t.Errorf("uniform fallback picked %d", idx)
	}
}

func TestPickWeightedInRangeProperty(t *testing.T) {
	rng := Stream(1, "prop")
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		idx := PickWeighted(rng, raw)
		return idx >= 0 && idx < len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestASRegistry(t *testing.T) {
	a, ok := LookupAS(4134)
	if !ok || a.Name != "Chinanet" {
		t.Errorf("LookupAS(4134) = %+v, %v", a, ok)
	}
	if _, ok := LookupAS(99999999); ok {
		t.Error("unknown ASN should not resolve")
	}
	if a.Key() != "AS4134 Chinanet" {
		t.Errorf("Key = %q", a.Key())
	}
	if len(AllAS()) < 40 {
		t.Errorf("registry has %d ASes, want >= 40", len(AllAS()))
	}
	// ASNs must be unique.
	seen := map[int]bool{}
	for _, a := range AllAS() {
		if seen[a.ASN] {
			t.Errorf("duplicate ASN %d", a.ASN)
		}
		seen[a.ASN] = true
	}
}

func TestMustASPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAS on unknown ASN should panic")
		}
	}()
	MustAS(424242)
}

func mkTarget(id string, ip string, region string, kind NetworkKind) *Target {
	return &Target{
		ID:     id,
		IP:     wire.MustParseAddr(ip),
		Kind:   kind,
		Region: region,
		Ports:  []uint16{22, 80},
	}
}

func TestUniverseBasics(t *testing.T) {
	targets := []*Target{
		mkTarget("a:1", "10.0.0.1", "a", KindCloud),
		mkTarget("a:2", "10.0.0.2", "a", KindCloud),
		mkTarget("edu:1", "10.1.0.1", "edu", KindEducation),
		mkTarget("tel:1", "10.2.0.1", "tel", KindTelescope),
	}
	u, err := NewUniverse(targets)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := u.ByIP(wire.MustParseAddr("10.0.0.2")); !ok || got.ID != "a:2" {
		t.Errorf("ByIP = %+v, %v", got, ok)
	}
	if got, ok := u.ByID("edu:1"); !ok || got.Kind != KindEducation {
		t.Errorf("ByID = %+v, %v", got, ok)
	}
	if len(u.Region("a")) != 2 {
		t.Errorf("region a has %d targets", len(u.Region("a")))
	}
	if got := u.Regions(); len(got) != 3 || got[0] != "a" {
		t.Errorf("Regions = %v", got)
	}
	if len(u.ServiceTargets()) != 3 {
		t.Errorf("ServiceTargets = %d, want 3", len(u.ServiceTargets()))
	}
}

func TestUniverseTelescopeBlocks(t *testing.T) {
	u, err := NewUniverse(nil)
	if err != nil {
		t.Fatal(err)
	}
	u.TelescopeBlocks = []wire.Block{
		wire.MustParseBlock("100.64.0.0/24"),
		wire.MustParseBlock("100.64.1.0/24"),
	}
	if got := u.TelescopeSize(); got != 512 {
		t.Errorf("TelescopeSize = %d, want 512", got)
	}
	if !u.InTelescope(wire.MustParseAddr("100.64.1.77")) {
		t.Error("address in second block should be in telescope")
	}
	if u.InTelescope(wire.MustParseAddr("100.64.2.1")) {
		t.Error("address outside blocks should not be in telescope")
	}
	if got := u.TelescopeAddr(0); got != wire.MustParseAddr("100.64.0.0") {
		t.Errorf("TelescopeAddr(0) = %v", got)
	}
	if got := u.TelescopeAddr(256); got != wire.MustParseAddr("100.64.1.0") {
		t.Errorf("TelescopeAddr(256) = %v", got)
	}
	if got := u.TelescopeAddr(511); got != wire.MustParseAddr("100.64.1.255") {
		t.Errorf("TelescopeAddr(511) = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("TelescopeAddr out of range should panic")
		}
	}()
	u.TelescopeAddr(512)
}

func TestUniverseRejectsDuplicates(t *testing.T) {
	dupIP := []*Target{
		mkTarget("x:1", "10.0.0.1", "x", KindCloud),
		mkTarget("x:2", "10.0.0.1", "x", KindCloud),
	}
	if _, err := NewUniverse(dupIP); err == nil {
		t.Error("duplicate IP should be rejected")
	}
	dupID := []*Target{
		mkTarget("x:1", "10.0.0.1", "x", KindCloud),
		mkTarget("x:1", "10.0.0.2", "x", KindCloud),
	}
	if _, err := NewUniverse(dupID); err == nil {
		t.Error("duplicate ID should be rejected")
	}
	noID := []*Target{mkTarget("", "10.0.0.1", "x", KindCloud)}
	if _, err := NewUniverse(noID); err == nil {
		t.Error("empty ID should be rejected")
	}
}

func TestTargetListensOn(t *testing.T) {
	tgt := mkTarget("a:1", "10.0.0.1", "a", KindCloud)
	if !tgt.ListensOn(22) || tgt.ListensOn(443) {
		t.Error("explicit port list broken")
	}
	tel := mkTarget("tel:1", "10.2.0.1", "tel", KindTelescope)
	tel.Ports = nil
	if !tel.ListensOn(17128) {
		t.Error("telescope should listen on all ports")
	}
}

func TestGeoLabel(t *testing.T) {
	if (Geo{Country: "US", Sub: "CA"}).Label() != "US-CA" {
		t.Error("US sub label")
	}
	if (Geo{Country: "SG"}).Label() != "SG" {
		t.Error("country-only label")
	}
}

func TestHourOf(t *testing.T) {
	if HourOf(StudyStart) != 0 {
		t.Error("start hour")
	}
	if HourOf(StudyStart.Add(3*time.Hour+30*time.Minute)) != 3 {
		t.Error("mid-study hour")
	}
	if HourOf(StudyStart.Add(-time.Hour)) != 0 {
		t.Error("before-start clamp")
	}
	if HourOf(StudyStart.Add(10*24*time.Hour)) != StudyHours-1 {
		t.Error("after-end clamp")
	}
}

func TestKindStrings(t *testing.T) {
	if KindCloud.String() != "cloud" || KindEducation.String() != "education" || KindTelescope.String() != "telescope" {
		t.Error("NetworkKind strings")
	}
	if NetworkKind(9).String() != "unknown" {
		t.Error("unknown kind")
	}
	if CollectGreyNoise.String() != "greynoise" || CollectHoneytrap.String() != "honeytrap" || CollectTelescope.String() != "telescope" {
		t.Error("CollectorKind strings")
	}
	if CollectorKind(9).String() != "unknown" {
		t.Error("unknown collector")
	}
}

// TestUniverseTelescopeIndexUnsortedBlocks drives the binary-search
// telescope index with blocks declared out of address order: lookups
// must agree with a straight linear scan and TelescopeIndex must
// invert TelescopeAddr over the whole space.
func TestUniverseTelescopeIndexUnsortedBlocks(t *testing.T) {
	u, err := NewUniverse(nil)
	if err != nil {
		t.Fatal(err)
	}
	u.TelescopeBlocks = []wire.Block{
		wire.MustParseBlock("198.51.100.0/24"),
		wire.MustParseBlock("100.64.0.0/23"),
		wire.MustParseBlock("192.0.2.0/25"),
	}
	size := 0
	for _, b := range u.TelescopeBlocks {
		size += b.Size()
	}
	if got := u.TelescopeSize(); got != size {
		t.Fatalf("TelescopeSize = %d, want %d", got, size)
	}
	for i := 0; i < size; i++ {
		addr := u.TelescopeAddr(i)
		// Linear-scan reference for the block-order address mapping.
		j, want := i, wire.Addr(0)
		for _, b := range u.TelescopeBlocks {
			if j < b.Size() {
				want = b.Nth(j)
				break
			}
			j -= b.Size()
		}
		if addr != want {
			t.Fatalf("TelescopeAddr(%d) = %v, want %v", i, addr, want)
		}
		if !u.InTelescope(addr) {
			t.Fatalf("telescope address %v not reported in telescope", addr)
		}
		back, ok := u.TelescopeIndex(addr)
		if !ok || back != i {
			t.Fatalf("TelescopeIndex(%v) = %d,%v, want %d,true", addr, back, ok, i)
		}
	}
	for _, outside := range []string{"100.64.2.0", "192.0.2.128", "198.51.101.0", "0.0.0.0", "255.255.255.255"} {
		a := wire.MustParseAddr(outside)
		if u.InTelescope(a) {
			t.Errorf("InTelescope(%s) = true, want false", outside)
		}
		if _, ok := u.TelescopeIndex(a); ok {
			t.Errorf("TelescopeIndex(%s) resolved an outside address", outside)
		}
	}
}
