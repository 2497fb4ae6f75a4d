package wire

import (
	"testing"
	"testing/quick"
)

func TestParseAddrRoundTripProperty(t *testing.T) {
	f := func(v uint32) bool {
		a := Addr(v)
		parsed, err := ParseAddr(a.String())
		return err == nil && parsed == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestParseAddrErrors(t *testing.T) {
	bad := []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "-1.2.3.4", "a.b.c.d", "01.2.3.4", "1..2.3"}
	for _, s := range bad {
		if _, err := ParseAddr(s); err == nil {
			t.Errorf("ParseAddr(%q) should fail", s)
		}
	}
	good := map[string]Addr{
		"0.0.0.0":         0,
		"255.255.255.255": 0xFFFFFFFF,
		"10.0.0.1":        AddrFrom4(10, 0, 0, 1),
		"203.0.113.77":    AddrFrom4(203, 0, 113, 77),
	}
	for s, want := range good {
		got, err := ParseAddr(s)
		if err != nil || got != want {
			t.Errorf("ParseAddr(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
}

func TestMustParseAddrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseAddr should panic on bad input")
		}
	}()
	MustParseAddr("not-an-ip")
}

func TestOctets(t *testing.T) {
	a := MustParseAddr("1.2.3.4")
	if o := a.Octets(); o != [4]byte{1, 2, 3, 4} {
		t.Errorf("Octets = %v", o)
	}
	for i, want := range []byte{1, 2, 3, 4} {
		if got := a.Octet(i); got != want {
			t.Errorf("Octet(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestOctetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Octet(4) should panic")
		}
	}()
	Addr(0).Octet(4)
}

func TestAddressStructurePredicates(t *testing.T) {
	cases := []struct {
		s                      string
		broadcast, s16, has255 bool
	}{
		{"10.0.0.255", true, false, true},
		{"10.0.255.1", false, false, true},
		{"10.255.0.0", false, true, true},
		{"10.7.0.0", false, true, false},
		{"10.7.1.0", false, false, false},
		{"255.0.0.1", false, false, true},
	}
	for _, c := range cases {
		a := MustParseAddr(c.s)
		if got := a.IsBroadcastStyle(); got != c.broadcast {
			t.Errorf("%s IsBroadcastStyle = %v, want %v", c.s, got, c.broadcast)
		}
		if got := a.IsSlash16Start(); got != c.s16 {
			t.Errorf("%s IsSlash16Start = %v, want %v", c.s, got, c.s16)
		}
		if got := a.HasOctet(255); got != c.has255 {
			t.Errorf("%s HasOctet(255) = %v, want %v", c.s, got, c.has255)
		}
	}
}

func TestBlockParseAndContains(t *testing.T) {
	b := MustParseBlock("198.51.100.0/24")
	if b.Size() != 256 {
		t.Errorf("Size = %d, want 256", b.Size())
	}
	if !b.Contains(MustParseAddr("198.51.100.77")) {
		t.Error("should contain 198.51.100.77")
	}
	if b.Contains(MustParseAddr("198.51.101.0")) {
		t.Error("should not contain 198.51.101.0")
	}
	if got := b.Nth(77); got != MustParseAddr("198.51.100.77") {
		t.Errorf("Nth(77) = %v", got)
	}
	if i, ok := b.Index(MustParseAddr("198.51.100.200")); !ok || i != 200 {
		t.Errorf("Index = %d, %v", i, ok)
	}
	if _, ok := b.Index(MustParseAddr("9.9.9.9")); ok {
		t.Error("Index outside block should report !ok")
	}
	if b.String() != "198.51.100.0/24" {
		t.Errorf("String = %q", b.String())
	}
}

func TestBlockNormalizesBase(t *testing.T) {
	b := MustParseBlock("198.51.100.99/24")
	if b.Base != MustParseAddr("198.51.100.0") {
		t.Errorf("Base = %v, want 198.51.100.0", b.Base)
	}
}

func TestBlockErrors(t *testing.T) {
	for _, s := range []string{"1.2.3.4", "1.2.3.4/33", "1.2.3.4/-1", "bad/24", "1.2.3.4/x"} {
		if _, err := ParseBlock(s); err == nil {
			t.Errorf("ParseBlock(%q) should fail", s)
		}
	}
}

func TestBlockNthPanicsOutside(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Nth outside block should panic")
		}
	}()
	MustParseBlock("10.0.0.0/30").Nth(4)
}

func TestBlockContainsNthRoundTripProperty(t *testing.T) {
	f := func(v uint32, bitsRaw uint8) bool {
		bits := 8 + int(bitsRaw%25) // /8../32
		b := Block{Bits: bits}
		b.Base = Addr(v) & b.mask()
		for _, i := range []int{0, b.Size() - 1, b.Size() / 2} {
			a := b.Nth(i)
			if !b.Contains(a) {
				return false
			}
			j, ok := b.Index(a)
			if !ok || j != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
