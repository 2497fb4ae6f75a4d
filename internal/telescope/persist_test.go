package telescope

import (
	"reflect"
	"testing"
	"time"

	"cloudwatch/internal/netsim"
	"cloudwatch/internal/wire"
)

func persistTestCollector() *Collector {
	c := New()
	probe := func(src, dst wire.Addr, port uint16, asn int) *netsim.Probe {
		return &netsim.Probe{
			T: netsim.StudyStart.Add(time.Hour), Src: src, Dst: dst,
			Port: port, ASN: asn, Transport: wire.TCP,
		}
	}
	c.Observe(probe(1, 100, 22, 64500))
	c.Observe(probe(1, 101, 22, 64500))
	c.Observe(probe(2, 100, 22, 64501))
	c.Observe(probe(3, 200, 443, 64502)) // unwatched port
	c.Observe(probe(4, 201, 80, 64502))
	return c
}

func TestCollectorBinaryRoundTrip(t *testing.T) {
	c := persistTestCollector()
	enc := c.AppendBinary(nil)
	r := wire.NewBinReader(enc)
	got, err := DecodeCollector(r)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("decoder left %d bytes", r.Len())
	}

	if got.Packets() != c.Packets() {
		t.Fatalf("packets %d != %d", got.Packets(), c.Packets())
	}
	for _, port := range []uint16{22, 80, 443, 9999} {
		if !reflect.DeepEqual(got.UniqueSources(port), c.UniqueSources(port)) {
			t.Fatalf("port %d sources differ", port)
		}
		if !reflect.DeepEqual(got.ASFrequencies(port), c.ASFrequencies(port)) {
			t.Fatalf("port %d AS frequencies differ", port)
		}
	}
	if !reflect.DeepEqual(got.perAddr, c.perAddr) {
		t.Fatalf("watch logs differ:\n%+v\nvs\n%+v", got.perAddr, c.perAddr)
	}

	// The decoded collector is fully functional: merging it
	// equals merging the original.
	a, b := New(), New()
	a.Merge(c)
	b.Merge(got)
	if !reflect.DeepEqual(a.srcsByPort, b.srcsByPort) || !reflect.DeepEqual(a.asByPort, b.asByPort) {
		t.Fatal("merge of decoded collector diverges from merge of original")
	}
}

func TestDecodeCollectorRejectsTruncation(t *testing.T) {
	enc := persistTestCollector().AppendBinary(nil)
	for cut := 0; cut < len(enc); cut += 7 {
		if _, err := DecodeCollector(wire.NewBinReader(enc[:cut])); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
}
