package netsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cloudwatch/internal/wire"
)

func TestInternPayloadDedupAndCopy(t *testing.T) {
	buf := []byte("intern-dedup-test-payload-A")
	id := InternPayload(buf)
	if id == 0 {
		t.Fatal("non-empty payload interned as 0")
	}
	if got := InternPayload([]byte("intern-dedup-test-payload-A")); got != id {
		t.Fatalf("same content interned twice: %d vs %d", got, id)
	}
	stored := PayloadBytes(id)
	if !bytes.Equal(stored, buf) {
		t.Fatalf("stored bytes differ: %q", stored)
	}
	if &stored[0] == &buf[0] {
		t.Fatal("interner aliases the caller's buffer")
	}
	buf[0] = 'X'
	if !bytes.Equal(PayloadBytes(id), []byte("intern-dedup-test-payload-A")) {
		t.Fatal("mutating the caller's buffer changed the interned bytes")
	}

	if InternPayload(nil) != 0 || InternPayload([]byte{}) != 0 {
		t.Fatal("empty payloads must intern as 0")
	}
	if PayloadBytes(0) != nil {
		t.Fatal("PayloadBytes(0) must be nil")
	}
}

func TestInternPayloadConcurrent(t *testing.T) {
	const goroutines = 8
	const distinct = 64
	ids := make([][]PayloadID, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		ids[g] = make([]PayloadID, distinct)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < distinct; i++ {
				ids[g][i] = InternPayload([]byte(fmt.Sprintf("concurrent-intern-%d", i)))
			}
		}()
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := 0; i < distinct; i++ {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("goroutine %d got id %d for payload %d, goroutine 0 got %d",
					g, ids[g][i], i, ids[0][i])
			}
		}
	}
}

// TestStreamMatchesMathRand is the bit-compatibility guarantee of the
// vendored lagged-Fibonacci source: for any seed, the cached-clone
// Stream path must draw exactly what math/rand's NewSource draws —
// every recorded output in the repo depends on it.
func TestStreamMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7, 89482311, 1 << 40, -(1 << 50)} {
		ours := &lfgSource{}
		ours.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 2000; i++ {
			if g, w := ours.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: lfgSource %d != rngSource %d", seed, i, g, w)
			}
		}
	}

	// The Stream cache: repeated derivations of the same stream yield
	// identical sequences (a fresh clone each time, not a shared
	// stateful source).
	a := Stream(42, "bit-compat")
	b := Stream(42, "bit-compat")
	if a == b {
		t.Fatal("Stream returned a shared *rand.Rand")
	}
	for i := 0; i < 1000; i++ {
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Fatalf("draw %d: cloned streams diverge (%d vs %d)", i, x, y)
		}
	}
}

func TestRecordBlockRoundTrip(t *testing.T) {
	var blk RecordBlock
	pay := InternPayload([]byte("block-roundtrip-payload"))
	creds := []Credential{{Username: "root", Password: "toor"}}
	times := []time.Time{
		StudyStart,
		StudyStart.Add(90*time.Minute + 123456789*time.Nanosecond),
		StudyStart.Add(167 * time.Hour),
	}
	for i, ts := range times {
		p := &Probe{
			T: ts, Src: wire.Addr(0x0a000001 + i), ASN: 4134,
			Port: 23, Transport: wire.TCP,
		}
		var c []Credential
		if i == 1 {
			c = creds
		}
		blk.Append(int32(i), p, pay, c)
	}
	if blk.Len() != len(times) {
		t.Fatalf("Len = %d, want %d", blk.Len(), len(times))
	}
	for i, ts := range times {
		if !blk.Time(i).Equal(ts) {
			t.Fatalf("record %d: time %v, want %v (exact reconstruction)", i, blk.Time(i), ts)
		}
		if blk.Time(i) != ts {
			t.Fatalf("record %d: reconstructed time differs bit-for-bit", i)
		}
		if got, want := blk.Hour(i), HourOf(ts); got != want {
			t.Fatalf("record %d: hour %d, want %d", i, got, want)
		}
		rec := blk.Record(i, "v")
		if !bytes.Equal(rec.Payload, PayloadBytes(pay)) || rec.Pay != pay {
			t.Fatalf("record %d: payload not reconstructed", i)
		}
		if !rec.Handshake {
			t.Fatalf("record %d: handshake not set", i)
		}
	}
	if blk.CredsAt(0) != nil || blk.CredsAt(2) != nil {
		t.Fatal("credless records must reconstruct nil creds")
	}
	if got := blk.CredsAt(1); len(got) != 1 || got[0] != creds[0] {
		t.Fatalf("creds not reconstructed: %+v", got)
	}

	// AppendRange rebases credential-arena indexes.
	var merged RecordBlock
	merged.Append(9, &Probe{T: StudyStart, Port: 1, Transport: wire.TCP}, 0,
		[]Credential{{Username: "pre", Password: "existing"}})
	merged.CredLists = append(merged.CredLists, blk.CredLists...)
	merged.AppendRange(&blk, 0, blk.Len(), 1)
	if got := merged.CredsAt(2); len(got) != 1 || got[0] != creds[0] {
		t.Fatalf("AppendRange cred rebase broken: %+v", got)
	}
}

func TestTargetListensOnBitset(t *testing.T) {
	withSet := &Target{ID: "a", IP: 1, Ports: []uint16{22, 80, 17128}}
	wild := &Target{ID: "b", IP: 2} // nil ports = telescope wildcard
	if _, err := NewUniverse([]*Target{withSet, wild}); err != nil {
		t.Fatal(err)
	}
	if withSet.ports == nil {
		t.Fatal("universe did not install the port bitset")
	}
	for _, port := range []uint16{22, 80, 17128} {
		if !withSet.ListensOn(port) {
			t.Fatalf("port %d should be open", port)
		}
	}
	for _, port := range []uint16{21, 23, 443, 8080, 65535} {
		if withSet.ListensOn(port) {
			t.Fatalf("port %d should be closed", port)
		}
	}
	if !wild.ListensOn(1) || !wild.ListensOn(65535) {
		t.Fatal("telescope wildcard must listen everywhere")
	}
	// Identical port lists share one interned bitset.
	other := &Target{ID: "c", IP: 3, Ports: []uint16{22, 80, 17128}}
	if _, err := NewUniverse([]*Target{other}); err != nil {
		t.Fatal(err)
	}
	if other.ports != withSet.ports {
		t.Fatal("identical port lists did not share an interned bitset")
	}
	// Targets built outside a universe fall back to the linear scan.
	loose := &Target{ID: "d", IP: 4, Ports: []uint16{7}}
	if !loose.ListensOn(7) || loose.ListensOn(8) {
		t.Fatal("fallback ListensOn broken")
	}
}

func TestASKeyMemoized(t *testing.T) {
	for _, a := range AllAS() {
		want := fmt.Sprintf("AS%d %s", a.ASN, a.Name)
		if a.Key() != want {
			t.Fatalf("AS %d: Key() = %q, want %q", a.ASN, a.Key(), want)
		}
		if ASKeyOf(a.ASN) != want {
			t.Fatalf("ASKeyOf(%d) = %q, want %q", a.ASN, ASKeyOf(a.ASN), want)
		}
	}
	if got := ASKeyOf(424242); got != "AS424242" {
		t.Fatalf("unknown ASN key = %q, want AS424242", got)
	}
	handBuilt := AS{ASN: 99, Name: "Hand Built"}
	if handBuilt.Key() != "AS99 Hand Built" {
		t.Fatalf("hand-built AS key = %q", handBuilt.Key())
	}
}

func TestVantageIndexRoundTrip(t *testing.T) {
	targets := []*Target{
		{ID: "x", IP: 10}, {ID: "y", IP: 11}, {ID: "z", IP: 12},
	}
	u, err := NewUniverse(targets)
	if err != nil {
		t.Fatal(err)
	}
	for i, tgt := range u.Targets() {
		vi, ok := u.VantageIndex(tgt.ID)
		if !ok || vi != int32(i) {
			t.Fatalf("VantageIndex(%s) = %d,%v, want %d,true", tgt.ID, vi, ok, i)
		}
		got, gi, ok := u.ByIPIndexed(tgt.IP)
		if !ok || got != tgt || gi != int32(i) {
			t.Fatalf("ByIPIndexed(%v) mismatch", tgt.IP)
		}
	}
	if _, ok := u.VantageIndex("missing"); ok {
		t.Fatal("VantageIndex found a missing vantage")
	}
}
