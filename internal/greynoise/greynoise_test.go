package greynoise

import (
	"sync"
	"testing"

	"cloudwatch/internal/wire"
)

func TestClassification(t *testing.T) {
	s := NewService()
	s.VetASN(398324)

	vetted := wire.MustParseAddr("1.1.1.1")
	attacker := wire.MustParseAddr("2.2.2.2")
	stranger := wire.MustParseAddr("3.3.3.3")

	s.Observe(vetted)
	s.ObserveExploit(attacker)

	if got := s.Classify(vetted, 398324); got != Benign {
		t.Errorf("vetted = %v, want benign", got)
	}
	if got := s.Classify(attacker, 4134); got != Malicious {
		t.Errorf("attacker = %v, want malicious", got)
	}
	if got := s.Classify(stranger, 4134); got != Unknown {
		t.Errorf("stranger = %v, want unknown", got)
	}
	// Exploit observation overrides vetting.
	s.ObserveExploit(vetted)
	if got := s.Classify(vetted, 398324); got != Malicious {
		t.Errorf("vetted-but-exploiting = %v, want malicious", got)
	}
}

func TestClassificationString(t *testing.T) {
	if Benign.String() != "benign" || Malicious.String() != "malicious" || Unknown.String() != "unknown" {
		t.Error("classification strings")
	}
	if Classification(9).String() != "unknown" {
		t.Error("out-of-range classification")
	}
}

func TestStats(t *testing.T) {
	s := NewService()
	s.VetASN(1)
	s.Observe(wire.MustParseAddr("1.0.0.1"))
	s.Observe(wire.MustParseAddr("1.0.0.2"))
	s.ObserveExploit(wire.MustParseAddr("1.0.0.2"))
	seen, exploited, vetted := s.Stats()
	if seen != 2 || exploited != 1 || vetted != 1 {
		t.Errorf("Stats = %d, %d, %d", seen, exploited, vetted)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewService()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				ip := wire.Addr(uint32(i*1000 + j))
				s.Observe(ip)
				if j%3 == 0 {
					s.ObserveExploit(ip)
				}
				s.Classify(ip, i)
			}
		}(i)
	}
	wg.Wait()
	seen, _, _ := s.Stats()
	if seen != 16*200 {
		t.Errorf("seen = %d, want %d", seen, 16*200)
	}
}

// TestDeltaMatchesService checks the lock-free worker delta reaches
// the same classifier state as direct Service observation, including
// the repeated-source fast path.
func TestDeltaMatchesService(t *testing.T) {
	direct := NewService()
	viaDelta := NewService()
	d := NewDelta()

	srcs := []wire.Addr{10, 10, 10, 11, 10, 12, 12}
	for _, s := range srcs {
		direct.Observe(s)
		d.Observe(s)
	}
	direct.ObserveExploit(11)
	d.ObserveExploit(11)
	direct.Observe(10) // post-exploit repeat
	d.Observe(10)
	viaDelta.MergeDelta(d)

	wantSeen, wantExp, _ := direct.Stats()
	gotSeen, gotExp, _ := viaDelta.Stats()
	if gotSeen != wantSeen || gotExp != wantExp {
		t.Fatalf("delta state = seen %d exploited %d, want %d %d", gotSeen, gotExp, wantSeen, wantExp)
	}
	for _, s := range []wire.Addr{10, 11, 12} {
		if g, w := viaDelta.Classify(s, 0), direct.Classify(s, 0); g != w {
			t.Fatalf("src %d classifies %v via delta, %v direct", s, g, w)
		}
	}
	// Merging a second delta unions commutatively.
	d2 := NewDelta()
	d2.ObserveExploit(10)
	viaDelta.MergeDelta(d2)
	if viaDelta.Classify(10, 0) != Malicious {
		t.Fatal("second delta merge lost an exploit observation")
	}
}

// TestServiceCloneIsolation checks the incremental-chain contract: a
// clone classifies exactly like the original, and new observations on
// the clone never leak back.
func TestServiceCloneIsolation(t *testing.T) {
	orig := NewService()
	orig.VetASN(7)
	orig.Observe(wire.MustParseAddr("1.1.1.1"))
	orig.ObserveExploit(wire.MustParseAddr("2.2.2.2"))

	clone := orig.Clone()
	cSeen, cExp, cVet := clone.Stats()
	oSeen, oExp, oVet := orig.Stats()
	if cSeen != oSeen || cExp != oExp || cVet != oVet {
		t.Fatalf("clone Stats = %d,%d,%d, want %d,%d,%d", cSeen, cExp, cVet, oSeen, oExp, oVet)
	}
	if clone.Classify(wire.MustParseAddr("2.2.2.2"), 0) != Malicious {
		t.Fatal("clone lost an exploit observation")
	}
	if clone.Classify(wire.MustParseAddr("1.1.1.1"), 7) != Benign {
		t.Fatal("clone lost the vetted ASN")
	}

	// Extending the clone (directly and via a worker delta) leaves the
	// original sealed.
	clone.ObserveExploit(wire.MustParseAddr("1.1.1.1"))
	d := NewDelta()
	d.Observe(wire.MustParseAddr("3.3.3.3"))
	clone.MergeDelta(d)

	if orig.Classify(wire.MustParseAddr("1.1.1.1"), 7) != Benign {
		t.Fatal("clone exploit observation leaked into the original")
	}
	if seen, exploited, _ := orig.Stats(); seen != 2 || exploited != 1 {
		t.Fatalf("original Stats moved: seen %d exploited %d, want 2 and 1", seen, exploited)
	}
	if seen, exploited, _ := clone.Stats(); seen != 3 || exploited != 2 {
		t.Fatalf("clone Stats = seen %d exploited %d, want 3 and 2", seen, exploited)
	}
}
