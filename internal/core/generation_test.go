package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"cloudwatch/internal/cloud"
	"cloudwatch/internal/fingerprint"
	"cloudwatch/internal/honeypot"
	"cloudwatch/internal/ids"
	"cloudwatch/internal/netsim"
	"cloudwatch/internal/scanners"
	"cloudwatch/internal/searchengine"
)

// refRecord is one record produced by the reference pipeline: the
// pre-columnar row representation plus its §3.2 verdict.
type refRecord struct {
	rec netsim.Record
	mal bool
}

// refGenerate reproduces the pre-columnar serial pipeline
// independently of the production code: actors run one after another,
// probes at or past cfg.WindowSec (when non-zero) are dropped, each
// remaining probe goes through the collector decision table
// reimplemented inline (no interner, fresh buffers), and the §3.2
// verdict memo is payload-keyed with first-occurrence-wins semantics.
// It is the oracle for Run: the columnar pipeline at any worker count
// and any window must deep-equal it.
func refGenerate(t *testing.T, cfg Config) []refRecord {
	t.Helper()
	cfg = cfg.Normalized()
	deployment, err := cloud.Build(cfg.Seed, cfg.Deploy)
	if err != nil {
		t.Fatal(err)
	}
	u, err := deployment.Universe()
	if err != nil {
		t.Fatal(err)
	}
	censys := searchengine.New("censys")
	shodan := searchengine.New("shodan")
	crawlTime := netsim.StudyStart.Add(-24 * time.Hour)
	censys.Crawl(u, crawlTime)
	shodan.Crawl(u, crawlTime)

	engine := ids.DefaultEngine()
	memo := map[string]bool{}
	var out []refRecord

	window := time.Duration(cfg.WindowSec) * time.Second
	dispatch := func(p *netsim.Probe) {
		if window > 0 && p.T.Sub(netsim.StudyStart) >= window {
			return
		}
		if u.InTelescope(p.Dst) {
			return
		}
		tgt, ok := u.ByIP(p.Dst)
		if !ok || !tgt.ListensOn(p.Port) {
			return
		}
		payload := p.Payload
		if p.Pay != 0 {
			// Reference path sees raw bytes only: copy out of the
			// interner so nothing aliases production storage.
			payload = append([]byte(nil), netsim.PayloadBytes(p.Pay)...)
		}
		rec := netsim.Record{
			Vantage: tgt.ID, T: p.T, Src: p.Src, ASN: p.ASN,
			Port: p.Port, Transport: p.Transport, Handshake: true,
		}
		switch tgt.Collector {
		case netsim.CollectGreyNoise:
			if p.Port == 22 || p.Port == 2222 || p.Port == 23 || p.Port == 2323 {
				rec.Creds = p.Creds
			} else {
				rec.Payload = payload
			}
		case netsim.CollectHoneytrap:
			rec.Payload = payload
			if tgt.EmulateAuth {
				rec.Creds = p.Creds
			} else if (p.Port == 23 || p.Port == 2323) && len(p.Creds) > 0 && payload == nil {
				var b []byte
				for _, c := range p.Creds {
					b = append(b, c.Username...)
					b = append(b, '\r', '\n')
					b = append(b, c.Password...)
					b = append(b, '\r', '\n')
				}
				rec.Payload = b
			}
		default:
			return
		}
		mal := false
		switch {
		case len(rec.Creds) > 0:
			mal = true
		case len(rec.Payload) == 0:
			mal = false
		default:
			v, ok := memo[string(rec.Payload)]
			if !ok {
				v = engine.Malicious(rec.Transport.String(), rec.Port, rec.Payload)
				memo[string(rec.Payload)] = v
			}
			mal = v
		}
		out = append(out, refRecord{rec, mal})
	}

	ctx := &scanners.Context{U: u, Censys: censys, Shodan: shodan, Seed: cfg.Seed}
	for _, actor := range scanners.Population(cfg.population()) {
		actor.Run(ctx, dispatch)
	}
	return out
}

// TestGenerationEquivalence deep-equals Run against the independent
// reference generator: the full record sequence and every derived
// column, across seeds 42/7 × years 2020–2022 × the full week and one
// truncation window × Workers 1/4/GOMAXPROCS. The windows sit on
// epoch bounds, so the truncated runs are also the references the
// streaming snapshots are checked against.
func TestGenerationEquivalence(t *testing.T) {
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	eb := netsim.NewEpochs(4)
	k := 0
	for _, seed := range []int64{42, 7} {
		for _, year := range []int{2020, 2021, 2022} {
			k++
			for _, window := range []int32{0, eb.Bound(1 + k%3)} {
				cfg := testConfig(seed, year)
				cfg.WindowSec = window
				ref := refGenerate(t, cfg)
				if len(ref) == 0 {
					t.Fatalf("seed %d year %d window %d: reference generated no records", seed, year, window)
				}
				for _, workers := range workerCounts {
					cfg := cfg
					cfg.Workers = workers
					s, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					checkAgainstReference(t, s, ref, fmt.Sprintf("seed=%d year=%d window=%d workers=%d", seed, year, window, workers))
				}
			}
		}
	}
}

// checkAgainstReference deep-equals a study's records and derived
// columns against the reference generator's output.
func checkAgainstReference(t *testing.T, s *Study, ref []refRecord, label string) {
	t.Helper()
	if s.NumRecords() != len(ref) {
		t.Fatalf("%s: %d records, reference has %d", label, s.NumRecords(), len(ref))
	}
	for i, want := range ref {
		got := recordAt(s, i)
		if got.Vantage != want.rec.Vantage || !got.T.Equal(want.rec.T) ||
			got.Src != want.rec.Src || got.ASN != want.rec.ASN ||
			got.Port != want.rec.Port || got.Transport != want.rec.Transport ||
			got.Handshake != want.rec.Handshake {
			t.Fatalf("%s: record %d scalar fields differ:\n got %+v\nwant %+v", label, i, got, want.rec)
		}
		if !bytes.Equal(got.Payload, want.rec.Payload) {
			t.Fatalf("%s: record %d payload differs", label, i)
		}
		if len(got.Creds) != len(want.rec.Creds) {
			t.Fatalf("%s: record %d cred count differs", label, i)
		}
		for c := range got.Creds {
			if got.Creds[c] != want.rec.Creds[c] {
				t.Fatalf("%s: record %d cred %d differs", label, i, c)
			}
		}
		// Derived columns, all materialized by Run itself.
		if got := s.malicious(i); got != want.mal {
			t.Fatalf("%s: record %d verdict = %v, want %v", label, i, got, want.mal)
		}
		if got, wantH := s.blk.Hour(i), netsim.HourOf(want.rec.T); got != wantH {
			t.Fatalf("%s: record %d hour = %d, want %d", label, i, got, wantH)
		}
		if len(want.rec.Payload) > 0 {
			if got, wantK := s.recPayKey(i), payloadKey(want.rec.Payload); got != wantK {
				t.Fatalf("%s: record %d payKey = %q, want %q", label, i, got, wantK)
			}
			if got, wantP := s.recProto(i), fingerprint.Identify(want.rec.Payload); got != wantP {
				t.Fatalf("%s: record %d proto = %v, want %v", label, i, got, wantP)
			}
		} else if s.recPayKey(i) != "" || s.recProto(i) != fingerprint.Unknown {
			t.Fatalf("%s: record %d payloadless but payKey=%q proto=%v",
				label, i, s.recPayKey(i), s.recProto(i))
		}
	}
}

// TestRecordPayloadsNeverAliasEmitterBuffers proves the aliasing
// contract of the columnar store: a record's payload bytes are
// interner-owned — mutating the emitter's buffer after the probe is
// collected must not change the record.
func TestRecordPayloadsNeverAliasEmitterBuffers(t *testing.T) {
	s := runTestStudy(t, 42, 2021)
	var tgt *netsim.Target
	for _, c := range s.U.Targets() {
		if c.Collector == netsim.CollectHoneytrap && c.ListensOn(80) {
			tgt = c
			break
		}
	}
	if tgt == nil {
		t.Fatal("no honeytrap target listening on 80")
	}
	buf := []byte("GET /mutable-buffer-aliasing-test HTTP/1.1\r\nHost: x\r\n\r\n")
	want := append([]byte(nil), buf...)
	p := netsim.Probe{
		T: netsim.StudyStart, Src: 0x05050505, ASN: 4134,
		Dst: tgt.IP, Port: 80, Transport: 6, Payload: buf,
	}
	got, ok := honeypot.Observe(tgt, p)
	if !ok {
		t.Fatal("collector rejected the probe")
	}
	for i := range buf {
		buf[i] = 'X' // scribble over the emitter's buffer
	}
	if !bytes.Equal(got.Payload, want) {
		t.Fatalf("record payload changed when the emitter buffer was mutated:\n got %q\nwant %q", got.Payload, want)
	}
	if len(got.Payload) > 0 && &got.Payload[0] == &buf[0] {
		t.Fatal("record payload aliases the emitter's buffer")
	}
	// Dictionary-registered payloads: records alias the interner's
	// private copy, not the scanners' dictionary slices.
	corp := scanners.BenignHTTP()
	id := netsim.InternPayload(corp[0])
	interned := netsim.PayloadBytes(id)
	if !bytes.Equal(interned, corp[0]) {
		t.Fatal("interned bytes differ from the registered dictionary entry")
	}
	if &interned[0] == &corp[0][0] {
		t.Fatal("interner aliases the scanners' dictionary buffer")
	}
}

// TestGeoFamilySharedBetweenTables4And5 checks the cross-family dedup:
// after Table 5 runs, every comparison family Table 4 needs is already
// memoized — running Table 4 adds no cache entries.
func TestGeoFamilySharedBetweenTables4And5(t *testing.T) {
	s := runTestStudy(t, 42, 2021)
	_ = s.Table5()
	before := s.families.Len()
	_ = s.Table4()
	after := s.families.Len()
	if after != before {
		t.Fatalf("Table4 built %d new families after Table5 (cache %d → %d); expected full reuse",
			after-before, before, after)
	}
}
