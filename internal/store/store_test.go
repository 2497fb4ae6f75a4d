package store

import (
	"bytes"
	"testing"

	"cloudwatch/internal/core"
)

// tinyConfig is deliberately smaller than the other packages' test
// studies: the torn-tail matrix reopens the store once per byte of
// the final frame, so the segment has to stay small.
func tinyConfig(seed int64, year int) core.Config {
	cfg := core.DefaultConfig(seed, year)
	cfg.Deploy.TelescopeSlash24s = 4
	cfg.Deploy.HoneytrapPerCloud = 4
	cfg.Deploy.HurricaneIPs = 4
	cfg.Scale = 0.05
	cfg.Workers = 2
	return cfg
}

const tinyEpochs = 2

func generateTiny(t testing.TB) (core.Config, *core.StudyMaterial) {
	t.Helper()
	cfg := tinyConfig(42, 2021)
	es, err := core.GenerateEpochs(cfg, tinyEpochs)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, es.Material()
}

// renderTiny restores material and renders one table — the cheap
// byte-identity probe the store tests use (the full render matrix
// lives in the core and stream suites).
func renderTiny(t *testing.T, cfg core.Config, m *core.StudyMaterial) string {
	t.Helper()
	es, err := core.RestoreEpochSet(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := es.Snapshot(tinyEpochs)
	if err != nil {
		t.Fatal(err)
	}
	out, ok := core.RenderExperiment(snap, "table2")
	if !ok {
		t.Fatal("table2 not registered")
	}
	return out
}

func TestStoreRoundTrip(t *testing.T) {
	cfg, m := generateTiny(t)
	want := renderTiny(t, cfg, m)
	cfgJSON := []byte(`{"probe":"config"}`)

	fsys := NewMemFS()
	s, err := Open(fsys, "study")
	if err != nil {
		t.Fatal(err)
	}
	if gotCfg, gotM := s.Recovered(); gotCfg != nil || gotM != nil {
		t.Fatal("empty store recovered a study")
	}
	if s.Ingested() != 0 {
		t.Fatalf("empty store ingested=%d", s.Ingested())
	}
	if err := s.WriteStudy(cfgJSON, m); err != nil {
		t.Fatal(err)
	}
	if err := s.SetIngested(1); err != nil {
		t.Fatal(err)
	}
	if err := s.SetIngested(2); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(fsys, "study")
	if err != nil {
		t.Fatal(err)
	}
	gotCfg, gotM := reopened.Recovered()
	if !bytes.Equal(gotCfg, cfgJSON) {
		t.Fatalf("recovered config %q", gotCfg)
	}
	if gotM == nil {
		t.Fatalf("nothing recovered: %s", reopened.Note())
	}
	if reopened.Ingested() != 2 {
		t.Fatalf("ingested=%d, want 2", reopened.Ingested())
	}
	if got := renderTiny(t, cfg, gotM); got != want {
		t.Error("recovered material renders differently from the original")
	}
}

func TestIngestCursorClampedToEpochs(t *testing.T) {
	_, m := generateTiny(t)
	fsys := NewMemFS()
	s, err := Open(fsys, "study")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteStudy([]byte(`{}`), m); err != nil {
		t.Fatal(err)
	}
	if err := s.SetIngested(99); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(fsys, "study")
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.Ingested(); got != tinyEpochs {
		t.Fatalf("ingested=%d, want clamp to %d", got, tinyEpochs)
	}
}

func TestCorruptManifestFallsBackToZero(t *testing.T) {
	_, m := generateTiny(t)
	fsys := NewMemFS()
	s, err := Open(fsys, "study")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteStudy([]byte(`{}`), m); err != nil {
		t.Fatal(err)
	}
	if err := s.SetIngested(2); err != nil {
		t.Fatal(err)
	}
	fsys.SetBytes("study/manifest.json", []byte("not json{"))
	reopened, err := Open(fsys, "study")
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.Ingested(); got != 0 {
		t.Fatalf("ingested=%d after corrupt manifest, want 0", got)
	}
	if _, gotM := reopened.Recovered(); gotM == nil {
		t.Fatal("segment should still recover")
	}
}

// frameBounds re-derives every frame's [start, end) byte range of an
// encoded segment so the torn-tail tests can target exact offsets.
func frameBounds(t *testing.T, seg []byte) [][2]int {
	t.Helper()
	frames, valid := scanSegment(seg)
	if valid != len(seg) {
		t.Fatalf("pristine segment scans to %d of %d bytes", valid, len(seg))
	}
	bounds := make([][2]int, 0, len(frames))
	off := len(segMagic) + 4
	for _, fr := range frames {
		end := off + 5 + len(fr.payload) + 4
		bounds = append(bounds, [2]int{off, end})
		off = end
	}
	return bounds
}

// TestTornTailMatrixEveryByte cuts a segment at EVERY byte offset and
// proves each cut recovers: Open succeeds, truncates the file to the
// last valid frame boundary, and recovers nothing rather than
// something damaged. The segment under the knife is a small synthetic
// one (the frame layer is payload-agnostic); the same property on a
// real study segment — whose final frame alone is hundreds of
// kilobytes — is checked at sampled offsets in
// TestTornTailRecoversRealStudy.
func TestTornTailMatrixEveryByte(t *testing.T) {
	payloads := [][]byte{
		[]byte(`{"probe":"config"}`),
		bytes.Repeat([]byte{0xA5, 0x00, 0x5A}, 40),
		make([]byte, 257),
		[]byte{},
		bytes.Repeat([]byte("frame"), 60),
	}
	seg := []byte(segMagic)
	seg = append(seg, segVersion, 0, 0, 0) // current version, little-endian
	typ := []uint8{frameConfig, frameDict, frameLayout, frameEpoch, frameEpoch}
	for i, p := range payloads {
		seg = appendFrame(seg, typ[i], p)
	}
	bounds := frameBounds(t, seg)

	for cut := 0; cut <= len(seg); cut++ {
		tfs := NewMemFS()
		tfs.SetBytes("study/segment", seg[:cut])
		ts, err := Open(tfs, "study")
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		if _, gotM := ts.Recovered(); gotM != nil {
			t.Fatalf("cut %d: torn segment recovered a study", cut)
		}
		wantLen := 0
		if cut >= len(segMagic)+4 { // an intact header is itself a valid prefix
			wantLen = len(segMagic) + 4
		}
		for _, b := range bounds {
			if b[1] <= cut {
				wantLen = b[1]
			}
		}
		if got := len(tfs.Bytes("study/segment")); got != wantLen {
			t.Fatalf("cut %d: truncated to %d, want last valid boundary %d", cut, got, wantLen)
		}
	}
}

// TestTornTailRecoversRealStudy tears a real study segment at sampled
// offsets — every frame boundary, its neighbors, and a spread across
// the final frame — and drives the full recovery loop at each: Open
// truncates and recovers nothing, regeneration rewrites the segment,
// and the rewritten store renders byte-identically to the original.
func TestTornTailRecoversRealStudy(t *testing.T) {
	cfg, m := generateTiny(t)
	want := renderTiny(t, cfg, m)

	fsys := NewMemFS()
	s, err := Open(fsys, "study")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteStudy([]byte(`{}`), m); err != nil {
		t.Fatal(err)
	}
	seg := fsys.Bytes("study/segment")
	bounds := frameBounds(t, seg)
	finalStart, finalEnd := bounds[len(bounds)-1][0], bounds[len(bounds)-1][1]
	t.Logf("segment %d bytes, final frame [%d, %d)", len(seg), finalStart, finalEnd)

	cutSet := map[int]bool{0: true, 1: true, len(segMagic) + 3: true}
	for _, b := range bounds {
		for _, cut := range []int{b[0] - 1, b[0], b[0] + 1, b[1] - 1} {
			if cut >= 0 && cut < len(seg) {
				cutSet[cut] = true
			}
		}
	}
	for i := 0; i < 16; i++ { // spread across the final frame
		cutSet[finalStart+(finalEnd-finalStart)*i/16] = true
	}
	cuts := make([]int, 0, len(cutSet))
	for cut := range cutSet {
		cuts = append(cuts, cut)
	}

	for _, cut := range cuts {
		tfs := NewMemFS()
		tfs.SetBytes("study/segment", seg[:cut])
		ts, err := Open(tfs, "study")
		if err != nil {
			t.Fatal(err)
		}
		if _, gotM := ts.Recovered(); gotM != nil {
			t.Fatalf("cut %d: torn segment recovered a study", cut)
		}
		wantLen := 0
		if cut >= len(segMagic)+4 { // an intact header is itself a valid prefix
			wantLen = len(segMagic) + 4
		}
		for _, b := range bounds {
			if b[1] <= cut {
				wantLen = b[1]
			}
		}
		if got := len(tfs.Bytes("study/segment")); got != wantLen {
			t.Fatalf("cut %d: truncated to %d, want last valid boundary %d", cut, got, wantLen)
		}
		if err := ts.WriteStudy([]byte(`{}`), m); err != nil {
			t.Fatalf("cut %d: rewrite: %v", cut, err)
		}
		reopened, err := Open(tfs, "study")
		if err != nil {
			t.Fatal(err)
		}
		_, gotM := reopened.Recovered()
		if gotM == nil {
			t.Fatalf("cut %d: rewrite did not recover: %s", cut, reopened.Note())
		}
		if got := renderTiny(t, cfg, gotM); got != want {
			t.Fatalf("cut %d: rewritten material renders differently", cut)
		}
	}
}

// TestCorruptFrameRejected flips one byte inside each frame and
// expects recovery to stop at that frame, never to return damaged
// material.
func TestCorruptFrameRejected(t *testing.T) {
	_, m := generateTiny(t)
	fsys := NewMemFS()
	s, err := Open(fsys, "study")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteStudy([]byte(`{}`), m); err != nil {
		t.Fatal(err)
	}
	seg := fsys.Bytes("study/segment")
	for _, b := range frameBounds(t, seg) {
		mid := (b[0] + b[1]) / 2
		bad := append([]byte(nil), seg...)
		bad[mid] ^= 0x40
		tfs := NewMemFS()
		tfs.SetBytes("study/segment", bad)
		ts, err := Open(tfs, "study")
		if err != nil {
			t.Fatalf("corrupt byte %d: open: %v", mid, err)
		}
		if _, gotM := ts.Recovered(); gotM != nil {
			t.Fatalf("corrupt byte %d: damaged segment recovered a study", mid)
		}
	}
}
