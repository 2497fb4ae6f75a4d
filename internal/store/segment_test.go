package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"testing"

	"cloudwatch/internal/core"
	"cloudwatch/internal/greynoise"
	"cloudwatch/internal/netsim"
	"cloudwatch/internal/telescope"
	"cloudwatch/internal/wire"
)

// reseal returns a copy of a segment image with every frame's checksum
// recomputed, so a mutated frame payload reaches the decoders instead
// of stopping at the checksum.
func reseal(seg []byte) []byte {
	out := append([]byte(nil), seg...)
	off := len(segMagic) + 4
	for off+5 <= len(out) {
		n := int(binary.LittleEndian.Uint32(out[off+1:]))
		if n >= maxFrameLen || len(out)-off-5-4 < n {
			break
		}
		binary.LittleEndian.PutUint32(out[off+5+n:], crc32.ChecksumIEEE(out[off:off+5+n]))
		off += 5 + n + 4
	}
	return out
}

// FuzzDecodeSegment feeds arbitrary segment images, as read back from
// disk, to the recovery path: scanSegment, decodeFrames, and then
// core.RestoreEpochSet on whatever decodes. None of them may panic,
// and a decode either yields material or says why not.
func FuzzDecodeSegment(f *testing.F) {
	cfg, m := generateTiny(f)
	// A compact seed that still decodes in full: one worker, one
	// epoch, empty sinks. The fuzzer mutates it far faster than the
	// megabyte-sized generated segment.
	small := &core.StudyMaterial{
		Scenario:    m.Scenario,
		Workers:     1,
		ActorWorker: make([]int32, len(m.ActorWorker)),
		Epochs: []core.EpochMaterial{{
			Sinks: []core.SinkMaterial{{Tel: telescope.New(), GN: greynoise.NewDelta(), Blk: &netsim.RecordBlock{}}},
			Lo:    make([]int32, len(m.ActorWorker)),
			Hi:    make([]int32, len(m.ActorWorker)),
		}},
	}
	seg := encodeSegment([]byte(`{"probe":"config"}`), m)
	f.Add(encodeSegment([]byte(`{}`), small))
	f.Add(seg)
	f.Add(seg[:len(segMagic)+4])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, img []byte) {
		for _, img := range [][]byte{img, reseal(img)} {
			frames, valid := scanSegment(img)
			if valid < 0 || valid > len(img) {
				t.Fatalf("valid length %d outside the %d-byte image", valid, len(img))
			}
			_, m, reason := decodeFrames(frames)
			if m == nil {
				if reason == "" {
					t.Fatal("decode returned neither material nor a reason")
				}
				continue
			}
			_, _ = core.RestoreEpochSet(cfg, m)
		}
	})
}

// TestOpenIncompleteSegmentLeavesInternerAlone opens a segment that
// holds a config frame and a 1,000-entry payload dictionary but no
// layout frame. Nothing is recovered, and none of the dictionary's
// payloads may reach the process interner.
func TestOpenIncompleteSegmentLeavesInternerAlone(t *testing.T) {
	dict := wire.AppendU32(nil, 1000)
	for i := 0; i < 1000; i++ {
		dict = wire.AppendBytes(dict, []byte(fmt.Sprintf("incomplete-segment-payload-%d", i)))
	}
	seg := wire.AppendU32([]byte(segMagic), segVersion)
	seg = appendFrame(seg, frameConfig, []byte(`{}`))
	seg = appendFrame(seg, frameDict, dict)
	fsys := NewMemFS()
	fsys.SetBytes("study/segment", seg)

	before := netsim.PayloadCount()
	s, err := Open(fsys, "study")
	if err != nil {
		t.Fatal(err)
	}
	if _, m := s.Recovered(); m != nil {
		t.Fatal("a segment without a layout frame recovered a study")
	}
	if after := netsim.PayloadCount(); after != before {
		t.Fatalf("opening the incomplete segment grew the interner from %d to %d payloads", before, after)
	}
}

// TestSegmentDependsOnTheStudyAlone encodes the same material before
// and after the process interns 1,000 unrelated payloads: the payload
// dictionary holds only what the study's records reference, and every
// collector writes its maps in sorted key order, so the segment is the
// same bytes.
func TestSegmentDependsOnTheStudyAlone(t *testing.T) {
	_, m := generateTiny(t)
	before := encodeSegment([]byte(`{}`), m)
	for i := 0; i < 1000; i++ {
		netsim.InternPayload([]byte(fmt.Sprintf("unrelated-payload-%d", i)))
	}
	after := encodeSegment([]byte(`{}`), m)
	if len(after) != len(before) {
		t.Fatalf("segment went from %d to %d bytes after unrelated payloads were interned", len(before), len(after))
	}
	if !bytes.Equal(after, before) {
		t.Fatal("encoding the same material twice gave different bytes")
	}
}
