package store

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"cloudwatch/internal/core"
	"cloudwatch/internal/greynoise"
	"cloudwatch/internal/netsim"
	"cloudwatch/internal/telescope"
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
