package store

import (
	"fmt"
	"hash/crc32"

	"cloudwatch/internal/core"
	"cloudwatch/internal/netsim"
	"cloudwatch/internal/telescope"
	"cloudwatch/internal/wire"
)

// Segment layout: an 12-byte header (magic + format version) followed
// by self-delimiting frames
//
//	[u8 type][u32 len][payload: len bytes][u32 crc32-IEEE]
//
// where the checksum covers type, length, and payload. A reader stops
// at the first frame whose header, length, or checksum does not hold;
// everything before that boundary is valid by construction, so a tail
// torn by a crash costs only the unsynced suffix. A complete study is
// exactly the sequence
//
//	config (JSON) · payload dict · layout · epoch × layout.epochs
//
// and anything short of that (or any structural decode failure inside
// a checksummed frame) degrades to "nothing recovered" — the caller
// regenerates deterministically and rewrites the segment.
const (
	segMagic = "CWEPOCHS"
	// segVersion 2 added the scenario id to the layout frame; 3 dropped
	// the per-sink GreyNoise observation sets from the epoch frames
	// (labels derive from the records' verdicts). An older segment
	// decodes as "nothing recovered": the reader regenerates
	// deterministically and rewrites the segment in the current format,
	// the same degradation path as a torn tail.
	segVersion = 3

	frameConfig = 1 // normalized study config JSON
	frameDict   = 2 // payload interner dictionary
	frameLayout = 3 // worker width, epoch count, scenario id, actor->worker map
	frameEpoch  = 4 // one epoch: per-worker sinks + per-actor run bounds
)

// maxFrameLen bounds a single frame so a corrupt length prefix cannot
// force a giant allocation before the checksum is even consulted.
const maxFrameLen = 1 << 31

type frame struct {
	typ     uint8
	payload []byte
}

func appendFrame(dst []byte, typ uint8, payload []byte) []byte {
	start := len(dst)
	dst = wire.AppendU8(dst, typ)
	dst = wire.AppendU32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return wire.AppendU32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// scanSegment walks the raw segment image and returns every frame up
// to the first invalid byte, plus the offset of that boundary (the
// length the file should be truncated to). An unrecognizable header
// invalidates the whole file.
func scanSegment(buf []byte) (frames []frame, validLen int) {
	if len(buf) < len(segMagic)+4 || string(buf[:len(segMagic)]) != segMagic {
		return nil, 0
	}
	r := wire.NewBinReader(buf[len(segMagic):])
	if r.U32() != segVersion {
		return nil, 0
	}
	off := len(segMagic) + 4
	for off < len(buf) {
		rest := buf[off:]
		if len(rest) < 5 {
			break
		}
		n := int(uint32(rest[1]) | uint32(rest[2])<<8 | uint32(rest[3])<<16 | uint32(rest[4])<<24)
		if n >= maxFrameLen || len(rest) < 5+n+4 {
			break
		}
		body := rest[:5+n]
		sum := uint32(rest[5+n]) | uint32(rest[5+n+1])<<8 | uint32(rest[5+n+2])<<16 | uint32(rest[5+n+3])<<24
		if crc32.ChecksumIEEE(body) != sum {
			break
		}
		frames = append(frames, frame{typ: body[0], payload: body[5:]})
		off += 5 + n + 4
	}
	return frames, off
}

// encodeSegment serializes a full study into segment bytes. The
// payload dictionary holds only the payloads the study's records
// reference, so the segment depends on the study alone.
func encodeSegment(configJSON []byte, m *core.StudyMaterial) []byte {
	buf := wire.AppendU32([]byte(segMagic), segVersion)

	var blocks []*netsim.RecordBlock
	for e := range m.Epochs {
		for _, sm := range m.Epochs[e].Sinks {
			blocks = append(blocks, sm.Blk)
		}
	}
	ids, renumber := netsim.PayloadDictOf(blocks)
	buf = appendFrame(buf, frameConfig, configJSON)
	buf = appendFrame(buf, frameDict, netsim.AppendPayloadDict(nil, ids))

	var layout []byte
	layout = wire.AppendU32(layout, uint32(m.Workers))
	layout = wire.AppendU32(layout, uint32(len(m.Epochs)))
	layout = wire.AppendString(layout, m.Scenario)
	layout = wire.AppendI32s(layout, m.ActorWorker)
	buf = appendFrame(buf, frameLayout, layout)

	for e := range m.Epochs {
		em := &m.Epochs[e]
		var p []byte
		for w := range em.Sinks {
			sm := &em.Sinks[w]
			p = sm.Tel.AppendBinary(p)
			p = sm.Blk.AppendBinary(p, renumber)
			p = wire.AppendI32s(p, sm.Seq)
		}
		p = wire.AppendI32s(p, em.Lo)
		p = wire.AppendI32s(p, em.Hi)
		buf = appendFrame(buf, frameEpoch, p)
	}
	return buf
}

// decodeFrames rebuilds the persisted study from a valid frame
// sequence. A nil study with a reason means the segment (though every
// retained frame checksums) is not a complete usable study. The payload
// dictionary is interned only once every frame has decoded, so an
// incomplete or damaged segment leaves the process interner untouched.
func decodeFrames(frames []frame) (configJSON []byte, m *core.StudyMaterial, reason string) {
	if len(frames) == 0 {
		return nil, nil, "segment empty or unrecognized"
	}
	expect := func(i int, typ uint8) ([]byte, bool) {
		if i >= len(frames) || frames[i].typ != typ {
			return nil, false
		}
		return frames[i].payload, true
	}
	cfgJSON, ok := expect(0, frameConfig)
	if !ok {
		return nil, nil, "segment missing config frame"
	}
	dict, ok := expect(1, frameDict)
	if !ok {
		return nil, nil, "segment missing payload dictionary"
	}
	entries, err := netsim.DecodePayloadDict(wire.NewBinReader(dict))
	if err != nil {
		return nil, nil, fmt.Sprintf("payload dictionary: %v", err)
	}
	layout, ok := expect(2, frameLayout)
	if !ok {
		return nil, nil, "segment missing layout frame"
	}
	lr := wire.NewBinReader(layout)
	workers := int(lr.U32())
	epochs := int(lr.U32())
	scenario := lr.String()
	actorWorker := lr.I32s()
	if lr.Err() != nil || lr.Len() != 0 {
		return nil, nil, "layout frame malformed"
	}
	if workers < 1 || workers > 1<<20 || epochs < 1 || epochs > 1<<20 {
		return nil, nil, fmt.Sprintf("layout declares %d workers, %d epochs", workers, epochs)
	}
	if len(frames) != 3+epochs {
		return nil, nil, fmt.Sprintf("segment holds %d of %d epoch frames", len(frames)-3, epochs)
	}

	m = &core.StudyMaterial{
		Scenario:    scenario,
		Workers:     workers,
		ActorWorker: actorWorker,
		Epochs:      make([]core.EpochMaterial, epochs),
	}
	for e := 0; e < epochs; e++ {
		fr := frames[3+e]
		if fr.typ != frameEpoch {
			return nil, nil, fmt.Sprintf("frame %d: type %d where epoch expected", 3+e, fr.typ)
		}
		em, err := decodeEpoch(fr.payload, workers, len(entries))
		if err != nil {
			return nil, nil, fmt.Sprintf("epoch %d: %v", e, err)
		}
		m.Epochs[e] = *em
	}
	remap := netsim.InternPayloadDict(entries)
	for e := range m.Epochs {
		for _, sm := range m.Epochs[e].Sinks {
			sm.Blk.RemapPayloads(remap)
		}
	}
	return cfgJSON, m, ""
}

func decodeEpoch(payload []byte, workers, dictLen int) (*core.EpochMaterial, error) {
	r := wire.NewBinReader(payload)
	em := &core.EpochMaterial{Sinks: make([]core.SinkMaterial, workers)}
	for w := 0; w < workers; w++ {
		tel, err := telescope.DecodeCollector(r)
		if err != nil {
			return nil, fmt.Errorf("worker %d telescope: %w", w, err)
		}
		blk, err := netsim.DecodeRecordBlock(r, dictLen)
		if err != nil {
			return nil, fmt.Errorf("worker %d records: %w", w, err)
		}
		seq := r.I32s()
		if r.Err() != nil {
			return nil, fmt.Errorf("worker %d seqs: %w", w, r.Err())
		}
		em.Sinks[w] = core.SinkMaterial{Tel: tel, Blk: &blk, Seq: seq}
	}
	em.Lo = r.I32s()
	em.Hi = r.I32s()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%d trailing bytes", r.Len())
	}
	return em, nil
}
