package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"cloudwatch/internal/wire"
)

func mkPacket(i int) wire.Packet {
	return wire.Packet{
		Time:    time.Unix(1625097600+int64(i), int64(i)*1000).UTC(),
		Src:     wire.AddrFrom4(203, 0, 113, byte(i)),
		Dst:     wire.AddrFrom4(198, 51, 100, byte(i+1)),
		SrcPort: uint16(40000 + i),
		DstPort: 22,
		Proto:   wire.TCP,
		Flags:   wire.FlagSYN,
		Payload: []byte("SSH-2.0-Go\r\n"),
	}
}

func TestRoundTrip(t *testing.T) {
	var packets []wire.Packet
	for i := 0; i < 25; i++ {
		packets = append(packets, mkPacket(i))
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, packets); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(packets) {
		t.Fatalf("read %d packets, want %d", len(got), len(packets))
	}
	for i := range packets {
		if got[i].Src != packets[i].Src || got[i].DstPort != packets[i].DstPort {
			t.Errorf("packet %d addressing mismatch", i)
		}
		if !got[i].Time.Equal(packets[i].Time) {
			t.Errorf("packet %d time = %v, want %v", i, got[i].Time, packets[i].Time)
		}
		if !bytes.Equal(got[i].Payload, packets[i].Payload) {
			t.Errorf("packet %d payload mismatch", i)
		}
	}
}

func TestEmptyCaptureHasHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 24 {
		t.Fatalf("empty capture = %d bytes, want 24 (header only)", buf.Len())
	}
	if got := binary.LittleEndian.Uint32(buf.Bytes()[0:4]); got != magicMicroseconds {
		t.Errorf("magic = %#x", got)
	}
	got, err := ReadAll(&buf)
	if err != nil || len(got) != 0 {
		t.Errorf("reading empty capture: %v packets, err=%v", len(got), err)
	}
}

func TestHeaderFields(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, []wire.Packet{mkPacket(0)}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if v := binary.LittleEndian.Uint16(b[4:6]); v != 2 {
		t.Errorf("major version = %d", v)
	}
	if v := binary.LittleEndian.Uint16(b[6:8]); v != 4 {
		t.Errorf("minor version = %d", v)
	}
	if v := binary.LittleEndian.Uint32(b[20:24]); v != 1 {
		t.Errorf("link type = %d, want 1 (Ethernet)", v)
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	data := make([]byte, 24)
	binary.LittleEndian.PutUint32(data[0:4], 0xDEADBEEF)
	_, err := ReadAll(bytes.NewReader(data))
	if err != ErrBadMagic {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestReaderRejectsBadLinkType(t *testing.T) {
	data := make([]byte, 24)
	binary.LittleEndian.PutUint32(data[0:4], magicMicroseconds)
	binary.LittleEndian.PutUint16(data[4:6], 2)
	binary.LittleEndian.PutUint32(data[20:24], 101) // raw IP
	_, err := ReadAll(bytes.NewReader(data))
	if err != ErrBadLink {
		t.Errorf("err = %v, want ErrBadLink", err)
	}
}

func TestReaderTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, []wire.Packet{mkPacket(0)}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	_, err := ReadAll(bytes.NewReader(trunc))
	if err == nil {
		t.Error("truncated capture should error")
	}
}

func TestReaderRejectsHugeRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteFrame(time.Now(), []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt the capture length field of the first record.
	binary.LittleEndian.PutUint32(data[24+8:24+12], maxSnapLen+1)
	r := NewReader(bytes.NewReader(data))
	if _, _, err := r.NextFrame(); err != ErrTooLarge {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestWriterRejectsOversizedFrame(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.WriteFrame(time.Now(), make([]byte, maxSnapLen+1)); err != ErrTooLarge {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(10)
		packets := make([]wire.Packet, n)
		for i := range packets {
			payload := make([]byte, rng.Intn(300))
			rng.Read(payload)
			proto := wire.TCP
			if rng.Intn(2) == 0 {
				proto = wire.UDP
			}
			packets[i] = wire.Packet{
				Time:    time.Unix(rng.Int63n(2e9), int64(rng.Intn(1e6))*1000).UTC(),
				Src:     wire.Addr(rng.Uint32()),
				Dst:     wire.Addr(rng.Uint32()),
				SrcPort: uint16(rng.Intn(65536)),
				DstPort: uint16(rng.Intn(65536)),
				Proto:   proto,
				Flags:   wire.TCPFlags(rng.Intn(256)),
				Payload: payload,
			}
		}
		var buf bytes.Buffer
		if err := WriteAll(&buf, packets); err != nil {
			return false
		}
		got, err := ReadAll(&buf)
		if err != nil || len(got) != n {
			return false
		}
		for i := range packets {
			if got[i].Src != packets[i].Src || got[i].Dst != packets[i].Dst {
				return false
			}
			if !got[i].Time.Equal(packets[i].Time) {
				return false
			}
			if len(packets[i].Payload) != len(got[i].Payload) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestReaderNeverPanicsOnGarbageProperty(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = ReadAll(bytes.NewReader(data)) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzReadAll feeds arbitrary bytes to the reader. It must never
// panic, and whatever it reads successfully must survive a write and
// a second read unchanged.
func FuzzReadAll(f *testing.F) {
	var packets []wire.Packet
	for i := 0; i < 3; i++ {
		packets = append(packets, mkPacket(i))
	}
	udp := mkPacket(3)
	udp.Proto, udp.Flags, udp.Payload = wire.UDP, 0, nil
	packets = append(packets, udp)
	for _, seed := range [][]wire.Packet{nil, packets[:1], packets} {
		var buf bytes.Buffer
		if err := WriteAll(&buf, seed); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteAll(&buf, got); err != nil {
			t.Fatalf("rewriting %d read packets: %v", len(got), err)
		}
		again, err := ReadAll(&buf)
		if err != nil {
			t.Fatalf("rereading rewritten capture: %v", err)
		}
		if len(again) != len(got) {
			t.Fatalf("reread %d packets, read %d", len(again), len(got))
		}
		for i := range got {
			a, b := got[i], again[i]
			if !a.Time.Equal(b.Time) || a.Src != b.Src || a.Dst != b.Dst || a.SrcPort != b.SrcPort ||
				a.DstPort != b.DstPort || a.Proto != b.Proto || a.Flags != b.Flags || !bytes.Equal(a.Payload, b.Payload) {
				t.Fatalf("packet %d changed over a write and reread:\n%+v\n%+v", i, a, b)
			}
		}
	})
}
