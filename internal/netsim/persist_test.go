package netsim

import (
	"reflect"
	"testing"
	"time"

	"cloudwatch/internal/wire"
)

func persistTestBlock(t *testing.T) (RecordBlock, []PayloadID) {
	t.Helper()
	payA := InternPayload([]byte("persist-test-payload-A"))
	payB := InternPayload([]byte("persist-test-payload-B"))
	var b RecordBlock
	mk := func(src wire.Addr, port uint16, pay PayloadID, creds []Credential) {
		p := Probe{
			T:         StudyStart.Add(90 * time.Minute),
			Src:       src,
			ASN:       64500,
			Port:      port,
			Transport: wire.TCP,
			Pay:       pay,
		}
		b.Append(7, &p, pay, creds)
	}
	mk(101, 22, payA, []Credential{{Username: "root", Password: "toor"}, {Username: "admin", Password: ""}})
	mk(102, 80, payB, nil)
	mk(103, 445, 0, nil)
	mk(101, 23, payA, []Credential{{Username: "pi", Password: "raspberry"}})
	return b, []PayloadID{payA, payB}
}

// roundTrip encodes a block with its payload dictionary and decodes
// both again, the way the durable store does.
func roundTrip(t *testing.T, b RecordBlock) RecordBlock {
	t.Helper()
	ids, renumber := PayloadDictOf([]*RecordBlock{&b})
	entries, err := DecodePayloadDict(wire.NewBinReader(AppendPayloadDict(nil, ids)))
	if err != nil {
		t.Fatal(err)
	}
	r := wire.NewBinReader(b.AppendBinary(nil, renumber))
	got, err := DecodeRecordBlock(r, len(entries))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("decoder left %d bytes", r.Len())
	}
	got.RemapPayloads(InternPayloadDict(entries))
	return got
}

func TestRecordBlockBinaryRoundTrip(t *testing.T) {
	b, pays := persistTestBlock(t)
	got := roundTrip(t, b)
	if !reflect.DeepEqual(b, got) {
		t.Fatalf("round trip mismatch:\n%+v\nvs\n%+v", b, got)
	}
	if got.Pay[0] != pays[0] || got.Pay[1] != pays[1] {
		t.Fatal("payload ids lost")
	}
	// Reconstructed rows agree too (exercises cred arena + timestamps).
	for i := 0; i < b.Len(); i++ {
		if !reflect.DeepEqual(b.Record(i, "v"), got.Record(i, "v")) {
			t.Fatalf("record %d differs after round trip", i)
		}
	}
}

// TestPayloadDictOfIsDenseAndStudyScoped checks the dictionary holds
// exactly the referenced payloads, numbered in first-reference order,
// whatever else the process has interned.
func TestPayloadDictOfIsDenseAndStudyScoped(t *testing.T) {
	b, pays := persistTestBlock(t)
	InternPayload([]byte("persist-test-unrelated"))
	ids, renumber := PayloadDictOf([]*RecordBlock{&b})
	if !reflect.DeepEqual(ids, pays) {
		t.Fatalf("dictionary ids %v, want %v", ids, pays)
	}
	if renumber[pays[0]] != 1 || renumber[pays[1]] != 2 || renumber[0] != 0 {
		t.Fatalf("renumbering %d, %d, %d; want 1, 2, 0", renumber[pays[0]], renumber[pays[1]], renumber[0])
	}
}

// TestDecodeRecordBlockRejectsCorruption verifies the decoder fails
// cleanly on out-of-dictionary payload ids, column length skew, and
// bad credential indexes instead of producing a corrupt block.
func TestDecodeRecordBlockRejectsCorruption(t *testing.T) {
	b, _ := persistTestBlock(t)
	ids, renumber := PayloadDictOf([]*RecordBlock{&b})
	enc := b.AppendBinary(nil, renumber)

	// Truncations at a sample of offsets must error, never panic.
	for _, cut := range []int{0, 1, 5, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeRecordBlock(wire.NewBinReader(enc[:cut]), len(ids)); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}

	// A payload id outside the dictionary is rejected.
	if _, err := DecodeRecordBlock(wire.NewBinReader(enc), 0); err == nil {
		t.Fatal("out-of-dictionary payload id decoded successfully")
	}
}

func TestDecodePayloadDictRemapsAcrossProcesses(t *testing.T) {
	// Simulate a "foreign" process dictionary: entries the current
	// interner has never seen land at fresh ids, known ones dedup.
	var dict []byte
	dict = wire.AppendU32(dict, 2)
	dict = wire.AppendBytes(dict, []byte("persist-test-payload-A")) // known
	dict = wire.AppendBytes(dict, []byte("persist-test-payload-foreign"))
	before := PayloadCount()
	entries, err := DecodePayloadDict(wire.NewBinReader(dict))
	if err != nil {
		t.Fatal(err)
	}
	if PayloadCount() != before {
		t.Fatalf("decoding interned: %d payloads, was %d", PayloadCount(), before)
	}
	remap := InternPayloadDict(entries)
	if len(remap) != 3 || remap[0] != 0 {
		t.Fatalf("remap = %v", remap)
	}
	if want := InternPayload([]byte("persist-test-payload-A")); remap[1] != want {
		t.Fatalf("known payload remapped to %d, want %d", remap[1], want)
	}
	if got := PayloadBytes(remap[2]); string(got) != "persist-test-payload-foreign" {
		t.Fatalf("foreign payload remapped to %q", got)
	}
}
