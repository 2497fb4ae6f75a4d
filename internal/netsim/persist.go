package netsim

import (
	"fmt"

	"cloudwatch/internal/wire"
)

// Serialization of the columnar record store for the durable epoch
// store (internal/store). The struct-of-arrays layout makes framing
// near-free: every scalar column is appended as a length-prefixed run
// of fixed-width values, and only the credential arena needs
// per-element encoding.
//
// Payload ids are process-local (the interner hands them out in
// first-sight order, which depends on worker scheduling and on every
// other study the process ran), so a block on disk carries dictionary
// ids instead: PayloadDictOf renumbers the ids a set of blocks
// references densely, AppendBinary writes the Pay column through that
// renumbering, and AppendPayloadDict persists the referenced payloads.
// Reading is two-phase so a damaged file never touches the interner:
// DecodePayloadDict and DecodeRecordBlock only decode and validate,
// and once everything has decoded InternPayloadDict interns the
// dictionary and RemapPayloads rewrites each block's Pay column.

// AppendBinary serializes the block onto dst and returns the extended
// buffer. The Pay column is written through renumber (process id →
// dictionary id, from PayloadDictOf).
func (b *RecordBlock) AppendBinary(dst []byte, renumber []PayloadID) []byte {
	n := b.Len()
	dst = wire.AppendU32(dst, uint32(n))
	dst = wire.AppendI32s(dst, b.Vantage)
	dst = wire.AppendI32s(dst, b.Sec)
	dst = wire.AppendI32s(dst, b.Nsec)
	dst = wire.AppendAddrs(dst, b.Src)
	dst = wire.AppendI32s(dst, b.ASN)
	dst = wire.AppendU32(dst, uint32(len(b.Port)))
	for _, p := range b.Port {
		dst = wire.AppendU16(dst, p)
	}
	dst = wire.AppendU32(dst, uint32(len(b.Transport)))
	for _, tr := range b.Transport {
		dst = wire.AppendU8(dst, uint8(tr))
	}
	dst = wire.AppendU32(dst, uint32(len(b.Pay)))
	for _, pay := range b.Pay {
		dst = wire.AppendI32(dst, int32(renumber[pay]))
	}
	dst = wire.AppendI32s(dst, b.Cred)
	dst = wire.AppendU32(dst, uint32(len(b.CredLists)))
	for _, creds := range b.CredLists {
		dst = wire.AppendU32(dst, uint32(len(creds)))
		for _, c := range creds {
			dst = wire.AppendString(dst, c.Username)
			dst = wire.AppendString(dst, c.Password)
		}
	}
	return dst
}

// DecodeRecordBlock reads one serialized block whose Pay column holds
// ids of a dictionary of dictLen entries; RemapPayloads turns them into
// process ids once the dictionary is interned. Every column must carry
// the same record count.
func DecodeRecordBlock(r *wire.BinReader, dictLen int) (RecordBlock, error) {
	var b RecordBlock
	n := int(r.U32())
	b.Vantage = r.I32s()
	b.Sec = r.I32s()
	b.Nsec = r.I32s()
	b.Src = r.Addrs()
	b.ASN = r.I32s()

	nPort := r.Count(2)
	if r.Err() == nil && nPort > 0 {
		b.Port = make([]uint16, nPort)
		for i := range b.Port {
			b.Port[i] = r.U16()
		}
	}
	nTr := r.Count(1)
	if r.Err() == nil && nTr > 0 {
		b.Transport = make([]wire.Transport, nTr)
		for i := range b.Transport {
			b.Transport[i] = wire.Transport(r.U8())
		}
	}
	nPay := r.Count(4)
	if r.Err() == nil && nPay > 0 {
		b.Pay = make([]PayloadID, nPay)
		for i := range b.Pay {
			id := r.I32()
			if id < 0 || int(id) > dictLen {
				return b, fmt.Errorf("netsim: record block payload id %d outside dictionary of %d", id, dictLen)
			}
			b.Pay[i] = PayloadID(id)
		}
	}
	b.Cred = r.I32s()

	nLists := r.Count(4)
	if r.Err() == nil && nLists > 0 {
		b.CredLists = make([][]Credential, nLists)
		for i := range b.CredLists {
			creds := make([]Credential, r.Count(8))
			for j := range creds {
				creds[j] = Credential{Username: r.String(), Password: r.String()}
			}
			b.CredLists[i] = creds
		}
	}
	if err := r.Err(); err != nil {
		return b, fmt.Errorf("netsim: decoding record block: %w", err)
	}
	for _, col := range []int{len(b.Vantage), len(b.Sec), len(b.Nsec), len(b.Src), len(b.ASN), len(b.Port), len(b.Transport), len(b.Pay), len(b.Cred)} {
		if col != n {
			return b, fmt.Errorf("netsim: record block columns disagree on length (%d vs %d)", col, n)
		}
	}
	for _, c := range b.Cred {
		if c >= 0 && int(c) >= len(b.CredLists) {
			return b, fmt.Errorf("netsim: record block credential index %d outside arena of %d", c, len(b.CredLists))
		}
	}
	return b, nil
}

// RemapPayloads rewrites a decoded block's Pay column from dictionary
// ids to process ids through remap (from InternPayloadDict).
func (b *RecordBlock) RemapPayloads(remap []PayloadID) {
	for i, id := range b.Pay {
		b.Pay[i] = remap[id]
	}
}

// PayloadDictOf numbers the payload ids the blocks reference densely,
// in order of first reference: dictionary id i+1 is ids[i], and
// renumber maps a process id to its dictionary id (0 for the empty
// payload and for ids no block references). The dictionary depends on
// the blocks alone, not on what else the process has interned.
func PayloadDictOf(blocks []*RecordBlock) (ids, renumber []PayloadID) {
	renumber = make([]PayloadID, PayloadCount())
	for _, b := range blocks {
		for _, pay := range b.Pay {
			if pay != 0 && renumber[pay] == 0 {
				ids = append(ids, pay)
				renumber[pay] = PayloadID(len(ids))
			}
		}
	}
	return ids, renumber
}

// AppendPayloadDict serializes the payloads of ids, in order (see
// PayloadDictOf).
func AppendPayloadDict(dst []byte, ids []PayloadID) []byte {
	dst = wire.AppendU32(dst, uint32(len(ids)))
	for _, id := range ids {
		dst = wire.AppendBytes(dst, PayloadBytes(id))
	}
	return dst
}

// DecodePayloadDict reads a persisted payload dictionary without
// interning it: entry i holds the bytes of dictionary id i+1.
func DecodePayloadDict(r *wire.BinReader) ([][]byte, error) {
	n := r.Count(4)
	entries := make([][]byte, 0, n)
	for i := 1; i <= n; i++ {
		pay := r.Bytes()
		if r.Err() != nil {
			break
		}
		if len(pay) == 0 {
			return nil, fmt.Errorf("netsim: payload dictionary entry %d is empty", i)
		}
		entries = append(entries, pay)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("netsim: decoding payload dictionary: %w", err)
	}
	return entries, nil
}

// InternPayloadDict interns a decoded dictionary in this process and
// returns the remap table: dictionary id i maps to remap[i], and
// remap[0] is the reserved "no payload" id.
func InternPayloadDict(entries [][]byte) []PayloadID {
	return append([]PayloadID{0}, InternPayloads(entries)...)
}
