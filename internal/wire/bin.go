package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary append/read helpers shared by the durable-store codecs
// (internal/netsim and internal/telescope serialize their sealed
// epoch state through these; internal/store frames the
// result). Everything is little-endian and length-prefixed; the append
// side grows a caller-owned []byte, the read side is a cursor with a
// sticky error so decoders can chain reads and check once.

// AppendU8 appends one byte.
func AppendU8(dst []byte, v uint8) []byte { return append(dst, v) }

// AppendU16 appends a little-endian uint16.
func AppendU16(dst []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(dst, v) }

// AppendU32 appends a little-endian uint32.
func AppendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }

// AppendU64 appends a little-endian uint64.
func AppendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// AppendI32 appends a little-endian int32.
func AppendI32(dst []byte, v int32) []byte { return AppendU32(dst, uint32(v)) }

// AppendF64 appends the IEEE 754 bits of a float64.
func AppendF64(dst []byte, v float64) []byte { return AppendU64(dst, math.Float64bits(v)) }

// AppendBytes appends a u32 length prefix followed by the bytes.
func AppendBytes(dst, b []byte) []byte {
	dst = AppendU32(dst, uint32(len(b)))
	return append(dst, b...)
}

// AppendString appends a u32 length prefix followed by the string bytes.
func AppendString(dst []byte, s string) []byte {
	dst = AppendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

// AppendI32s appends a u32 count followed by the raw int32 values.
func AppendI32s(dst []byte, vs []int32) []byte {
	dst = AppendU32(dst, uint32(len(vs)))
	for _, v := range vs {
		dst = AppendI32(dst, v)
	}
	return dst
}

// AppendAddrs appends a u32 count followed by the addresses as u32s.
func AppendAddrs(dst []byte, vs []Addr) []byte {
	dst = AppendU32(dst, uint32(len(vs)))
	for _, v := range vs {
		dst = AppendU32(dst, uint32(v))
	}
	return dst
}

// BinReader is a cursor over an encoded buffer with a sticky error:
// the first malformed read poisons the cursor, every later read
// returns zero values, and decoders check Err once at the end. Counts
// and lengths are validated against the remaining bytes before any
// allocation, so corrupt (CRC-evading) input cannot force
// pathological allocations.
type BinReader struct {
	buf []byte
	off int
	err error
}

// NewBinReader returns a cursor over buf.
func NewBinReader(buf []byte) *BinReader { return &BinReader{buf: buf} }

// Err returns the first decode error, or nil.
func (r *BinReader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *BinReader) Len() int { return len(r.buf) - r.off }

func (r *BinReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated %s at offset %d", what, r.off)
	}
}

func (r *BinReader) take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Len() < n {
		r.fail(what)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *BinReader) U8() uint8 {
	b := r.take(1, "u8")
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (r *BinReader) U16() uint16 {
	b := r.take(2, "u16")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (r *BinReader) U32() uint32 {
	b := r.take(4, "u32")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *BinReader) U64() uint64 {
	b := r.take(8, "u64")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I32 reads a little-endian int32.
func (r *BinReader) I32() int32 { return int32(r.U32()) }

// F64 reads a float64 from its IEEE 754 bits.
func (r *BinReader) F64() float64 { return math.Float64frombits(r.U64()) }

// Count reads a u32 element count and validates it against the
// remaining bytes assuming each element costs at least elemSize bytes,
// so corrupt counts fail instead of allocating.
func (r *BinReader) Count(elemSize int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if n < 0 || (elemSize > 0 && n > r.Len()/elemSize) {
		r.fail("count")
		return 0
	}
	return n
}

// Bytes reads a u32 length prefix and returns a copy of the bytes.
func (r *BinReader) Bytes() []byte {
	n := r.Count(1)
	b := r.take(n, "bytes")
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// String reads a u32 length prefix and the string bytes.
func (r *BinReader) String() string {
	n := r.Count(1)
	b := r.take(n, "string")
	return string(b)
}

// I32s reads a u32 count followed by that many int32 values.
func (r *BinReader) I32s() []int32 {
	n := r.Count(4)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = r.I32()
	}
	return out
}

// Addrs reads a u32 count followed by that many addresses.
func (r *BinReader) Addrs() []Addr {
	n := r.Count(4)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]Addr, n)
	for i := range out {
		out[i] = Addr(r.U32())
	}
	return out
}
