package telescope

import (
	"fmt"
	"maps"
	"slices"

	"cloudwatch/internal/stats"
	"cloudwatch/internal/wire"
)

// Serialization of a collector for the durable epoch store. A
// collector is nothing but its aggregated state, so the decoded
// collector equals the encoded one; the store only ever merges and
// reads it, like the per-epoch collectors it reconstructs.

// AppendBinary serializes the collector's aggregated state onto dst.
// Every map is written in sorted key order, so the same state always
// encodes to the same bytes.
func (c *Collector) AppendBinary(dst []byte) []byte {
	dst = wire.AppendU64(dst, uint64(c.packets))

	dst = wire.AppendU32(dst, uint32(len(c.srcsByPort)))
	for _, port := range slices.Sorted(maps.Keys(c.srcsByPort)) {
		srcs := c.srcsByPort[port]
		dst = wire.AppendU16(dst, port)
		dst = wire.AppendU32(dst, uint32(len(srcs)))
		for _, s := range slices.Sorted(maps.Keys(srcs)) {
			dst = wire.AppendU32(dst, uint32(s))
		}
	}

	dst = wire.AppendU32(dst, uint32(len(c.asByPort)))
	for _, port := range slices.Sorted(maps.Keys(c.asByPort)) {
		freq := c.asByPort[port]
		dst = wire.AppendU16(dst, port)
		dst = wire.AppendU32(dst, uint32(len(freq)))
		for _, k := range slices.Sorted(maps.Keys(freq)) {
			dst = wire.AppendString(dst, k)
			dst = wire.AppendF64(dst, freq[k])
		}
	}

	dst = wire.AppendU32(dst, uint32(len(c.perAddr)))
	for _, port := range slices.Sorted(maps.Keys(c.perAddr)) {
		log := c.perAddr[port]
		dst = wire.AppendU16(dst, port)
		dst = wire.AppendAddrs(dst, log.dst)
		dst = wire.AppendAddrs(dst, log.src)
	}
	return dst
}

// DecodeCollector reads one serialized collector: safe to Merge from,
// Clone, and read, with the same aggregated state the encoded
// collector held.
func DecodeCollector(r *wire.BinReader) (*Collector, error) {
	c := New()
	c.packets = int(r.U64())

	for i, n := 0, r.Count(3); i < n; i++ {
		port := r.U16()
		m := r.Count(4)
		srcs := make(map[wire.Addr]struct{}, m)
		for j := 0; j < m; j++ {
			srcs[wire.Addr(r.U32())] = struct{}{}
		}
		if r.Err() == nil {
			c.srcsByPort[port] = srcs
		}
	}

	for i, n := 0, r.Count(3); i < n; i++ {
		port := r.U16()
		m := r.Count(12)
		freq := make(stats.Freq, m)
		for j := 0; j < m; j++ {
			k := r.String()
			v := r.F64()
			if r.Err() == nil {
				freq[k] = v
			}
		}
		if r.Err() == nil {
			c.asByPort[port] = freq
		}
	}

	for i, n := 0, r.Count(3); i < n; i++ {
		port := r.U16()
		log := &watchLog{
			dst: r.Addrs(),
			src: r.Addrs(),
		}
		if len(log.dst) != len(log.src) {
			return nil, fmt.Errorf("telescope: watch log columns disagree (%d dst vs %d src)", len(log.dst), len(log.src))
		}
		if r.Err() == nil {
			c.perAddr[port] = log
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("telescope: decoding collector: %w", err)
	}
	return c, nil
}
