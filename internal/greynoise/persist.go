package greynoise

import (
	"fmt"
	"maps"
	"slices"

	"cloudwatch/internal/wire"
)

// Serialization of a sealed per-worker delta for the durable epoch
// store. Only the two observation sets are persisted; the same-source
// run caches are observe-time transients, and a restored delta is only
// ever folded into a Service with MergeDelta.

// AppendBinary serializes the delta's observation sets onto dst, each
// in sorted address order, so the same delta always encodes to the
// same bytes.
func (d *Delta) AppendBinary(dst []byte) []byte {
	for _, set := range []map[wire.Addr]struct{}{d.seen, d.exploited} {
		dst = wire.AppendU32(dst, uint32(len(set)))
		for _, src := range slices.Sorted(maps.Keys(set)) {
			dst = wire.AppendU32(dst, uint32(src))
		}
	}
	return dst
}

// DecodeDelta reads one serialized delta.
func DecodeDelta(r *wire.BinReader) (*Delta, error) {
	d := NewDelta()
	n := r.Count(4)
	for i := 0; i < n; i++ {
		d.seen[wire.Addr(r.U32())] = struct{}{}
	}
	n = r.Count(4)
	for i := 0; i < n; i++ {
		d.exploited[wire.Addr(r.U32())] = struct{}{}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("greynoise: decoding delta: %w", err)
	}
	return d, nil
}
