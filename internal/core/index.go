package core

import (
	"sync"

	"cloudwatch/internal/fingerprint"
	"cloudwatch/internal/netsim"
	"cloudwatch/internal/stats"
)

// This file holds the study's per-payload derived columns, the column
// readers the analyses share, and the vantage view kernel that reads
// them. The per-record facts (study seconds, interned payload and
// vantage ids) are produced by the generator's dispatch; the assembler
// adds the per-payload verdict table, the per-vantage record lists,
// and a snapshot of the per-*payload* derivations below — the normalized payload key and the LZR protocol
// fingerprint, computed once per interned payload. Nothing rescans
// the record columns after assembly.

// payFacts is the process-wide per-payload derivation cache: the
// payloadKey and fingerprint.Identify of every interned payload,
// indexed by netsim.PayloadID. Both are pure functions of the payload
// bytes, so studies share the cache; each study snapshots the prefix
// covering its own payloads. Slices only ever grow under the lock, and
// published elements are never rewritten, so snapshot reads need no
// synchronization.
var payFacts struct {
	sync.Mutex
	key   []string
	proto []fingerprint.Protocol
}

// payFactsSnapshot extends the cache to cover every payload interned
// so far (count = netsim.PayloadCount()) and returns stable snapshots.
func payFactsSnapshot(count int) ([]string, []fingerprint.Protocol) {
	payFacts.Lock()
	defer payFacts.Unlock()
	for id := len(payFacts.key); id < count; id++ {
		if id == 0 {
			payFacts.key = append(payFacts.key, "")
			payFacts.proto = append(payFacts.proto, fingerprint.Unknown)
			continue
		}
		b := netsim.PayloadBytes(netsim.PayloadID(id))
		payFacts.key = append(payFacts.key, payloadKey(b))
		payFacts.proto = append(payFacts.proto, fingerprint.Identify(b))
	}
	return payFacts.key[:count], payFacts.proto[:count]
}

// recPayKey returns the normalized payload key of record ri ("" for
// payloadless records).
func (s *Study) recPayKey(ri int) string { return s.payKey[s.blk.Pay[ri]] }

// recProto returns the LZR fingerprint of record ri's payload.
func (s *Study) recProto(ri int) fingerprint.Protocol { return s.payProto[s.blk.Pay[ri]] }

// sliceMatch reports whether record ri belongs to the slice: port
// slices test the port column, the HTTP-all slice tests the
// per-payload fingerprint column instead of re-identifying bytes.
func (s *Study) sliceMatch(slice ProtocolSlice, ri int) bool {
	switch slice {
	case SliceSSH22:
		return s.blk.Port[ri] == 22
	case SliceSSH2222:
		return s.blk.Port[ri] == 2222
	case SliceTelnet23:
		return s.blk.Port[ri] == 23
	case SliceTelnet2323:
		return s.blk.Port[ri] == 2323
	case SliceHTTP80:
		return s.blk.Port[ri] == 80
	case SliceHTTPAll:
		return s.blk.Pay[ri] != 0 && s.recProto(ri) == fingerprint.HTTP
	case SliceAnyAll:
		return true
	default:
		return false
	}
}

// viewCounts is the scratch state of one vantage view build: record
// counts per ASN and per payload id, keyed by the record columns'
// dense ids so the scan hashes no strings. Builds run in parallel, so
// each takes its own counters from viewCountsPool and returns them
// cleared.
type viewCounts struct {
	as  map[int32]int32
	pay map[netsim.PayloadID]int32
}

var viewCountsPool = sync.Pool{New: func() any {
	return &viewCounts{as: map[int32]int32{}, pay: map[netsim.PayloadID]int32{}}
}}

// buildVantageView computes a vantage view from the record columns,
// bypassing the cache. AS and payload counts are tallied by id and
// folded into the string-keyed tables once per distinct id; counts are
// integers, so adding a total in one step gives the same float64 as
// adding 1 per record, whichever ids share a key.
func (s *Study) buildVantageView(id string, slice ProtocolSlice) *View {
	v := NewView(slice)
	c := viewCountsPool.Get().(*viewCounts)
	for _, ri := range s.vantageIdxs(id) {
		i := int(ri)
		if !s.sliceMatch(slice, i) {
			continue
		}
		v.Total++
		c.as[s.blk.ASN[i]]++
		for _, cr := range s.blk.CredsAt(i) {
			v.Usernames.Add(cr.Username, 1)
			v.Passwords.Add(cr.Password, 1)
		}
		if pay := s.blk.Pay[i]; pay != 0 {
			c.pay[pay]++
		}
		hour := s.blk.Hour(i)
		v.Hourly[hour]++
		if s.malicious(i) {
			v.Malicious++
			v.MalHourly[hour]++
		} else {
			v.Benign++
		}
	}
	v.AS = make(stats.Freq, len(c.as))
	for asn, n := range c.as {
		v.AS.Add(netsim.ASKeyOf(int(asn)), float64(n))
	}
	v.Payloads = make(stats.Freq, len(c.pay))
	for pay, n := range c.pay {
		v.Payloads.Add(s.payKey[pay], float64(n))
	}
	clear(c.as)
	clear(c.pay)
	viewCountsPool.Put(c)
	return v
}
