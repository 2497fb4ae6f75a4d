package core

import (
	"sync"

	"cloudwatch/internal/fingerprint"
	"cloudwatch/internal/netsim"
)

// This file holds the study's per-payload derived columns and the
// column readers the analyses share. The per-record facts (study
// seconds, interned payload and vantage ids) are produced by the
// generator's dispatch; the assembler adds the verdict column, the
// per-vantage record lists, and a snapshot of the per-*payload*
// derivations below — the normalized payload key and the LZR protocol
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

// sliceMatch is ProtocolSlice.matches over the record columns: port
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

// addToView folds record ri into v straight from the columns — the
// columnar counterpart of View.Add, producing byte-identical views.
func (s *Study) addToView(v *View, ri int) {
	if !s.sliceMatch(v.Slice, ri) {
		return
	}
	v.Total++
	v.AS.Add(netsim.ASKeyOf(int(s.blk.ASN[ri])), 1)
	for _, c := range s.blk.CredsAt(ri) {
		v.Usernames.Add(c.Username, 1)
		v.Passwords.Add(c.Password, 1)
	}
	if pay := s.blk.Pay[ri]; pay != 0 {
		v.Payloads.Add(s.payKey[pay], 1)
	}
	hour := s.blk.Hour(ri)
	v.Hourly[hour]++
	src := s.blk.Src[ri]
	v.Srcs[src] = struct{}{}
	if s.mal[ri] {
		v.Malicious++
		v.MalHourly[hour]++
		v.MalSrcs[src] = struct{}{}
	} else {
		v.Benign++
	}
}
