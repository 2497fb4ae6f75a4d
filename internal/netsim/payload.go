package netsim

import "sync"

// PayloadID is a compact handle to an interned probe payload. The zero
// id means "no payload". Probes and records carry ids instead of byte
// slices, so per-record payload facts (IDS verdict, normalized key,
// protocol fingerprint) can be computed once per distinct payload and
// shared by every record that carries it.
type PayloadID int32

// payloadInterner is the process-wide payload dictionary. Scanner
// payload corpora register their entries once at package init; dynamic
// payloads (telnet credential captures, raw test probes) intern on
// first sight. The interner always stores its own copy of the bytes,
// so interned payloads never alias a caller's (possibly mutable)
// buffer — the aliasing guarantee the collector's compatibility view
// relies on.
//
// The id space is shared by every study in the process. Ids are opaque
// handles: no analysis output depends on id assignment order, so
// concurrent studies interning in different orders still produce
// byte-identical tables.
//
// Known tradeoff: the interner never evicts. Dictionary corpora are
// small and fixed, but dynamically captured payloads (cleartext telnet
// logins, whose byte forms vary with the credential permutation) add
// entries per distinct capture — a process sweeping many study seeds
// grows the interner (and the per-payload fact caches keyed by id)
// linearly in the distinct captures seen. Scoping dynamic captures per
// study is the noted follow-up if seed sweeps become a steady-state
// workload (see ROADMAP).
var payloadInterner = struct {
	sync.RWMutex
	byContent map[string]PayloadID
	bytes     [][]byte // bytes[0] unused (PayloadID 0 = no payload)
}{
	byContent: map[string]PayloadID{},
	bytes:     [][]byte{nil},
}

// InternPayload returns the stable id of a payload, registering a
// private copy on first sight. Empty payloads return 0. Safe for
// concurrent use.
func InternPayload(p []byte) PayloadID {
	if len(p) == 0 {
		return 0
	}
	payloadInterner.RLock()
	id, ok := payloadInterner.byContent[string(p)]
	payloadInterner.RUnlock()
	if ok {
		return id
	}
	payloadInterner.Lock()
	defer payloadInterner.Unlock()
	if id, ok := payloadInterner.byContent[string(p)]; ok {
		return id
	}
	cp := make([]byte, len(p))
	copy(cp, p)
	id = PayloadID(len(payloadInterner.bytes))
	payloadInterner.bytes = append(payloadInterner.bytes, cp)
	payloadInterner.byContent[string(cp)] = id
	return id
}

// InternPayloads interns a payload corpus, preserving order — the
// registration call payload dictionaries make at package init.
func InternPayloads(ps [][]byte) []PayloadID {
	out := make([]PayloadID, len(ps))
	for i, p := range ps {
		out[i] = InternPayload(p)
	}
	return out
}

// PayloadBytes returns the interned bytes of an id (nil for 0). The
// slice is owned by the interner and must not be mutated.
func PayloadBytes(id PayloadID) []byte {
	if id == 0 {
		return nil
	}
	payloadInterner.RLock()
	b := payloadInterner.bytes[id]
	payloadInterner.RUnlock()
	return b
}

// PayloadCount returns the number of ids handed out so far (including
// the reserved zero id), i.e. every valid id is < PayloadCount().
func PayloadCount() int {
	payloadInterner.RLock()
	n := len(payloadInterner.bytes)
	payloadInterner.RUnlock()
	return n
}
