// Package telescope implements the Orion-style network telescope of
// §3.1: a passive collector over unused address space that records
// only the first packet of each connection — no handshake, no
// payloads, no credentials. Because the darknet spans hundreds of
// thousands of addresses, the collector aggregates in place rather
// than materializing per-packet records: unique sources and AS
// frequencies per port (Tables 8–10), and per-destination unique-
// source counts for the watched ports (Figure 1).
package telescope

import (
	"maps"
	"slices"
	"sort"

	"cloudwatch/internal/netsim"
	"cloudwatch/internal/stats"
	"cloudwatch/internal/wire"
)

// WatchPorts are the ports whose per-destination detail the collector
// keeps, in Figure 1's panel order: SSH, SMB, HTTP, and the 17128
// single-target latch.
var WatchPorts = []uint16{22, 445, 80, 17128}

// watchLog is the columnar per-destination tracking of one watched
// port: an append-only (dst, src) observation log. Uniqueness is
// deferred to the reader — PerAddressSeries sorts and dedups the
// packed pairs — so observing costs two column appends instead of two
// nested map probes, and merging shard logs is a column concatenation.
type watchLog struct {
	dst []wire.Addr
	src []wire.Addr
}

// Collector aggregates darknet traffic. Every aggregate is a set union
// or an integer count, so the order of observation never matters. Not
// safe for concurrent observation; the study generator gives each
// worker private collectors and folds them together with Merge. The
// readers never write, so a collector that is no longer observed into
// is safe for concurrent reads and merges.
type Collector struct {
	srcsByPort map[uint16]map[wire.Addr]struct{}
	asByPort   map[uint16]stats.Freq
	perAddr    map[uint16]*watchLog // WatchPorts only
	packets    int
}

// New returns an empty collector.
func New() *Collector {
	return &Collector{
		srcsByPort: map[uint16]map[wire.Addr]struct{}{},
		asByPort:   map[uint16]stats.Freq{},
		perAddr:    map[uint16]*watchLog{},
	}
}

// Observe records the first packet of a probe. Telescopes do not
// complete handshakes, so payloads and credentials are dropped by
// construction. The probe is borrowed for the duration of the call:
// callers may reuse the pointed-to value, and the collector keeps only
// scalar fields.
func (c *Collector) Observe(p *netsim.Probe) {
	c.packets++
	srcs, ok := c.srcsByPort[p.Port]
	if !ok {
		srcs = map[wire.Addr]struct{}{}
		c.srcsByPort[p.Port] = srcs
	}
	srcs[p.Src] = struct{}{}

	freq, ok := c.asByPort[p.Port]
	if !ok {
		freq = stats.Freq{}
		c.asByPort[p.Port] = freq
	}
	key := "unknown"
	if as, found := netsim.LookupAS(p.ASN); found {
		key = as.Key()
	}
	freq.Add(key, 1)

	if slices.Contains(WatchPorts, p.Port) {
		log, ok := c.perAddr[p.Port]
		if !ok {
			log = &watchLog{}
			c.perAddr[p.Port] = log
		}
		log.dst = append(log.dst, p.Dst)
		log.src = append(log.src, p.Src)
	}
}

// Packets returns the total packet count observed.
func (c *Collector) Packets() int { return c.packets }

// Clone returns a collector with the same aggregated state, for
// extending a collector without mutating it — the incremental
// snapshot chain clones the previous prefix's collector and merges
// only the new epoch's shards into the clone. The aggregation maps are
// deep-copied (they mutate on merge), and the per-destination
// watch-log columns are shared append-style: the clone's logs start as
// views of c's columns, so a later Merge extends them without copying
// the history. Only one clone per collector may ever be extended (the
// snapshot chain is linear), which keeps the shared column tails
// single-writer; c itself stays safe for concurrent readers
// throughout.
func (c *Collector) Clone() *Collector {
	n := &Collector{
		srcsByPort: make(map[uint16]map[wire.Addr]struct{}, len(c.srcsByPort)),
		asByPort:   make(map[uint16]stats.Freq, len(c.asByPort)),
		perAddr:    make(map[uint16]*watchLog, len(c.perAddr)),
		packets:    c.packets,
	}
	// maps.Clone bulk-copies the per-port aggregates without re-hashing
	// every entry — the snapshot chain clones once per ingested epoch
	// over sets that only ever grow.
	for port, srcs := range c.srcsByPort {
		n.srcsByPort[port] = maps.Clone(srcs)
	}
	for port, freq := range c.asByPort {
		n.asByPort[port] = maps.Clone(freq)
	}
	for port, log := range c.perAddr {
		n.perAddr[port] = &watchLog{dst: log.dst, src: log.src}
	}
	return n
}

// Merge folds another collector's observations into c. Every
// aggregate is a set union or an integer-count sum, so merging shard
// collectors in any order yields the same state a single collector
// would have reached observing all probes serially — the property the
// parallel study pipeline relies on. The other collector is left
// unmodified and must not be observed into concurrently. Merging a
// collector into itself is a no-op.
func (c *Collector) Merge(o *Collector) {
	if c == o {
		return
	}
	c.packets += o.packets
	for port, srcs := range o.srcsByPort {
		dst, ok := c.srcsByPort[port]
		if !ok {
			dst = make(map[wire.Addr]struct{}, len(srcs))
			c.srcsByPort[port] = dst
		}
		for s := range srcs {
			dst[s] = struct{}{}
		}
	}
	for port, freq := range o.asByPort {
		dst, ok := c.asByPort[port]
		if !ok {
			dst = stats.Freq{}
			c.asByPort[port] = dst
		}
		for k, v := range freq {
			dst.Add(k, v)
		}
	}
	for port, olog := range o.perAddr {
		log, ok := c.perAddr[port]
		if !ok {
			log = &watchLog{}
			c.perAddr[port] = log
		}
		log.dst = append(log.dst, olog.dst...)
		log.src = append(log.src, olog.src...)
	}
}

// UniqueSources returns the set of source addresses seen on a port.
// The returned map is shared; callers must not mutate it.
func (c *Collector) UniqueSources(port uint16) map[wire.Addr]struct{} {
	return c.srcsByPort[port]
}

// AllSources returns the distinct sources across every port.
func (c *Collector) AllSources() map[wire.Addr]struct{} {
	out := map[wire.Addr]struct{}{}
	for _, srcs := range c.srcsByPort {
		for s := range srcs {
			out[s] = struct{}{}
		}
	}
	return out
}

// ASFrequencies returns the AS frequency table of a port. The table is
// shared; callers must not mutate it.
func (c *Collector) ASFrequencies(port uint16) stats.Freq {
	f := c.asByPort[port]
	if f == nil {
		return stats.Freq{}
	}
	return f
}

// ASFrequenciesAll merges the AS tables of every port.
func (c *Collector) ASFrequenciesAll() stats.Freq {
	out := stats.Freq{}
	for _, f := range c.asByPort {
		for k, v := range f {
			out.Add(k, v)
		}
	}
	return out
}

// PerAddressSeries returns, for a watched port, the unique-source
// count of every destination address in u's telescope space in address
// order — the raw series behind Figure 1. Ports outside WatchPorts, and
// watched ports without traffic, return nil.
//
// The watch log is columnar: pairs are packed into one uint64 key,
// sorted, and deduplicated in a scratch copy (the log itself is never
// mutated, so concurrent series builds over different — or the same —
// ports are safe), and each distinct
// destination's count lands at its global index via the universe's
// sorted-block telescope index, one binary search per destination run.
func (c *Collector) PerAddressSeries(u *netsim.Universe, port uint16) []int {
	log, ok := c.perAddr[port]
	if !ok {
		return nil
	}
	out := make([]int, u.TelescopeSize())
	keys := make([]uint64, len(log.dst))
	for i, dst := range log.dst {
		keys[i] = uint64(dst)<<32 | uint64(log.src[i])
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var prev uint64
	curIdx, curOK := 0, false
	var curDst wire.Addr
	for i, k := range keys {
		if i > 0 && k == prev {
			continue
		}
		prev = k
		if dst := wire.Addr(k >> 32); !curOK || dst != curDst {
			curDst = dst
			curIdx, curOK = u.TelescopeIndex(dst)
		}
		if curOK {
			out[curIdx]++
		}
	}
	return out
}

// BlockMeans splits a per-address series into consecutive,
// non-overlapping blocks of window addresses and returns the mean of
// each complete block; a trailing partial block is dropped. This is
// the smoothing behind Figure 1's "rolling average of the # of
// scanning IPs across every consecutive 512 IPs".
func BlockMeans(series []int, window int) []float64 {
	if window <= 0 || len(series) == 0 {
		return nil
	}
	out := make([]float64, 0, len(series)/window)
	for start := 0; start+window <= len(series); start += window {
		sum := 0
		for i := start; i < start+window; i++ {
			sum += series[i]
		}
		out = append(out, float64(sum)/float64(window))
	}
	return out
}
