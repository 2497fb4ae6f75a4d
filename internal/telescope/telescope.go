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
	"sort"

	"cloudwatch/internal/netsim"
	"cloudwatch/internal/stats"
	"cloudwatch/internal/wire"
)

// watchLog is the columnar per-destination tracking of one watched
// port: an append-only (dst, src) observation log with a run-length
// skip (sweeps emit long runs of one pair). Uniqueness is deferred to
// the reader — PerAddressSeries sorts and dedups the packed pairs —
// so observing costs two column appends instead of two nested map
// probes, and merging shard logs is a column concatenation.
type watchLog struct {
	dst []wire.Addr
	src []wire.Addr

	lastDst, lastSrc wire.Addr
	lastOK           bool
}

// observe appends one (dst, src) pair unless it repeats the previous
// one. Skipped pairs are always already in the log, so the read-side
// dedup sees the same unique-pair set the historical per-address maps
// held.
func (l *watchLog) observe(dst, src wire.Addr) {
	if l.lastOK && dst == l.lastDst && src == l.lastSrc {
		return
	}
	l.dst = append(l.dst, dst)
	l.src = append(l.src, src)
	l.lastDst, l.lastSrc, l.lastOK = dst, src, true
}

// Collector aggregates darknet traffic. Not safe for concurrent use;
// the parallel study driver gives each worker a private Collector and
// folds the shards together with Merge.
type Collector struct {
	srcsByPort map[uint16]map[wire.Addr]struct{}
	asByPort   map[uint16]stats.Freq
	perAddr    map[uint16]*watchLog
	watch      map[uint16]bool
	packets    int

	// Per-port lookup cache for the observe hot path: sweeps hammer
	// one port for long stretches, so the three per-probe map lookups
	// collapse to a port comparison. Valid only between ObserveRun
	// calls (single-goroutine use, per the type contract).
	cachePort  uint16
	cacheOK    bool
	cacheSrcs  map[wire.Addr]struct{}
	cacheFreq  stats.Freq
	cacheWatch *watchLog // nil when port unwatched

	// Per-AS deferred count: consecutive probes come from one actor
	// (one AS), so AS-frequency increments accumulate in a plain
	// counter and flush into cacheFreq when the (port, ASN) run ends —
	// one map assignment per run instead of per probe. flushAS runs on
	// port/ASN switches, on Merge (both sides), and on the frequency
	// readers; a merged study collector never observes, so its reads
	// stay mutation-free and safe for concurrent experiments.
	cacheASN int
	cacheKey string
	asValid  bool
	pending  float64
}

// New returns a collector tracking per-destination detail for the
// watched ports (Figure 1 needs ports 22, 80, 445, 17128).
func New(watchPorts ...uint16) *Collector {
	w := make(map[uint16]bool, len(watchPorts))
	for _, p := range watchPorts {
		w[p] = true
	}
	return &Collector{
		srcsByPort: map[uint16]map[wire.Addr]struct{}{},
		asByPort:   map[uint16]stats.Freq{},
		perAddr:    map[uint16]*watchLog{},
		watch:      w,
	}
}

// ObserveRun records the first packet of a probe. Telescopes do not
// complete handshakes, so payloads and credentials are dropped by
// construction. The probe is borrowed for the duration of the call:
// callers may reuse the pointed-to value, and the collector keeps only
// scalar fields.
//
// Callers track (port, src[, dst]) runs themselves — the streaming
// engine's epoch shards see every probe of a worker and dedup runs
// across that worker's per-epoch collectors (a run's probes
// round-robin across epochs, so no single collector sees the
// repetition). srcNew=false promises p.Src is already in this
// collector's port-src set for p.Port within the current run;
// pairNew=false promises the (p.Dst, p.Src) pair is already in this
// collector's watch log for p.Port. Packet and AS-frequency counting
// are never skipped — only the idempotent set insert and the watch-log
// append, so ObserveRun(p, true, true) on every probe reaches the same
// aggregated state.
func (c *Collector) ObserveRun(p *netsim.Probe, srcNew, pairNew bool) {
	c.packets++
	if !c.cacheOK || p.Port != c.cachePort {
		c.fillPortCache(p.Port)
	}
	if srcNew {
		c.cacheSrcs[p.Src] = struct{}{}
	}

	if p.ASN != c.cacheASN || !c.asValid {
		c.flushAS()
		c.cacheASN = p.ASN
		c.asValid = true
		if as, found := netsim.LookupAS(p.ASN); found {
			c.cacheKey = as.Key()
		} else {
			c.cacheKey = "unknown"
		}
	}
	c.pending++

	if pairNew {
		if log := c.cacheWatch; log != nil {
			log.observe(p.Dst, p.Src)
		}
	}
}

// flushAS folds the deferred AS-frequency run counter into the cached
// port's table. With nothing pending it performs no writes at all, so
// the frequency readers of a merged (never-observed) collector stay
// safe for concurrent use.
func (c *Collector) flushAS() {
	if c.asValid && c.pending > 0 {
		c.cacheFreq.Add(c.cacheKey, c.pending)
		c.pending = 0
	}
}

// fillPortCache points the observe cache at port's aggregation maps,
// creating them on first traffic. The deferred AS count is flushed
// first: it belongs to the previous port's table.
func (c *Collector) fillPortCache(port uint16) {
	c.flushAS()
	c.asValid = false
	srcs, ok := c.srcsByPort[port]
	if !ok {
		srcs = map[wire.Addr]struct{}{}
		c.srcsByPort[port] = srcs
	}
	freq, ok := c.asByPort[port]
	if !ok {
		freq = stats.Freq{}
		c.asByPort[port] = freq
	}
	var log *watchLog
	if c.watch[port] {
		log, ok = c.perAddr[port]
		if !ok {
			log = &watchLog{}
			c.perAddr[port] = log
		}
	}
	c.cachePort, c.cacheOK = port, true
	c.cacheSrcs, c.cacheFreq, c.cacheWatch = srcs, freq, log
}

// Packets returns the total packet count observed.
func (c *Collector) Packets() int { return c.packets }

// Flush folds any deferred per-run aggregation into the tables. After
// Flush, and as long as no further ObserveRun calls happen, the collector
// is pure data: Merge sources and every reader are write-free, so a
// sealed collector may feed concurrent merges (the streaming engine
// seals its per-epoch collectors once generation finishes).
func (c *Collector) Flush() { c.flushAS() }

// Clone returns a collector with the same aggregated state, for
// extending a sealed collector without mutating it — the incremental
// snapshot chain clones the previous prefix's collector and merges
// only the new epoch's shards into the clone. The aggregation maps are
// deep-copied (they mutate on merge); the watch-port set is shared
// (immutable after New), and the per-destination watch-log columns are
// shared append-style: the clone's logs start as views of c's columns,
// so a later Merge extends them without copying the history. Only one
// clone per collector may ever be extended (the snapshot chain is
// linear), which keeps the shared column tails single-writer; c itself
// stays sealed and safe for concurrent readers throughout.
func (c *Collector) Clone() *Collector {
	c.flushAS()
	n := &Collector{
		srcsByPort: make(map[uint16]map[wire.Addr]struct{}, len(c.srcsByPort)),
		asByPort:   make(map[uint16]stats.Freq, len(c.asByPort)),
		perAddr:    make(map[uint16]*watchLog, len(c.perAddr)),
		watch:      c.watch,
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
		n.perAddr[port] = &watchLog{
			dst:     log.dst,
			src:     log.src,
			lastDst: log.lastDst,
			lastSrc: log.lastSrc,
			lastOK:  log.lastOK,
		}
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
	c.flushAS()
	o.flushAS()
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
		if !c.watch[port] {
			continue
		}
		log, ok := c.perAddr[port]
		if !ok {
			log = &watchLog{}
			c.perAddr[port] = log
		}
		log.dst = append(log.dst, olog.dst...)
		log.src = append(log.src, olog.src...)
		// The merged tail ends with o's last pair; adopting it keeps the
		// run-length skip sound (a skipped pair is always in the log).
		if olog.lastOK {
			log.lastDst, log.lastSrc, log.lastOK = olog.lastDst, olog.lastSrc, true
		}
	}
}

// UniqueSources returns the set of source addresses seen on a port.
// The returned map is shared; callers must not mutate it.
func (c *Collector) UniqueSources(port uint16) map[wire.Addr]struct{} {
	return c.srcsByPort[port]
}

// UniqueSourceCount returns the number of distinct sources on a port.
func (c *Collector) UniqueSourceCount(port uint16) int {
	return len(c.srcsByPort[port])
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
	c.flushAS()
	f := c.asByPort[port]
	if f == nil {
		return stats.Freq{}
	}
	return f
}

// ASFrequenciesAll merges the AS tables of every port.
func (c *Collector) ASFrequenciesAll() stats.Freq {
	c.flushAS()
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
// order — the raw series behind Figure 1. Unwatched ports return nil.
//
// The watch log is columnar: pairs are packed into one uint64 key,
// sorted, and deduplicated in a scratch copy (the log itself is never
// mutated, so concurrent series builds over different — or the same —
// ports are safe on a merged collector), and each distinct
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

// RollingMedianWindow smooths a per-address series with a trailing
// window average ("we compute a rolling average of the # of scanning
// IPs across every consecutive 512 IPs", Figure 1 caption).
func RollingMedianWindow(series []int, window int) []float64 {
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

// WatchedPorts returns the ports with per-destination tracking, sorted.
func (c *Collector) WatchedPorts() []uint16 {
	var out []uint16
	for p := range c.watch {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
