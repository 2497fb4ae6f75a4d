// Package stream is the streaming study engine: it partitions a study
// year into time epochs, generates them once (core.GenerateEpochs),
// ingests them one at a time through the incremental assembler
// (core.Incremental), and exposes an immutable prefix snapshot per
// ingested epoch — a full *core.Study on which every table, figure,
// and ablation renders exactly as a core.Run truncated to the same
// window would. On top of snapshots it runs
// K/prefix sweeps of the §3.3 comparison tables (Sweep) and serves
// snapshots and sweeps as JSON over HTTP (Server) with
// per-(epoch, experiment) result caching.
package stream

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"cloudwatch/internal/core"
	"cloudwatch/internal/obs"
	"cloudwatch/internal/scanners"
	"cloudwatch/internal/store"
)

// Engine-level observability: how the snapshot LRU behaves under read
// traffic (a miss means replaying the assembly chain up to the prefix)
// and how far
// ingestion has advanced, registry-wide across every engine of the
// process (one serving engine per process is the intended topology;
// multi-engine sweeps simply sum).
var (
	mSnapHits = obs.Default().Counter("stream_snapshot_lru_hits_total",
		"Non-tip snapshot requests served from the prefix-snapshot LRU.")
	mSnapMisses = obs.Default().Counter("stream_snapshot_lru_misses_total",
		"Non-tip snapshot requests that fell out of the LRU and were replayed through a fresh assembly chain.")
	mSnapEvictions = obs.Default().Counter("stream_snapshot_lru_evictions_total",
		"Prefix snapshots evicted from the snapshot LRU.")
	mSnapEntries = obs.Default().Gauge("stream_snapshot_lru_entries",
		"Prefix snapshots currently retained in the snapshot LRU.")
	mEpochsIngested = obs.Default().Counter("stream_epochs_ingested_total",
		"Epochs ingested (incremental snapshot assemblies published).")
)

// Config sizes a streaming study.
type Config struct {
	// Study is the batch study configuration the stream partitions.
	Study core.Config
	// Epochs is the number of time epochs the week is split into:
	// 0 means DefaultEpochs, anything else must lie in
	// [1, core.MaxEpochs].
	Epochs int
}

// DefaultEpochs is the epoch count used when Config.Epochs is zero.
const DefaultEpochs = 8

// epochs resolves the configured epoch count, rejecting counts outside
// [1, core.MaxEpochs] with the valid range in the error.
func (c Config) epochs() (int, error) {
	switch {
	case c.Epochs == 0:
		return DefaultEpochs, nil
	case c.Epochs < 1 || c.Epochs > core.MaxEpochs:
		return 0, fmt.Errorf("stream: %d epochs out of range [1, %d]", c.Epochs, core.MaxEpochs)
	}
	return c.Epochs, nil
}

// Engine ingests a study epoch by epoch and hands out immutable
// prefix snapshots. Safe for concurrent use: ingestion serializes,
// reads of already-ingested snapshots proceed in parallel — snapshot
// assembly itself runs outside the read lock, so serving never stalls
// behind an ingest.
type Engine struct {
	es *core.EpochSet

	// st, when non-nil, is the durable store backing this engine (see
	// Open): every successful ingest advances its manifest cursor.
	// recovered records whether the study was restored from the store
	// instead of generated.
	st        *store.Store
	recovered bool

	ingestMu sync.Mutex        // serializes ingestion
	inc      *core.Incremental // tip-chain assembler, guarded by ingestMu
	mu       sync.RWMutex
	tip      *core.Study // snapshot of the full ingested prefix
	ingested int

	// cache retains recently used non-tip prefix snapshots (each keeps
	// its own analysis caches warm). It is internally locked and never
	// acquires mu, so it may be touched both under mu and outside it.
	cache snapLRU
}

// snapCacheCap bounds how many non-tip prefix snapshots the engine
// retains. Sixteen covers every prefix of the default 8-epoch split
// with room to spare, while a long split (up to core.MaxEpochs) does
// not pin one full Study per epoch in memory: older prefixes fall out
// and are replayed through a fresh assembly chain on demand.
const snapCacheCap = 16

// snapLRU is a small least-recently-used set of prefix snapshots.
// With at most snapCacheCap entries a slice scan beats any linked
// structure; the zero value is ready to use.
type snapLRU struct {
	mu      sync.Mutex
	entries []snapEntry // most recently used last
}

type snapEntry struct {
	prefix int
	snap   *core.Study
}

func (c *snapLRU) get(prefix int) *core.Study {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, ent := range c.entries {
		if ent.prefix == prefix {
			copy(c.entries[i:], c.entries[i+1:])
			c.entries[len(c.entries)-1] = ent
			return ent.snap
		}
	}
	return nil
}

func (c *snapLRU) put(prefix int, snap *core.Study) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, ent := range c.entries {
		if ent.prefix == prefix {
			copy(c.entries[i:], c.entries[i+1:])
			c.entries[len(c.entries)-1] = snapEntry{prefix, snap}
			return
		}
	}
	if len(c.entries) >= snapCacheCap {
		copy(c.entries, c.entries[1:])
		c.entries = c.entries[:len(c.entries)-1]
		mSnapEvictions.Inc()
	}
	c.entries = append(c.entries, snapEntry{prefix, snap})
	mSnapEntries.Set(int64(len(c.entries)))
}

// len returns the current entry count.
func (c *snapLRU) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// New generates the epoch-partitioned study material (the expensive
// step: one full pass of the sharded generators) and returns an engine
// with nothing ingested yet.
func New(cfg Config) (*Engine, error) {
	epochs, err := cfg.epochs()
	if err != nil {
		return nil, err
	}
	es, err := core.GenerateEpochs(cfg.Study, epochs)
	if err != nil {
		return nil, err
	}
	return &Engine{es: es, inc: es.Incremental()}, nil
}

// NumEpochs returns the total number of epochs.
func (e *Engine) NumEpochs() int { return e.es.NumEpochs() }

// Scenario returns the canonical scenario id this engine's study was
// generated under. One engine serves exactly one scenario; sweeping
// several means one engine per scenario (the CLI's one-shot sweep mode
// does exactly that).
func (e *Engine) Scenario() string { return e.es.Config().Scenario() }

// Ingested returns how many epochs have been ingested so far.
func (e *Engine) Ingested() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.ingested
}

// Window returns the wall-clock span of epoch i.
func (e *Engine) Window(i int) (start, end time.Time) { return e.es.Window(i) }

// EpochRecords returns the honeypot records generated inside epoch i.
func (e *Engine) EpochRecords(i int) int { return e.es.EpochRecords(i) }

// EpochTelescopePackets returns the telescope packets of epoch i.
func (e *Engine) EpochTelescopePackets(i int) int { return e.es.EpochTelescopePackets(i) }

// IngestNext ingests the next epoch and materializes its prefix
// snapshot incrementally: the assembler adopts the previous snapshot
// and folds in only the new epoch's columns and collector shards
// (core.Incremental), so per-epoch ingest cost is flat in the prefix
// length. It reports the new prefix length, or ok=false when every
// epoch is already ingested. The O(epoch) snapshot assembly runs
// outside the read-write lock (the assembler only ever appends past
// published snapshot lengths), so concurrent snapshot reads and
// sweeps proceed while an epoch ingests; only the publish at the end
// takes the write lock.
func (e *Engine) IngestNext() (prefix int, ok bool, err error) {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	p := e.inc.Prefix() + 1
	if p > e.es.NumEpochs() {
		return p - 1, false, nil
	}
	snap, err := e.inc.Advance()
	if err != nil {
		return p - 1, false, err
	}
	e.mu.Lock()
	if e.tip != nil {
		// The outgoing tip is now a non-tip prefix; keep it warm.
		e.cache.put(p-1, e.tip)
	}
	e.tip = snap
	e.ingested = p
	e.mu.Unlock()
	mEpochsIngested.Inc()
	if e.st != nil {
		// The in-memory ingest stands either way (the snapshot is
		// published and a retry ingests the next epoch); the error
		// reports that durability lagged — after a crash the engine
		// would rehydrate to the last cursor that did land, which is
		// always a valid prefix.
		if perr := e.st.SetIngested(p); perr != nil {
			return p, true, fmt.Errorf("stream: epoch %d ingested but not persisted: %w", p, perr)
		}
	}
	return p, true, nil
}

// Recovered reports whether the engine's study was restored from its
// durable store rather than generated (false for engines without a
// store).
func (e *Engine) Recovered() bool { return e.recovered }

// SnapCacheStats reports the snapshot LRU's occupancy and capacity
// (the tip snapshot is held separately and not counted).
func (e *Engine) SnapCacheStats() (entries, capacity int) {
	return e.cache.len(), snapCacheCap
}

// Close releases the engine's durable store, if any. Snapshots remain
// servable; only durability updates stop.
func (e *Engine) Close() error {
	if e.st == nil {
		return nil
	}
	return e.st.Close()
}

// IngestAll ingests every remaining epoch.
func (e *Engine) IngestAll() error {
	for {
		_, ok, err := e.IngestNext()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

// Snapshot returns the immutable study of the first `prefix` epochs.
// The prefix must already be ingested. The tip snapshot is always
// retained; recent non-tip prefixes are served from a small LRU of
// chain-assembled snapshots (each keeps its own analysis caches warm),
// and a prefix that has fallen out of the LRU is rebuilt by
// core.EpochSet.Snapshot, which replays a fresh assembly chain up to
// the prefix — the same Advance steps the ingest chain took, so the
// rebuilt study renders byte-identically to the chain snapshot it
// replaces; it just starts with cold render caches, and its columns
// are sized to the prefix rather than the week.
func (e *Engine) Snapshot(prefix int) (*core.Study, error) {
	e.mu.RLock()
	ingested, tip := e.ingested, e.tip
	e.mu.RUnlock()
	if prefix < 1 || prefix > e.es.NumEpochs() {
		return nil, fmt.Errorf("stream: snapshot prefix %d out of range [1, %d]", prefix, e.es.NumEpochs())
	}
	if prefix > ingested {
		return nil, fmt.Errorf("stream: epoch prefix %d not ingested yet (%d/%d ingested)", prefix, ingested, e.es.NumEpochs())
	}
	if prefix == ingested {
		return tip, nil
	}
	if snap := e.cache.get(prefix); snap != nil {
		mSnapHits.Inc()
		return snap, nil
	}
	mSnapMisses.Inc()
	// Evicted from the LRU: replay the chain up to the prefix, outside
	// any lock (concurrent misses may both replay; both results are
	// valid and identical, and the second put just refreshes recency).
	snap, err := e.es.Snapshot(prefix)
	if err != nil {
		return nil, err
	}
	e.cache.put(prefix, snap)
	return snap, nil
}

// SweepRequest selects the grid of one sweep: which §3.3 comparison
// tables, which top-K widths, and which epoch prefixes.
type SweepRequest struct {
	// Tables must be a subset of core.SweepTables(); empty means
	// {table2, table5}.
	Tables []string `json:"tables"`
	// KMin/KMax bound the top-K width axis, inclusive; zero values
	// default to 1..10.
	KMin int `json:"k_min"`
	KMax int `json:"k_max"`
	// Prefixes lists the epoch prefixes to render; empty means every
	// ingested prefix.
	Prefixes []int `json:"prefixes"`
	// Scenarios is the scenario axis of the grid. An engine holds one
	// scenario's study, so against a single engine the axis selects
	// (empty means the engine's own scenario, and naming any other is
	// an error enumerating what this engine serves); a multi-scenario
	// sweep merges per-engine results, with every cell tagged.
	Scenarios []string `json:"scenarios,omitempty"`
}

// SweepCell is one rendered (scenario, prefix, K, table) grid point.
type SweepCell struct {
	Scenario  string `json:"scenario"`
	Prefix    int    `json:"prefix"`
	WindowEnd string `json:"window_end"` // RFC 3339 end of the prefix window
	K         int    `json:"k"`
	Table     string `json:"table"`
	Output    string `json:"output"`
}

// SweepResult is a finished sweep with its throughput.
type SweepResult struct {
	Year          int         `json:"year"`
	Seed          int64       `json:"seed"`
	Scenarios     []string    `json:"scenarios"`
	Cells         []SweepCell `json:"cells"`
	Renders       int         `json:"renders"`
	Seconds       float64     `json:"seconds"`
	RendersPerSec float64     `json:"renders_per_sec"`
}

// MergeSweepResults combines per-scenario sweep results (one engine
// per scenario) into a single grid: cells concatenate in argument
// order, scenario lists concatenate, and the throughput re-derives
// from the summed wall-clock. Results must share Year and Seed.
func MergeSweepResults(results ...*SweepResult) *SweepResult {
	merged := &SweepResult{}
	for i, r := range results {
		if i == 0 {
			merged.Year, merged.Seed = r.Year, r.Seed
		}
		merged.Scenarios = append(merged.Scenarios, r.Scenarios...)
		merged.Cells = append(merged.Cells, r.Cells...)
		merged.Seconds += r.Seconds
	}
	merged.Renders = len(merged.Cells)
	if merged.Seconds > 0 {
		merged.RendersPerSec = float64(merged.Renders) / merged.Seconds
	}
	return merged
}

// normalize validates a request against the engine state and fills
// defaults. Returned errors enumerate the valid values.
func (e *Engine) normalize(req SweepRequest) (SweepRequest, error) {
	active := e.Scenario()
	if len(req.Scenarios) == 0 {
		req.Scenarios = []string{active}
	}
	for _, id := range req.Scenarios {
		if _, ok := scanners.LookupScenario(id); !ok {
			return req, fmt.Errorf("stream: unknown scenario %q; valid: %s",
				id, strings.Join(scanners.Scenarios(), ", "))
		}
		if scanners.CanonicalScenario(id) != active {
			return req, fmt.Errorf("stream: scenario %q is not served by this engine (active scenario: %s)", id, active)
		}
	}
	if len(req.Tables) == 0 {
		req.Tables = []string{"table2", "table5"}
	}
	valid := core.SweepTables()
	for _, tbl := range req.Tables {
		ok := false
		for _, v := range valid {
			if tbl == v {
				ok = true
				break
			}
		}
		if !ok {
			return req, fmt.Errorf("stream: unknown sweep table %q; valid: %s", tbl, strings.Join(valid, ", "))
		}
	}
	if req.KMin == 0 {
		req.KMin = 1
	}
	if req.KMax == 0 {
		req.KMax = 10
	}
	if req.KMin < 1 || req.KMax < req.KMin {
		return req, fmt.Errorf("stream: invalid K range [%d, %d]; need 1 <= k_min <= k_max", req.KMin, req.KMax)
	}
	ingested := e.Ingested()
	if len(req.Prefixes) == 0 {
		for p := 1; p <= ingested; p++ {
			req.Prefixes = append(req.Prefixes, p)
		}
	} else {
		sorted := append([]int(nil), req.Prefixes...)
		sort.Ints(sorted)
		deduped := make([]int, 0, len(sorted))
		for _, p := range sorted {
			if p < 1 || p > ingested {
				return req, fmt.Errorf("stream: prefix %d not ingested; valid: 1..%d", p, ingested)
			}
			if n := len(deduped); n > 0 && deduped[n-1] == p {
				continue // duplicates would double-count renders
			}
			deduped = append(deduped, p)
		}
		req.Prefixes = deduped
	}
	if len(req.Prefixes) == 0 {
		return req, fmt.Errorf("stream: nothing ingested yet; call IngestNext first")
	}
	return req, nil
}

// Sweep renders every (prefix, K, table) grid point of the request.
// Each prefix snapshot's interned category dictionaries and ranked
// per-(view, characteristic) summaries are built once and reused by
// every K (only the family's chi-squared pass depends on K), and
// finished families are memoized per K — so repeated and overlapping
// sweeps cost renders, not recomputation. Safe for concurrent use.
func (e *Engine) Sweep(req SweepRequest) (*SweepResult, error) {
	req, err := e.normalize(req)
	if err != nil {
		return nil, err
	}
	cfg := e.es.Config()
	res := &SweepResult{Year: cfg.Year, Seed: cfg.Seed, Scenarios: []string{e.Scenario()}}
	start := time.Now()
	for _, p := range req.Prefixes {
		snap, err := e.Snapshot(p)
		if err != nil {
			return nil, err
		}
		_, end := e.es.Window(p - 1)
		for k := req.KMin; k <= req.KMax; k++ {
			for _, tbl := range req.Tables {
				out, ok := core.RenderExperimentAtK(snap, tbl, k)
				if !ok {
					return nil, fmt.Errorf("stream: unknown sweep table %q; valid: %s", tbl, strings.Join(core.SweepTables(), ", "))
				}
				res.Cells = append(res.Cells, SweepCell{
					Scenario:  e.Scenario(),
					Prefix:    p,
					WindowEnd: end.UTC().Format(time.RFC3339),
					K:         k,
					Table:     tbl,
					Output:    out,
				})
			}
		}
	}
	res.Renders = len(res.Cells)
	res.Seconds = time.Since(start).Seconds()
	if res.Seconds > 0 {
		res.RendersPerSec = float64(res.Renders) / res.Seconds
	}
	return res, nil
}
