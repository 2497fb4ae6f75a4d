package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cloudwatch/internal/cloud"
	"cloudwatch/internal/honeypot"
	"cloudwatch/internal/netsim"
	"cloudwatch/internal/obs"
	"cloudwatch/internal/scanners"
	"cloudwatch/internal/searchengine"
	"cloudwatch/internal/telescope"
	"cloudwatch/internal/wire"
)

// This file is the study's one generator: the week is partitioned
// into time epochs, the actor population runs once across the
// pipeline workers, and every probe lands in the per-epoch sink its
// timestamp belongs to — per-epoch record columns and telescope
// collectors. Incremental (incremental.go) is
// the one assembler that turns the first p epochs into a *Study. A
// batch Run is the one-epoch case of the same pair (see Run), and a
// non-tip prefix snapshot is a replay of the chain (Snapshot).
// internal/stream layers the ingestion loop, the K/prefix sweep
// engine, and the HTTP server on top.

// MaxEpochs is the largest epoch count the week may be partitioned
// into (epochs of about 2.6 hours). Every worker holds one pre-sized
// sink per epoch, so the cap bounds that fan-out.
const MaxEpochs = 64

// CheckEpochs is the one epoch-count rule, shared by the generator,
// stream.Config and the CLI's -epochs: 1 <= n <= MaxEpochs.
func CheckEpochs(n int) error {
	if n < 1 || n > MaxEpochs {
		return fmt.Errorf("%d epochs out of range [1, %d]", n, MaxEpochs)
	}
	return nil
}

// epochSink is one (worker, epoch) cell of the partitioned pipeline:
// the records and telescope aggregation of the probes one worker
// routed into one epoch. seq is the per-actor
// emission index of each record — the key the assembler uses to keep
// the §3.2 verdict anchor at an actor's earliest emission across
// epochs.
type epochSink struct {
	tel *telescope.Collector
	blk netsim.RecordBlock
	seq []int32
}

// actorRuns locates one actor's records inside its worker's epoch
// sinks: the [lo, hi) record range per epoch. An actor runs on exactly
// one worker, so all of its epoch runs live in one sink set.
type actorRuns struct {
	sinks  []*epochSink
	lo, hi []int32
}

// dstCache memoizes the per-destination routing decision — telescope
// membership and the target lookup — across the runs of probes the
// attempt and port loops emit to one address.
type dstCache struct {
	u          *netsim.Universe
	lastDst    wire.Addr
	lastDstOK  bool
	lastTel    bool
	lastTarget *netsim.Target
	lastVi     int32
}

// resolve classifies a probe's destination: telescope space, a
// monitored target (with its interned vantage id), or unmonitored
// space (tel=false, t=nil).
func (c *dstCache) resolve(dst wire.Addr) (tel bool, t *netsim.Target, vi int32) {
	if !c.lastDstOK || dst != c.lastDst {
		c.lastDst, c.lastDstOK = dst, true
		c.lastTel = c.u.InTelescope(dst)
		c.lastTarget, c.lastVi = nil, 0
		if !c.lastTel {
			c.lastTarget, c.lastVi, _ = c.u.ByIPIndexed(dst)
		}
	}
	return c.lastTel, c.lastTarget, c.lastVi
}

// streamShard is one worker's private slice of the pipeline. Each
// probe resolves its destination through the dstCache, then lands in
// the sink of the epoch its timestamp falls in. The worker's sink
// blocks share one chunked column arena and are pre-sized from the
// scenario's emission estimate, so epoch partitioning does not
// multiply column allocations and growth zeroing. Workers never share
// mutable state; everything a sink accumulates is either a set union
// or an integer-count sum, so assembly reaches the same state for any
// schedule.
type streamShard struct {
	dc     dstCache
	eb     netsim.Epochs
	window int32 // drop probes at study-second >= window (0 = keep all)
	sinks  []*epochSink
	seq    int32 // per-actor emission counter, reset at actor start
}

// dispatch routes one probe: probes past the truncation window vanish
// before any collector sees them, telescope probes aggregate into the
// collector of their epoch, and honeypot probes append to the record
// block of their epoch's sink.
//
// The probe is borrowed for the duration of the call (the generators
// reuse one probe variable per scan — see scanners.Actor.Run); dispatch
// copies every field it keeps into columns, so nothing here retains p.
func (sh *streamShard) dispatch(p *netsim.Probe) {
	sec, nsec := netsim.StudySeconds(p.T)
	if sh.window > 0 && sec >= sh.window {
		return
	}
	sink := sh.sinks[sh.eb.EpochOf(sec)]
	tel, t, vi := sh.dc.resolve(p.Dst)
	if tel {
		sink.tel.Observe(p)
		return
	}
	if t == nil {
		return // probe to unmonitored space: invisible to the study
	}
	pay, creds, ok := honeypot.Collect(t, p)
	if !ok {
		return
	}
	sink.blk.AppendAt(vi, sec, nsec, p, pay, creds)
	sink.seq = append(sink.seq, sh.seq)
	sh.seq++
}

// EpochSet is the generated, epoch-partitioned raw material of one
// study: everything needed to assemble a prefix snapshot for any
// number of ingested epochs. It is immutable once GenerateEpochs
// returns; Snapshot may be called concurrently.
type EpochSet struct {
	cfg    Config
	eb     netsim.Epochs
	u      *netsim.Universe
	censys *searchengine.Engine
	shodan *searchengine.Engine
	actors []*scanners.Actor

	sinks [][]*epochSink // per worker, per epoch
	runs  []actorRuns    // per actor, canonical order
}

// GenerateEpochs builds the deployment, crawls the search engines, and
// runs the actor population once through the sharded pipeline with
// every probe routed into the per-epoch sink of its timestamp. epochs
// must lie in [1, MaxEpochs]. Config.WindowSec must be zero —
// truncation is what prefix snapshots are for.
func GenerateEpochs(cfg Config, epochs int) (*EpochSet, error) {
	if err := checkUnwindowed(cfg); err != nil {
		return nil, err
	}
	return generate(cfg, epochs)
}

// checkUnwindowed rejects a truncation window on the streaming entry
// points: their prefixes are the truncation mechanism.
func checkUnwindowed(cfg Config) error {
	if cfg.WindowSec != 0 {
		return fmt.Errorf("core: WindowSec is incompatible with epoch streaming (prefix snapshots are the truncation mechanism)")
	}
	return nil
}

// generate is GenerateEpochs without the window check: Run generates
// a single epoch truncated at cfg.WindowSec through it.
func generate(cfg Config, epochs int) (*EpochSet, error) {
	es, err := newEpochSet(cfg, epochs)
	if err != nil {
		return nil, err
	}
	ctx, err := es.scaffold()
	if err != nil {
		return nil, err
	}
	sp := obs.StartStage(obs.StageEpochGeneration)
	es.runActors(ctx, es.cfg.Workers)
	sp.End()
	mRecordsGenerated.Add(int64(es.NumRecords()))
	return es, nil
}

// newEpochSet normalizes the configuration and builds the actor
// population: the part of an epoch set that persisted material is
// checked against (RestoreEpochSet). scaffold builds the rest. The
// scenario is validated first, so a typoed scenario id fails with the
// registered ids enumerated, not halfway into a deployment build.
func newEpochSet(cfg Config, epochs int) (*EpochSet, error) {
	if err := CheckEpochs(epochs); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	cfg = cfg.Normalized()
	actors, err := scanners.PopulationFor(cfg.population())
	if err != nil {
		return nil, fmt.Errorf("core: actor population: %w", err)
	}
	return &EpochSet{cfg: cfg, eb: netsim.NewEpochs(epochs), actors: actors}, nil
}

// scaffold builds the rest of the epoch set that is deterministic from
// the configuration alone — deployment, universe, search-engine crawls
// — and returns the context the actors generate in. generate then runs
// the actors to fill the set; RestoreEpochSet installs persisted
// material instead, which is what lets a durable-store cold start skip
// generation entirely.
func (es *EpochSet) scaffold() (*scanners.Context, error) {
	deployment, err := cloud.Build(es.cfg.Seed, es.cfg.Deploy)
	if err != nil {
		return nil, fmt.Errorf("core: building deployment: %w", err)
	}
	u, err := deployment.Universe()
	if err != nil {
		return nil, fmt.Errorf("core: building universe: %w", err)
	}
	es.u = u
	es.censys = searchengine.New("censys")
	es.shodan = searchengine.New("shodan")
	// Search engines crawl before the study window opens; attackers
	// mine the resulting index during the week (§4.3).
	crawlTime := netsim.StudyStart.Add(-24 * time.Hour)
	es.censys.Crawl(u, crawlTime)
	es.shodan.Crawl(u, crawlTime)
	return &scanners.Context{U: u, Censys: es.censys, Shodan: es.shodan, Seed: es.cfg.Seed}, nil
}

// runActors drives the population across workers. Each actor draws
// from its own seeded random streams and runs on exactly one worker,
// so its probe sequence — and therefore its record range in every
// epoch — is independent of scheduling. Every worker routes its probes
// into per-epoch sinks whose record blocks share one per-worker
// chunked column arena and are pre-sized from the scenario's emission
// estimate, so the hot path appends without geometric reallocation.
func (es *EpochSet) runActors(ctx *scanners.Context, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(es.actors) {
		workers = len(es.actors)
	}
	if workers < 1 {
		workers = 1
	}
	nEpochs := es.eb.NumEpochs()
	es.sinks = make([][]*epochSink, workers)
	es.runs = make([]actorRuns, len(es.actors))

	// Pre-size each worker's sinks from a sampled estimate of the
	// scenario's emission volume: count the emissions that resolve to a
	// monitored target (the telescope share never lands in a record
	// block). Work stealing skews per-worker shares and epochs are not
	// uniform, so leave headroom; a sink that outgrows its slice still
	// appends cheaply through the worker's shared arena.
	estDC := dstCache{u: es.u}
	est := scanners.EstimateEmission(ctx, es.actors, func(p *netsim.Probe) bool {
		tel, t, _ := estDC.resolve(p.Dst)
		return !tel && t != nil
	})
	// 50% slack: it absorbs both the diurnal skew across epochs and the
	// downward bias of the actor-strided estimate on heavy-tailed
	// populations, and idle capacity in pointer-free columns costs
	// bytes, not GC scan work.
	perSink := est/(workers*nEpochs) + est/(2*workers*nEpochs) + 256

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		arena := netsim.NewColumnArena(perSink * nEpochs)
		sinks := make([]*epochSink, nEpochs)
		for e := range sinks {
			sink := &epochSink{
				tel: telescope.New(),
				seq: make([]int32, 0, perSink),
			}
			sink.blk.UseArena(arena)
			sink.blk.Grow(perSink)
			sinks[e] = sink
		}
		es.sinks[w] = sinks
		sh := &streamShard{dc: dstCache{u: es.u}, eb: es.eb, window: es.cfg.WindowSec, sinks: sinks}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(es.actors) {
					break
				}
				run := actorRuns{sinks: sinks, lo: make([]int32, nEpochs), hi: make([]int32, nEpochs)}
				for e, sink := range sinks {
					run.lo[e] = int32(sink.blk.Len())
				}
				sh.seq = 0
				es.actors[i].Run(ctx, sh.dispatch)
				for e, sink := range sinks {
					run.hi[e] = int32(sink.blk.Len())
				}
				// es.runs writes are disjoint across workers: each actor
				// ran on exactly one worker.
				es.runs[i] = run
			}
		}()
	}
	wg.Wait()
}

// NumEpochs returns the number of epochs the week is partitioned into.
func (es *EpochSet) NumEpochs() int { return es.eb.NumEpochs() }

// NumRecords returns the total honeypot record count across every
// epoch sink — the record volume a full-prefix snapshot materializes.
func (es *EpochSet) NumRecords() int {
	n := 0
	for _, sinks := range es.sinks {
		for _, sink := range sinks {
			n += sink.blk.Len()
		}
	}
	return n
}

// Config returns the normalized study configuration the epochs were
// generated from (see Config.Normalized).
func (es *EpochSet) Config() Config { return es.cfg }

// Window returns the wall-clock span of epoch e.
func (es *EpochSet) Window(e int) (start, end time.Time) { return es.eb.Window(e) }

// Bound returns the starting study-second of epoch e (Bound(NumEpochs())
// is the end of the week) — the WindowSec a truncated Run needs to
// reproduce the first e epochs.
func (es *EpochSet) Bound(e int) int32 { return es.eb.Bound(e) }

// EpochRecords returns the number of honeypot records generated inside
// epoch e across all workers.
func (es *EpochSet) EpochRecords(e int) int {
	n := 0
	for _, sinks := range es.sinks {
		n += sinks[e].blk.Len()
	}
	return n
}

// EpochTelescopePackets returns the telescope packets of epoch e.
func (es *EpochSet) EpochTelescopePackets(e int) int {
	n := 0
	for _, sinks := range es.sinks {
		n += sinks[e].tel.Packets()
	}
	return n
}
