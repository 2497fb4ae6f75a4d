package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cloudwatch/internal/ids"
	"cloudwatch/internal/netsim"
	"cloudwatch/internal/obs"
	"cloudwatch/internal/telescope"
	"cloudwatch/internal/wire"
)

// This file is the study's one assembler. Incremental turns an
// EpochSet into its chain of prefix snapshots: ingesting epoch p+1
// *adopts* the prefix-p snapshot, appends the new epoch's per-actor
// column segments actor-major onto its RecordBlock, union-merges only
// the new epoch's telescope shards onto a clone of the previous
// collector, extends the §3.2 verdict anchor scan only over the new
// epoch's records, and scatters only the new records into the derived
// per-vantage lists — O(epoch) per ingest, flat in the prefix
// length. A batch Run is the one-epoch chain, and EpochSet.Snapshot
// replays a fresh chain up to the requested prefix, so every *Study
// the package hands out comes out of Advance.
//
// Sharing contract: consecutive snapshots in the chain share column
// backing arrays (the new snapshot's columns are appends onto the
// previous snapshot's, in place whenever capacity allows). That is
// safe because the chain is linear — exactly one successor ever
// appends past a snapshot's length, Advance calls are serialized by
// the caller, and readers of an earlier snapshot never index past
// their own lengths. Published snapshots are never mutated.
//
// Correctness: a snapshot's rendered analyses must stay byte-identical
// to a Run truncated at the prefix bound. Record order only reaches
// rendered output through the §3.2 verdict anchor — every other
// consumer (views, sets, counters, sorted series) is order-independent
// — so the assembler maintains the *canonical* anchor per payload: the
// minimal (actor, emission-seq) credential-free occurrence across the
// assembled epochs, exactly the first occurrence in the actor-major
// record order of a one-epoch chain. A new epoch can move an anchor
// backward (an earlier actor first emits the payload only in a later
// epoch); if the moved anchor changes the payload's (transport, port)
// the verdict is re-judged. The per-payload verdict table malByPay is
// the only verdict state a snapshot holds — per-record verdicts and
// GreyNoise labels are derived from it on read (Study.malicious) — so
// a flipped verdict is one write into the new snapshot's private copy
// of the table. The previous snapshot is untouched — its window's
// canonical anchors are the pre-move ones, so its published verdicts
// stay correct.

// Incremental assembles the chain of prefix snapshots of one EpochSet
// in O(new epoch) per step. Not safe for concurrent use; the streaming
// engine serializes Advance under its ingest lock. Snapshots it
// returns are immutable and safe to read concurrently with later
// Advance calls.
type Incremental struct {
	es     *EpochSet
	upto   int    // epochs the chain assembles before it is complete
	prefix int    // epochs assembled so far
	tip    *Study // prefix-`prefix` snapshot (nil before the first Advance)

	// Totals over the first upto epochs, for one-time preallocation so
	// chain appends stay in place.
	total     int     // records
	credTotal int     // credential lists
	vantCount []int32 // per-vantage record counts

	// Canonical §3.2 anchor state, indexed by netsim.PayloadID: the
	// minimal (actor, seq) credential-free occurrence over the
	// assembled epochs and the (transport, port) its verdict was judged
	// at. anchorActor < 0 means the payload has no anchor yet.
	anchorActor []int32
	anchorSeq   []int32
	anchorTr    []wire.Transport
	anchorPort  []uint16

	payCount int
	repairs  int
}

// Incremental returns an assembler that materializes this epoch set's
// prefix snapshots one epoch at a time.
func (es *EpochSet) Incremental() *Incremental { return es.newIncremental(es.eb.NumEpochs()) }

// Snapshot returns the study of the first `prefix` epochs
// (1 ≤ prefix ≤ NumEpochs()) by replaying a fresh assembly chain up to
// it — the snapshot the streaming engine's chain published at that
// prefix, byte-identical in every rendered analysis — with columns
// sized to the first prefix epochs alone. Replaying never mutates the
// EpochSet, so snapshots may be assembled concurrently.
func (es *EpochSet) Snapshot(prefix int) (*Study, error) {
	if prefix < 1 || prefix > es.eb.NumEpochs() {
		return nil, fmt.Errorf("core: snapshot prefix %d out of range [1, %d]", prefix, es.eb.NumEpochs())
	}
	inc := es.newIncremental(prefix)
	for inc.prefix < prefix {
		if _, err := inc.Advance(); err != nil {
			return nil, err
		}
	}
	return inc.tip, nil
}

// newIncremental returns an assembler for the first upto epochs. The
// totals pass below is one scan of those epochs' generated columns;
// everything per-Advance is sized by the new epoch alone.
func (es *EpochSet) newIncremental(upto int) *Incremental {
	inc := &Incremental{
		es:        es,
		upto:      upto,
		payCount:  netsim.PayloadCount(),
		vantCount: make([]int32, len(es.u.Targets())),
	}
	for _, sinks := range es.sinks {
		for _, sink := range sinks[:upto] {
			inc.total += sink.blk.Len()
			inc.credTotal += len(sink.blk.CredLists)
			for _, vi := range sink.blk.Vantage {
				inc.vantCount[vi]++
			}
		}
	}
	inc.anchorActor = make([]int32, inc.payCount)
	for i := range inc.anchorActor {
		inc.anchorActor[i] = -1
	}
	inc.anchorSeq = make([]int32, inc.payCount)
	inc.anchorTr = make([]wire.Transport, inc.payCount)
	inc.anchorPort = make([]uint16, inc.payCount)
	return inc
}

// Prefix returns the number of epochs assembled so far.
func (inc *Incremental) Prefix() int { return inc.prefix }

// Tip returns the latest snapshot (nil before the first Advance).
func (inc *Incremental) Tip() *Study { return inc.tip }

// Repairs returns how many Advance calls flipped an already-judged
// payload's verdict because its canonical anchor moved.
func (inc *Incremental) Repairs() int { return inc.repairs }

// Advance ingests the next epoch and returns its prefix snapshot,
// byte-identical in every rendered analysis to a Run truncated at the
// new prefix's bound. It errors once every epoch is assembled.
func (inc *Incremental) Advance() (*Study, error) {
	es := inc.es
	if inc.prefix >= inc.upto {
		return nil, fmt.Errorf("core: all %d epochs already assembled", inc.upto)
	}
	sp := obs.StartStage(obs.StageIncrementalAssembly)
	defer sp.End()
	e := inc.prefix // 0-based index of the epoch being ingested
	newPrefix := inc.prefix + 1

	cfg := es.cfg
	if newPrefix < es.eb.NumEpochs() {
		cfg.WindowSec = es.eb.Bound(newPrefix)
	}
	s := &Study{
		Cfg:    cfg,
		U:      es.u,
		Censys: es.censys,
		Shodan: es.shodan,
		Actors: es.actors,
		IDS:    ids.DefaultEngine(),
	}

	// A chain whose whole material is one sink — one worker, one epoch
	// — adopts that sink's block instead of copying it: with a single
	// worker the actors ran in population order, so the block already
	// is the canonical actor-major record order.
	adopt := inc.tip == nil && inc.upto == 1 && len(es.sinks) == 1

	if prev := inc.tip; prev == nil {
		// Chain start: an empty collector and columns preallocated for
		// the whole chain, so every later append extends in place.
		s.Tel = telescope.New(figure1Ports...)
		if adopt {
			s.blk = es.sinks[0][0].blk
			s.blk.UseArena(nil)
		} else {
			s.blk.Grow(inc.total)
			s.blk.CredLists = make([][]netsim.Credential, 0, inc.credTotal)
		}
		s.byVantage = make([][]int32, len(inc.vantCount))
		for vi, n := range inc.vantCount {
			if n > 0 {
				s.byVantage[vi] = make([]int32, 0, n)
			}
		}
		s.malByPay = make([]int8, inc.payCount)
		for i := range s.malByPay {
			s.malByPay[i] = -1
		}
	} else {
		// Adopt the previous snapshot: the telescope clone takes only
		// the new epoch's merges; column headers are copied and appended
		// past the previous lengths (in place — the backing arrays were
		// preallocated at chain start, and the re-grow guard below is
		// defensive for adopted columns that arrived exactly sized).
		s.Tel = prev.Tel.Clone()
		s.blk = prev.blk
		if remaining := inc.total - s.blk.Len(); remaining > 0 {
			s.blk.Grow(remaining)
		}
		s.byVantage = append([][]int32(nil), prev.byVantage...)
		s.malByPay = append([]int8(nil), prev.malByPay...)
	}

	// Union-merge only the new epoch's telescope shards and lay its
	// credential lists into the arena (each sink's record columns
	// rebase their arena indexes by its offset).
	credBase := make(map[*epochSink]int32, len(es.sinks))
	for _, sinks := range es.sinks {
		sink := sinks[e]
		s.Tel.Merge(sink.tel)
		if !adopt {
			credBase[sink] = int32(len(s.blk.CredLists))
			s.blk.CredLists = append(s.blk.CredLists, sink.blk.CredLists...)
		}
	}

	// Append the new epoch's per-actor column segments actor-major. An
	// actor has exactly one run inside one epoch (its records landed in
	// its worker's epoch sink in emission order), so each actor is a
	// single range append.
	base := 0
	if !adopt {
		base = s.blk.Len()
		for i := range es.runs {
			run := &es.runs[i]
			if lo, hi := run.lo[e], run.hi[e]; hi > lo {
				s.blk.AppendRange(&run.sinks[e].blk, int(lo), int(hi), credBase[run.sinks[e]])
			}
		}
	}
	n := s.blk.Len()

	// Extend the §3.2 anchor scan over the new epoch only. The scan
	// visits records in ascending (actor, seq) order, so a payload's
	// first credential-free occurrence this epoch is the minimal one;
	// comparing it against the carried anchor keeps the canonical
	// (one-epoch actor-major) anchor exact across epochs.
	var newPays []netsim.PayloadID // first anchored this epoch
	var moved []netsim.PayloadID   // anchor moved to a different (transport, port)
	for i := range es.runs {
		run := &es.runs[i]
		sink := run.sinks[e]
		for r := run.lo[e]; r < run.hi[e]; r++ {
			if sink.blk.Cred[r] >= 0 {
				continue
			}
			pay := sink.blk.Pay[r]
			if pay == 0 {
				continue
			}
			if inc.anchorActor[pay] < 0 {
				inc.anchorActor[pay] = int32(i)
				inc.anchorSeq[pay] = sink.seq[r]
				inc.anchorTr[pay] = sink.blk.Transport[r]
				inc.anchorPort[pay] = sink.blk.Port[r]
				newPays = append(newPays, pay)
				continue
			}
			seq := sink.seq[r]
			if int32(i) < inc.anchorActor[pay] ||
				(int32(i) == inc.anchorActor[pay] && seq < inc.anchorSeq[pay]) {
				inc.anchorActor[pay] = int32(i)
				inc.anchorSeq[pay] = seq
				if tr, port := sink.blk.Transport[r], sink.blk.Port[r]; tr != inc.anchorTr[pay] || port != inc.anchorPort[pay] {
					inc.anchorTr[pay] = tr
					inc.anchorPort[pay] = port
					moved = append(moved, pay)
				}
			}
		}
	}

	// Judge payloads first seen this epoch, in parallel (the verdict is
	// a pure function of payload bytes and anchor transport/port).
	parallelEach(len(newPays), func(k int) {
		pay := newPays[k]
		s.malByPay[pay] = inc.judge(s, pay)
	})

	// Re-judge payloads whose canonical anchor moved onto a different
	// (transport, port); a flip rewrites only this snapshot's copy of
	// malByPay.
	flipped := false
	for _, pay := range moved {
		if v := inc.judge(s, pay); v != s.malByPay[pay] {
			s.malByPay[pay] = v
			flipped = true
		}
	}
	if flipped {
		inc.repairs++
		mVerdictRepairs.Inc()
	}

	// Derived columns: scatter only the new records into the
	// per-vantage lists and refresh the per-payload fact snapshot.
	for ri := base; ri < n; ri++ {
		vi := s.blk.Vantage[ri]
		s.byVantage[vi] = append(s.byVantage[vi], int32(ri))
	}
	s.payKey, s.payProto = payFactsSnapshot(inc.payCount)

	inc.tip, inc.prefix = s, newPrefix
	return s, nil
}

// judge returns the §3.2 verdict of a payload at its canonical anchor:
// 1 if the IDS flags it on the anchor's (transport, port), else 0.
func (inc *Incremental) judge(s *Study, pay netsim.PayloadID) int8 {
	if s.IDS.Malicious(inc.anchorTr[pay].String(), inc.anchorPort[pay], netsim.PayloadBytes(pay)) {
		return 1
	}
	return 0
}

// parallelEach runs fn(i) for every i in [0, n) across up to
// GOMAXPROCS goroutines and waits for completion. fn must be safe to
// call concurrently for distinct i. Used to fan out verdict judging
// here and view and family building on the read side.
func parallelEach(n int, fn func(int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
