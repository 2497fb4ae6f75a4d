package main

import (
	"fmt"
	"runtime"
	"time"

	"cloudwatch/internal/core"
	"cloudwatch/internal/store"
	"cloudwatch/internal/stream"
)

// ingestEpochs partitions the week into 3-hour epochs.
const ingestEpochs = 56

// ingestWeeks is how many distinct weeks (studies) one run cycles
// through. A week's costliest epochs set the tail, so replaying a single
// week would make the tail a property of that one week.
const ingestWeeks = 2

// weekSeed is the study seed of week k of a run: disjoint across bench
// seeds, so different seeds measure different weeks.
func weekSeed(seed int64, k int) int64 { return seed*ingestWeeks + int64(k) }

// runIngest is the write path: closed loop, one caller, each op one
// Engine.IngestNext (incremental assembly published plus the manifest
// cursor durably written). The weeks are replayed in rounds: reset a
// week's cursor, reopen its engine over the same store, ingest every
// epoch, move on to the next week.
//
// The stores sit in RAM, on store.MemFS, which models the durability
// contract the store relies on (a sync promotes the written image to
// the durable one; rename is atomic). Every file the benchmark writes
// stays inside the repository checkout, and on a shared disk there the
// fsync in every op made the p90 swing by 40% between runs of the same
// code. The traced run's store probe still times the disk-backed
// store.DirFS.
func runIngest(e *env) (*measurement, error) {
	m := &measurement{layer: map[string]float64{}}

	// Set-up: generate each week's epoch study and persist it
	// (WriteStudy) into a store of its own.
	type week struct {
		cfg stream.Config
		st  *store.Store
	}
	weeks := make([]week, ingestWeeks)
	for k := range weeks {
		cfg := stream.Config{Study: studyConfig(weekSeed(e.seed, k)), Epochs: ingestEpochs}
		t := time.Now()
		sp := e.tr.root("setup.generate_and_write", -1, true)
		st, err := store.Open(store.NewMemFS(), fmt.Sprintf("week%d", k))
		if err != nil {
			return nil, err
		}
		o := sp.child("stream.Open")
		_, err = stream.Open(cfg, st)
		o.end()
		sp.end()
		m.attempted++
		if err != nil {
			return nil, err
		}
		m.setups = append(m.setups, time.Since(t).Seconds())
		weeks[k] = week{cfg, st}
		// The set-up engine is garbage now; collect it so the peak RSS
		// measures the program, not the harness's discarded set-ups.
		runtime.GC()
	}
	m.notes = append(m.notes, "store medium: RAM (store.MemFS)")

	var (
		eng    *stream.Engine
		cur    week
		rounds int
	)
	reopen := func() error {
		cur = weeks[rounds%ingestWeeks]
		rounds++
		sp := e.tr.root("ingest.round_reopen", -1, true)
		defer sp.end()
		c := sp.child("store.SetIngested")
		err := cur.st.SetIngested(0)
		c.end()
		if err != nil {
			return err
		}
		c = sp.child("stream.Open")
		eng, err = stream.Open(cur.cfg, cur.st)
		c.end()
		return err
	}

	// run ingests until the deadline; only a timed run records latencies.
	run := func(deadline time.Time, timed bool) error {
		for op := int64(0); time.Now().Before(deadline); op++ {
			if eng == nil || eng.Ingested() == eng.NumEpochs() {
				if err := reopen(); err != nil {
					return err
				}
			}
			want := eng.Ingested() + 1
			traced := timed && op%2 == 1
			sp := e.tr.root("engine.IngestNext", op, traced)
			t := time.Now()
			p, ok, err := eng.IngestNext()
			d := msSince(t)
			sp.end()
			m.attempted++
			if err != nil || !ok || p != want {
				m.failed++
				m.notes = append(m.notes, fmt.Sprintf("op %d: IngestNext = %d, %v, %v; want prefix %d", op, p, ok, err, want))
				continue
			}
			if timed {
				m.record(d, traced, e.trace)
			}
		}
		return nil
	}
	if err := run(time.Now().Add(settleTime), false); err != nil {
		return nil, err
	}

	before := localCounters()
	cpu0, err := cpuSeconds(0)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := run(start.Add(time.Duration(e.seconds*float64(time.Second))), true); err != nil {
		return nil, err
	}
	m.elapsed = time.Since(start).Seconds()
	cpu1, err := cpuSeconds(0)
	if err != nil {
		return nil, err
	}
	m.cpu = cpu1 - cpu0
	if m.rssMB, err = peakRSSMB(0); err != nil {
		return nil, err
	}
	after := localCounters()
	m.notes = append(m.notes, fmt.Sprintf("%d rounds over %d %d-epoch weeks", rounds, ingestWeeks, ingestEpochs))

	// Output check: finish the last round, then every render of its tip
	// must equal a batch core.Run of the same week.
	sp := e.tr.root("check.tip_vs_batch", -1, true)
	defer sp.end()
	if err := eng.IngestAll(); err != nil {
		return nil, err
	}
	tip, err := eng.Snapshot(eng.NumEpochs())
	if err != nil {
		return nil, err
	}
	batch, err := core.Run(cur.cfg.Study)
	if err != nil {
		return nil, err
	}
	bad := 0
	for _, name := range core.ExperimentNames() {
		got, _ := core.RenderExperiment(tip, name)
		want, _ := core.RenderExperiment(batch, name)
		m.attempted++
		if got != want || got == "" {
			m.failed++
			bad++
		}
	}
	m.notes = append(m.notes, fmt.Sprintf("check: %d of %d tip renders differ from batch core.Run", bad, len(core.ExperimentNames())))

	if e.trace {
		cacheRatios(m.layer, before, after)
		if err := layerProbe(e, m, 0); err != nil {
			return nil, err
		}
	}
	return m, nil
}
