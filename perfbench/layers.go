package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"cloudwatch/internal/core"
	"cloudwatch/internal/store"
	"cloudwatch/internal/stream"
)

// Requests the in-process server replay times after its warm-up.
const (
	replaySettled = 2000 // serve-settled's own seeded sequence
	replayTip     = 36   // other workloads: three passes over the tip
)

// layerProbe measures every layer of the program in process on this
// run's seed, with a harness span around each public call: generation,
// per-experiment rendering, incremental assembly, the store, the
// engine, and the HTTP server. Workloads that bypass a layer still
// report its figures from here, so every traced run yields the same
// metric set. serveEpochs, when non-zero, makes the server replay follow
// the serve workload's seeded request sequence over that many epochs.
func layerProbe(e *env, m *measurement, serveEpochs int) error {
	// The probe runs after the measured phase, on every core, so that
	// gen.run_ms shows the parallel pipeline beside gen.run_serial_ms.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	L := m.layer
	cfg := studyConfig(e.seed)
	root := e.tr.root("probe", -1, true)
	defer root.end()
	timed := func(name string, f func() error) (float64, error) {
		sp := root.child(name)
		t := time.Now()
		err := f()
		d := msSince(t)
		sp.end()
		return d, err
	}

	// Generation.
	var study *core.Study
	var err error
	if L["gen.run_ms"], err = timed("core.Run", func() (err error) { study, err = core.Run(cfg); return }); err != nil {
		return err
	}
	serial := cfg
	serial.Workers = 1
	if L["gen.run_serial_ms"], err = timed("core.Run.serial", func() error { _, err := core.Run(serial); return err }); err != nil {
		return err
	}
	L["gen.records"] = float64(study.NumRecords())
	L["gen.telescope_packets"] = float64(study.Tel.Packets())
	L["gen.records_per_s"] = float64(study.NumRecords()) / (L["gen.run_ms"] / 1e3)

	// Analysis: each experiment cold on a fresh study, then again warm.
	outBytes := 0
	for _, pass := range []string{"cold", "warm"} {
		for _, name := range core.ExperimentNames() {
			var out string
			d, _ := timed("core.RenderExperiment."+name, func() error { out, _ = core.RenderExperiment(study, name); return nil })
			L["render."+pass+"_ms."+name] = d
			if pass == "cold" {
				outBytes += len(out)
			}
		}
	}
	L["render.output_bytes"] = float64(outBytes)

	// Epoch generation and incremental assembly over the 56-epoch week.
	var es *core.EpochSet
	if L["gen.generate_epochs_ms"], err = timed("core.GenerateEpochs", func() (err error) { es, err = core.GenerateEpochs(cfg, ingestEpochs); return }); err != nil {
		return err
	}
	inc := es.Incremental()
	var adv []float64
	for p := 1; p <= es.NumEpochs(); p++ {
		d, err := timed("core.Incremental.Advance", func() error { _, err := inc.Advance(); return err })
		if err != nil {
			return err
		}
		adv = append(adv, d)
	}
	L["assembly.advance_first_ms"] = adv[0]
	L["assembly.advance_ms.p50"], _ = percentile(adv, 0.5)
	L["assembly.advance_ms.p90"], _ = percentile(adv, 0.9)
	L["assembly.verdict_repairs"] = float64(inc.Repairs())
	for _, p := range []int{14, 28, 56} {
		if L[fmt.Sprintf("assembly.rebuild_ms.p%d", p)], err = timed("core.EpochSet.Snapshot", func() error { _, err := es.Snapshot(p); return err }); err != nil {
			return err
		}
	}

	// Store: write the segment, advance the cursor per epoch, reopen,
	// and restore the epoch set from what was read back — on disk, in
	// the run's work directory, whose medium the notes name.
	m.notes = append(m.notes, "store probe medium: "+fsMedium(e.work))
	before := localCounters()
	mat := es.Material()
	st, err := store.Open(store.DirFS(), filepath.Join(e.work, "probe-store"))
	if err != nil {
		return err
	}
	if L["store.write_study_ms"], err = timed("store.WriteStudy", func() error { return st.WriteStudy([]byte(`"perfbench layer probe"`), mat) }); err != nil {
		return err
	}
	L["store.segment_bytes"] = delta(before, localCounters(), "store_bytes_written_total")
	var setIng []float64
	for n := 1; n <= ingestEpochs; n++ {
		d, err := timed("store.SetIngested", func() error { return st.SetIngested(n) })
		if err != nil {
			return err
		}
		setIng = append(setIng, d)
	}
	L["store.set_ingested_ms.p50"], _ = percentile(setIng, 0.5)
	L["store.set_ingested_ms.p90"], _ = percentile(setIng, 0.9)
	after := localCounters()
	L["store.fsyncs"] = delta(before, after, "store_fsync_total")
	L["store.bytes_written"] = delta(before, after, "store_bytes_written_total")
	var reopened *store.Store
	if L["store.open_ms"], err = timed("store.Open", func() (err error) {
		reopened, err = store.Open(store.DirFS(), filepath.Join(e.work, "probe-store"))
		return
	}); err != nil {
		return err
	}
	_, rmat := reopened.Recovered()
	if rmat == nil {
		return fmt.Errorf("probe store recovered nothing: %s", reopened.Note())
	}
	if L["store.restore_ms"], err = timed("core.RestoreEpochSet", func() error { _, err := core.RestoreEpochSet(cfg, rmat); return err }); err != nil {
		return err
	}

	// Engine: a durable engine over a fresh store, ingesting the week,
	// then snapshot reads that hit the LRU and that miss it.
	est, err := store.Open(store.DirFS(), filepath.Join(e.work, "probe-engine"))
	if err != nil {
		return err
	}
	eng, err := stream.Open(stream.Config{Study: cfg, Epochs: ingestEpochs}, est)
	if err != nil {
		return err
	}
	var ingest []float64
	for p := 1; p <= ingestEpochs; p++ {
		d, err := timed("stream.Engine.IngestNext", func() error { _, _, err := eng.IngestNext(); return err })
		if err != nil {
			return err
		}
		ingest = append(ingest, d)
	}
	L["engine.ingest_next_ms.p50"], _ = percentile(ingest, 0.5)
	L["engine.ingest_next_ms.p90"], _ = percentile(ingest, 0.9)
	var hits, misses []float64
	for p := ingestEpochs - 11; p < ingestEpochs; p++ { // retained by the 16-entry LRU
		d, err := timed("stream.Engine.Snapshot.hit", func() error { _, err := eng.Snapshot(p); return err })
		if err != nil {
			return err
		}
		hits = append(hits, d)
	}
	for p := 10; p < 15; p++ { // long evicted
		d, err := timed("stream.Engine.Snapshot.miss", func() error { _, err := eng.Snapshot(p); return err })
		if err != nil {
			return err
		}
		misses = append(misses, d)
	}
	L["engine.snapshot_hit_ms"] = median(hits)
	L["engine.snapshot_miss_ms"] = median(misses)

	// Server: replay requests through the in-process handler.
	return serverProbe(e, m, root, serveEpochs, eng)
}

// recoveredEngine opens an engine the way the serve workload's server
// runs: recovered from a warm store whose cursor is at the last epoch.
// The first open generates and persists the study and ingests every
// epoch; the second recovers it.
func recoveredEngine(e *env, epochs int) (*stream.Engine, error) {
	cfg := stream.Config{Study: studyConfig(e.seed), Epochs: epochs}
	open := func() (*stream.Engine, *store.Store, error) {
		st, err := store.Open(store.DirFS(), filepath.Join(e.work, "probe-serve"))
		if err != nil {
			return nil, nil, err
		}
		eng, err := stream.Open(cfg, st)
		return eng, st, err
	}
	eng, _, err := open()
	if err != nil {
		return nil, err
	}
	if err := eng.IngestAll(); err != nil {
		return nil, err
	}
	eng, st, err := open()
	if err != nil {
		return nil, err
	}
	if !eng.Recovered() || eng.Ingested() != eng.NumEpochs() {
		return nil, fmt.Errorf("replay engine not recovered warm (%s)", st.Note())
	}
	return eng, nil
}

// replayClass names what a replayed request cost the server, from the
// registry counters it moved.
func replayClass(renderHit, rebuilt bool) string {
	s := "render-cold"
	if renderHit {
		s = "render-hit"
	}
	if rebuilt {
		s += "+rebuild"
	}
	return s
}

// serverProbe replays requests one at a time through stream.Server's
// handler, served on a loopback listener so the client-observed time
// can be set against the handler's own: the handler time is ServeHTTP
// alone (no TCP), the outside time is the rest. Registry deltas around
// each request attribute it to a render-cache hit or a cold render,
// and to a snapshot rebuild or not.
func serverProbe(e *env, m *measurement, root *span, serveEpochs int, eng *stream.Engine) error {
	L := m.layer
	var warm, timedKeys []key
	if serveEpochs == 0 {
		for _, name := range core.ExperimentNames() {
			warm = append(warm, key{ingestEpochs, name})
		}
		for len(timedKeys) < replayTip {
			timedKeys = append(timedKeys, warm...)
		}
	} else {
		var err error
		if eng, err = recoveredEngine(e, serveEpochs); err != nil {
			return err
		}
		warm = snapshotKeys(serveEpochs)
		for i := 0; i < replaySettled; i++ {
			timedKeys = append(timedKeys, warm[scheduleKey(e.seed, uint64(i), len(warm))])
		}
	}

	srv := stream.NewServer(eng)
	srv.SetLogger(nil)
	h := srv.Handler()
	// The server finishes a response only after the wrapper returns, so
	// by the time the client has the body, handlerNS holds its time.
	var handlerNS atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := time.Now()
		h.ServeHTTP(w, r)
		handlerNS.Store(time.Since(t).Nanoseconds())
	}))
	defer ts.Close()
	client := ts.Client()

	// A replayed request that errors or differs from the key's first
	// response counts as a failed op, as in the workload itself.
	var d digests
	replay := func(k key, sp *span) (clientMS float64, size int, err error) {
		c := sp.child("http.GET " + k.experiment)
		t := time.Now()
		body, status, err := get(client, ts.URL+k.path())
		clientMS = msSince(t)
		c.end()
		if err != nil {
			return 0, 0, err
		}
		m.attempted++
		if status != http.StatusOK || !d.check(k, body) {
			m.failed++
			m.notes = append(m.notes, "replay check failed: "+k.path()+" differs from its first response")
		}
		return clientMS, len(body), nil
	}
	for _, k := range warm {
		if _, _, err := replay(k, root); err != nil {
			return err
		}
	}

	before := localCounters()
	var handler, outside, sizes []float64
	classes := map[string][]float64{}
	for i, k := range timedKeys {
		sp := e.tr.root("replay.request", int64(i), true)
		c0 := localCounters()
		clientMS, size, err := replay(k, sp)
		c1 := localCounters()
		sp.end()
		if err != nil {
			return err
		}
		handlerMS := float64(handlerNS.Load()) / 1e6
		cls := replayClass(delta(c0, c1, "stream_render_cache_hits_total") > 0,
			delta(c0, c1, "stream_snapshot_lru_misses_total") > 0)
		classes[cls] = append(classes[cls], handlerMS)
		handler = append(handler, handlerMS)
		outside = append(outside, clientMS-handlerMS)
		sizes = append(sizes, float64(size))
	}
	after := localCounters()
	L["server.handler_ms.p50"] = median(handler)
	L["server.handler_ms.p99"], _ = percentile(handler, 0.99)
	L["server.outside_ms"] = median(outside)
	L["server.response_bytes"] = mean(sizes)
	// The middleware's own latency histogram, as the server exports it.
	// Its fixed buckets put every cached request below 0.1 ms, so only
	// the exact sum/count mean is reported from it.
	route := seriesKey("http_request_duration_seconds", map[string]string{"route": "GET /v1/snapshot/{prefix}/{experiment}"})
	L["server.route_mean_ms"] = 1e3 * ratio(delta(before, after, route+".sum"), delta(before, after, route+".count"))

	attr := map[string]any{}
	for c, ms := range classes {
		attr[c] = map[string]float64{"requests": float64(len(ms)), "handler_median_ms": median(ms)}
		m.notes = append(m.notes, fmt.Sprintf("replay %-20s %5d requests, handler median %.4f ms", c, len(ms), median(ms)))
	}
	m.attribution = attr
	return nil
}
