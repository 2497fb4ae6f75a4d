// Command perfbench is the cloudwatch benchmark: one workload per run,
// measured for a fixed time, with output checks, printing one JSON
// result line last.
//
//	perfbench -server BIN -work DIR --workload NAME --seed N --seconds S --trace 0|1
//
// perfbench/run.sh builds the server binary and this harness from
// source and supplies -server and -work. With --trace 0 the result
// holds the end-to-end metrics; with --trace 1 it holds the per-layer
// metrics, and the spans go to DIR/trace-<workload>-seed<N>.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"cloudwatch/internal/core"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are the metrics a user of the system sees, reported
// under the same names on every workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"latency_typical_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"throughput_ops_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MiB"},
}

// layerMetrics are the per-layer metrics of a traced run, grouped by
// the program's layers: generation, analysis (render), incremental
// assembly, store, engine, and server, plus the tracing overhead.
var layerMetrics = func() []metricDef {
	m := []metricDef{
		{"gen.run_ms", "ms"},
		{"gen.run_serial_ms", "ms"},
		{"gen.generate_epochs_ms", "ms"},
		{"gen.records", "count"},
		{"gen.telescope_packets", "count"},
		{"gen.records_per_s", "1/s"},
	}
	for _, e := range core.ExperimentNames() {
		m = append(m, metricDef{"render.cold_ms." + e, "ms"})
	}
	for _, e := range core.ExperimentNames() {
		m = append(m, metricDef{"render.warm_ms." + e, "ms"})
	}
	return append(m,
		metricDef{"render.output_bytes", "bytes"},
		metricDef{"assembly.advance_ms.p50", "ms"},
		metricDef{"assembly.advance_ms.p90", "ms"},
		metricDef{"assembly.advance_first_ms", "ms"},
		metricDef{"assembly.verdict_repairs", "count"},
		metricDef{"assembly.rebuild_ms.p14", "ms"},
		metricDef{"assembly.rebuild_ms.p28", "ms"},
		metricDef{"assembly.rebuild_ms.p56", "ms"},
		metricDef{"store.write_study_ms", "ms"},
		metricDef{"store.segment_bytes", "bytes"},
		metricDef{"store.set_ingested_ms.p50", "ms"},
		metricDef{"store.set_ingested_ms.p90", "ms"},
		metricDef{"store.open_ms", "ms"},
		metricDef{"store.restore_ms", "ms"},
		metricDef{"store.fsyncs", "count"},
		metricDef{"store.bytes_written", "bytes"},
		metricDef{"engine.ingest_next_ms.p50", "ms"},
		metricDef{"engine.ingest_next_ms.p90", "ms"},
		metricDef{"engine.snapshot_hit_ms", "ms"},
		metricDef{"engine.snapshot_miss_ms", "ms"},
		metricDef{"engine.lru_hit_ratio", "ratio"},
		metricDef{"engine.lru_evictions", "count"},
		metricDef{"server.handler_ms.p50", "ms"},
		metricDef{"server.handler_ms.p99", "ms"},
		metricDef{"server.response_bytes", "bytes"},
		metricDef{"server.route_mean_ms", "ms"},
		metricDef{"server.outside_ms", "ms"},
		metricDef{"server.render_cache_hit_ratio", "ratio"},
		metricDef{"server.render_cache_evictions", "count"},
		metricDef{"server.singleflight_dedup", "count"},
		metricDef{"trace.overhead_ratio", "ratio"},
		metricDef{"trace.spans", "count"},
		metricDef{"trace.tail_samples", "count"},
	)
}()

// env is what a workload runs with.
type env struct {
	seed    int64
	seconds float64
	trace   bool
	work    string  // scratch directory for stores and trace files
	server  string  // path of the cloudwatch binary under test
	tr      *tracer // nil unless trace
}

// measurement is what a workload run yields.
type measurement struct {
	setups    []float64 // seconds of each set-up repetition
	lat       []float64 // milliseconds of each timed op
	elapsed   float64   // seconds of the measured phase
	cpu       float64   // CPU seconds of the process under test, measured phase only
	rssMB     float64   // peak RSS of the process under test
	attempted int       // every op issued: set-up, settle, timed and check ops
	failed    int       // ops that errored or produced wrong output
	notes     []string  // human-readable lines for the summary
	// layer holds the traced run's per-layer metrics; tracedLat and
	// untracedLat are the ops of the traced and untraced halves.
	layer                  map[string]float64
	tracedLat, untracedLat []float64
	attribution            map[string]any
}

// workload is one benchmark input set.
type workload struct {
	name  string
	tailQ float64 // the fixed tail percentile reported as latency_tail_ms
	run   func(*env) (*measurement, error)
}

var workloads = []workload{
	{"reproduce", 0.65, runReproduce},
	{"ingest-durable", 0.9, runIngest},
	{"serve-settled", 0.9, runSettled},
}

// setupRepeats is how many times each workload performs its set-up;
// setup_s is their median.
const setupRepeats = 3

// settleTime is untimed load run between set-up and the measured phase
// of the ingest and serve workloads, so that the garbage collector's
// pacing after set-up's allocation burst has settled before timing
// starts. It is a fixed time, not work, so it is not part of setup_s.
const settleTime = 3 * time.Second

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	t0 := time.Now()
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		server  = flag.String("server", "", "cloudwatch binary the serve workloads start")
		work    = flag.String("work", "", "scratch directory for stores and trace files")
	)
	flag.Parse()
	code := run(t0, *name, *seed, *seconds, *trace == 1, *server, *work)
	stopAllServers()
	os.Exit(code)
}

func run(t0 time.Time, name string, seed int64, seconds float64, trace bool, server, work string) int {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil || work == "" || server == "" || seconds <= 0 {
		fmt.Fprintf(os.Stderr, "usage: perfbench -server BIN -work DIR --workload NAME --seed N --seconds S --trace 0|1 (workloads: %s)\n", workloadNames())
		return 2
	}
	work, err := filepath.Abs(filepath.Join(work, fmt.Sprintf("%s-seed%d-trace%v", name, seed, trace)))
	if err == nil {
		err = os.RemoveAll(work)
	}
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	// The process under test runs on one P, and so on one core at a
	// time: on a machine of a few shared cores, a workload that needs
	// every core at once slows down whenever anything else runs, and
	// its figures then measure the neighbours. The serve workloads'
	// server gets the same setting (startServer).
	runtime.GOMAXPROCS(1)
	e := &env{seed: seed, seconds: seconds, trace: trace, work: work, server: server}
	if trace {
		e.tr = newTracer(t0)
	}
	m, err := wl.run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	if len(m.lat) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no op completed in %gs\n", name, seconds)
		return 1
	}
	res := result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metricValue{}}
	typical := median(append([]float64(nil), m.lat...))
	tail, beyond := percentile(append([]float64(nil), m.lat...), wl.tailQ)
	m.notes = append(m.notes, fmt.Sprintf("latency: median %.4f ms, p%g %.4f ms (%d of %d samples beyond)",
		typical, wl.tailQ*100, tail, beyond, len(m.lat)))
	if beyond < 10 {
		m.notes = append(m.notes, fmt.Sprintf("warning: only %d samples beyond the tail percentile", beyond))
	}
	if trace {
		m.layer["trace.tail_samples"] = float64(beyond)
		m.layer["trace.spans"] = float64(e.tr.count())
		m.layer["trace.overhead_ratio"] = ratio(median(m.tracedLat), median(m.untracedLat))
		m.notes = append(m.notes, fmt.Sprintf("tracing overhead: traced median / untraced median = %.4f (%d traced, %d untraced ops)",
			m.layer["trace.overhead_ratio"], len(m.tracedLat), len(m.untracedLat)))
		path := filepath.Join(filepath.Dir(work), fmt.Sprintf("trace-%s-seed%d.json", name, seed))
		if err := e.tr.write(path, name, seed, map[string]any{"attribution": m.attribution}); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			return 1
		}
		m.notes = append(m.notes, "spans written to "+path)
		for _, d := range layerMetrics {
			v, ok := m.layer[d.name]
			if !ok {
				fmt.Fprintf(os.Stderr, "perfbench: %s: per-layer metric %s not measured\n", name, d.name)
				return 1
			}
			res.Metrics[d.name] = metricValue{v, d.unit}
		}
	} else {
		vals := map[string]float64{
			"setup_s":            median(m.setups),
			"latency_typical_ms": typical,
			"latency_tail_ms":    tail,
			"throughput_ops_s":   float64(len(m.lat)) / m.elapsed,
			"cpu_ms_per_op":      m.cpu * 1e3 / float64(len(m.lat)),
			"peak_rss_mb":        m.rssMB,
		}
		for _, d := range endToEndMetrics {
			res.Metrics[d.name] = metricValue{vals[d.name], d.unit}
		}
	}
	printSummary(name, seed, m, res)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// printSummary prints every metric by name with its unit, plus the
// workload's notes, ahead of the JSON result line.
func printSummary(name string, seed int64, m *measurement, res result) {
	fmt.Printf("workload %s, seed %d: %d ops attempted, %d failed\n", name, seed, res.Attempted, res.Failed)
	for _, n := range m.notes {
		fmt.Println("  " + n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}
