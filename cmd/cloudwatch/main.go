// Command cloudwatch regenerates the tables and figures of "Cloud
// Watching: Understanding Attacks Against Cloud-Hosted Services"
// (IMC 2023) from a simulated collection week.
//
// Usage:
//
//	cloudwatch -experiment all            # every table and figure
//	cloudwatch -experiment table8         # one experiment
//	cloudwatch -year 2020 -experiment table2   # Appendix C variant
//	cloudwatch -full                      # paper-scale deployment (slower)
//	cloudwatch -experiment sweep -epochs 8 -sweep-kmin 1 -sweep-kmax 10
//	                                      # streaming K/epoch sweep, JSON on stdout
//	cloudwatch -scenario stealth -experiment table2
//	                                      # an alternative adversarial world
//	cloudwatch -scenario baseline,stealth -experiment sweep
//	                                      # scenario axis: one engine per scenario
//	cloudwatch -serve :8080               # long-running snapshot/sweep server
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cloudwatch/internal/core"
	"cloudwatch/internal/obs"
	"cloudwatch/internal/scanners"
	"cloudwatch/internal/store"
	"cloudwatch/internal/stream"
)

// figureMinSlash24s is the smallest telescope that renders Figure 1
// faithfully: two full /16s of darknet.
const figureMinSlash24s = 512

// rendersFigure1 reports whether an experiment selection may render
// Figure 1 — the figure experiments themselves, the "all" sweep (which
// ends with Figure 1), and serve mode (whose clients can request any
// experiment). ("appendix" and "sweep" render tables only.)
func rendersFigure1(experiment string, serve bool) bool {
	return serve || experiment == "all" || strings.HasPrefix(experiment, "figure")
}

// studyConfig assembles the study configuration for one CLI
// invocation and describes the deployment it chose. The Figure 1
// telescope bump applies whenever Figure 1 may be rendered — under
// "-experiment all" and "-serve" just as under "-experiment figure1" —
// so the same seed produces the same Figure 1 regardless of how it was
// requested.
func studyConfig(seed int64, year int, scale float64, full bool, workers int, experiment, scenario string, serve bool) (core.Config, string) {
	cfg := core.DefaultConfig(seed, year)
	cfg.Scale = scale
	cfg.Scenario = scenario
	cfg.Workers = workers
	deployment := "default deployment"
	if full {
		cfg.Deploy = cfg.Deploy.AtPaperScale()
		deployment = "paper-scale deployment"
	}
	if rendersFigure1(experiment, serve) && cfg.Deploy.TelescopeSlash24s < figureMinSlash24s {
		cfg.Deploy.TelescopeSlash24s = figureMinSlash24s
		deployment = "Figure 1 deployment (telescope bumped to two full /16s)"
	}
	return cfg, deployment
}

// sweepFlags collects the streaming-mode knobs. Validation is
// separate from flag parsing so the tests can exercise it directly.
type sweepFlags struct {
	epochs   int
	tables   string
	kMin     int
	kMax     int
	prefixes string
}

// sweepRequest validates the sweep flags into an engine request
// through the /v1/sweep query parser, so the CLI and the API refuse the
// same grids. "-sweep-prefixes all" is an absent prefixes parameter.
func (f sweepFlags) sweepRequest() (stream.SweepRequest, error) {
	if err := core.CheckEpochs(f.epochs); err != nil {
		return stream.SweepRequest{}, fmt.Errorf("-epochs: %w", err)
	}
	q := url.Values{"tables": {f.tables}, "kmin": {strconv.Itoa(f.kMin)}, "kmax": {strconv.Itoa(f.kMax)}}
	if f.prefixes != "all" {
		q.Set("prefixes", f.prefixes)
	}
	req, err := stream.ParseSweepQuery(q, stream.SweepRequest{}, f.epochs)
	if err != nil {
		return req, fmt.Errorf("-sweep-* flags: %w", err)
	}
	return req, nil
}

// validExperiments names every accepted -experiment value.
func validExperiments() string {
	return strings.Join(core.ExperimentNames(), ", ") + ", appendix, all, sweep"
}

// parseScenarios validates a -scenario value: a single registered id,
// or (in one-shot sweep mode only) a comma-separated list of them.
// Errors enumerate the registered ids, matching the -experiment
// pattern.
func parseScenarios(value string, sweep bool) ([]string, error) {
	var ids []string
	for _, part := range stream.SplitList(value) {
		if err := scanners.CheckScenario(part); err != nil {
			return nil, err
		}
		if !slices.Contains(ids, part) {
			ids = append(ids, part)
		}
	}
	if len(ids) == 0 {
		ids = []string{scanners.BaselineScenario}
	}
	if len(ids) > 1 && !sweep {
		return nil, fmt.Errorf("-scenario lists %d scenarios; only -experiment sweep sweeps several (one engine per scenario) — other modes take exactly one", len(ids))
	}
	return ids, nil
}

// knownExperiment reports whether an -experiment value is accepted:
// a registered experiment or one of the three mode names.
func knownExperiment(name string) bool {
	return core.KnownExperiment(name) || name == "all" || name == "appendix" || name == "sweep"
}

func main() {
	var (
		seed       = flag.Int64("seed", 42, "simulation seed (all results are deterministic per seed)")
		year       = flag.Int("year", 2021, "dataset year: 2020, 2021, or 2022 (Appendix C variants)")
		experiment = flag.String("experiment", "all", "experiment to run: table1..table11, figure1, appendix, all, sweep")
		scale      = flag.Float64("scale", 1.0, "actor population scale")
		full       = flag.Bool("full", false, "use the paper's Table 1 deployment scale: full Orion telescope (1856 /24s) and full HE /24 honeypot fleet (256 IPs) instead of the 128/64 defaults (slower)")
		workers    = flag.Int("workers", 0, "pipeline workers sharding the actor population (0 = GOMAXPROCS); results are identical for every count")
		scenario   = flag.String("scenario", scanners.BaselineScenario, "adversarial scenario to generate: "+strings.Join(scanners.Scenarios(), ", ")+" (sweep mode accepts a comma-separated list)")
		serve      = flag.String("serve", "", "serve streaming snapshots and sweeps over HTTP on this address (e.g. :8080); ingests epochs in the background")
		storeDir   = flag.String("store", "", "durable store directory for sweep/serve modes: the generated epoch study is persisted there and recovered on restart, skipping regeneration")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile covering generation, ingest, and rendering to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile (post-GC live retention, taken as the run finishes) to this file")
		trace      = flag.Bool("trace", false, "print a per-stage timing breakdown (generation, assembly, repair, persist, render) to stderr after batch and sweep runs")
		pprofOn    = flag.Bool("pprof", false, "serve mode: expose net/http/pprof under /debug/pprof/ on the serving mux")
		version    = flag.Bool("version", false, "print the build version and exit")
		sf         sweepFlags
	)
	flag.IntVar(&sf.epochs, "epochs", stream.DefaultEpochs, fmt.Sprintf("time epochs the study week is partitioned into, 1..%d (sweep/serve modes)", core.MaxEpochs))
	flag.StringVar(&sf.tables, "sweep-tables", "table2,table5", "comma-separated §3.3 tables to sweep: "+strings.Join(core.SweepTables(), ", "))
	flag.IntVar(&sf.kMin, "sweep-kmin", 1, "smallest top-K width of the sweep")
	flag.IntVar(&sf.kMax, "sweep-kmax", 10, fmt.Sprintf("largest top-K width of the sweep, at most %d", stream.MaxSweepK))
	flag.StringVar(&sf.prefixes, "sweep-prefixes", "all", "epoch prefixes to sweep: \"all\" (every ingested epoch) or comma-separated counts")
	flag.Parse()

	if *version {
		fmt.Println("cloudwatch " + obs.Version().String())
		return
	}

	if !knownExperiment(*experiment) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; valid: %s\n", *experiment, validExperiments())
		os.Exit(2)
	}

	serveMode := *serve != ""
	scenarios, err := parseScenarios(*scenario, !serveMode && *experiment == "sweep")
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}
	if serveMode && *experiment == "sweep" {
		// The two streaming modes choose different deployments (serve
		// may render Figure 1, sweep never does) and different outputs;
		// combining them would silently drop one.
		fmt.Fprintln(os.Stderr, "error: -serve and -experiment sweep are mutually exclusive; use -serve for the HTTP server (sweeps via GET /v1/sweep) or -experiment sweep for a one-shot JSON sweep")
		os.Exit(2)
	}
	cfg, deployment := studyConfig(*seed, *year, *scale, *full, *workers, *experiment, scenarios[0], serveMode)
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	defer stopProfiles()

	// The chosen deployment prints in every mode — batch, sweep, and
	// serve — so operators can always tell which telescope they got.
	fmt.Fprintf(os.Stderr, "running %d study (seed %d, scenario %s, %s, telescope %d /24s)...\n",
		*year, *seed, strings.Join(scenarios, "+"), deployment, cfg.Deploy.TelescopeSlash24s)

	if serveMode || *experiment == "sweep" {
		runStreaming(cfg, sf, *serve, *storeDir, *experiment == "sweep", scenarios, *trace, *pprofOn)
		return
	}

	study, err := core.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "collected %d honeypot records, %d telescope packets\n\n",
		study.NumRecords(), study.Tel.Packets())

	switch *experiment {
	case "all":
		for _, name := range core.ExperimentNames() {
			out, _ := core.RenderExperiment(study, name)
			fmt.Println(out)
		}
	case "appendix":
		// Tables 12-17 are the 2020/2022 variants of tables 2, 5, 7,
		// 10, 4, 11; run this binary with -year 2020 or -year 2022.
		for _, name := range core.AppendixExperiments() {
			out, _ := core.RenderExperiment(study, name)
			fmt.Println(out)
		}
	default:
		out, _ := core.RenderExperiment(study, *experiment) // validated by knownExperiment
		fmt.Println(out)
	}

	if *trace {
		obs.DefaultTracer().WriteSummary(os.Stderr)
	}
}

// runStreaming drives the sweep and serve modes: build the
// epoch-partitioned study — recovered from the durable store when one
// is configured and holds this study, generated (and persisted)
// otherwise — then either ingest-and-sweep once (JSON on stdout) or
// serve snapshots and sweeps over HTTP while ingestion advances in
// the background.
//
// Serve mode binds the listener before the study exists, so /healthz
// answers during the minutes a paper-scale generation can take while
// /readyz and the API report 503; and it shuts down gracefully on
// SIGINT/SIGTERM — in-flight renders drain, the store closes, and the
// process exits 0.
func runStreaming(cfg core.Config, sf sweepFlags, addr, storeDir string, sweep bool, scenarios []string, trace, pprofOn bool) {
	req, err := sf.sweepRequest()
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}
	// buildEngine constructs one scenario's engine. A multi-scenario
	// sweep with a durable store gives each scenario its own
	// subdirectory — store identity includes the scenario, so sharing
	// one directory could never work anyway.
	buildEngine := func(scenario string) (*stream.Engine, error) {
		scfg := stream.Config{Study: cfg, Epochs: sf.epochs}
		scfg.Study.Scenario = scenario
		dir := storeDir
		if dir == "" {
			return stream.New(scfg)
		}
		if len(scenarios) > 1 {
			dir = filepath.Join(dir, scenario)
		}
		st, err := store.Open(store.DirFS(), dir)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "store %s: %s\n", dir, st.Note())
		eng, err := stream.Open(scfg, st)
		if err != nil {
			return nil, err
		}
		if eng.Recovered() {
			fmt.Fprintf(os.Stderr, "recovered %d epochs from store (%d already ingested); generation skipped\n",
				eng.NumEpochs(), eng.Ingested())
		}
		return eng, nil
	}

	if sweep {
		// One engine per scenario, swept in turn; the merged grid keeps
		// every cell tagged with its scenario.
		results := make([]*stream.SweepResult, 0, len(scenarios))
		for _, sc := range scenarios {
			fmt.Fprintf(os.Stderr, "scenario %s: generating...\n", sc)
			eng, err := buildEngine(sc)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "%d epochs ready; ingesting...\n", eng.NumEpochs())
			if err := ingestAll(eng); err != nil {
				eng.Close()
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
			res, err := eng.Sweep(req)
			if err != nil {
				eng.Close()
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(2)
			}
			eng.Close()
			results = append(results, res)
		}
		res := stream.MergeSweepResults(results...)
		fmt.Fprintf(os.Stderr, "swept %d renders across %d scenario(s) in %.3fs (%.1f renders/sec)\n",
			res.Renders, len(res.Scenarios), res.Seconds, res.RendersPerSec)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		if trace {
			obs.DefaultTracer().WriteSummary(os.Stderr)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Listen before generating: liveness and "503, still generating"
	// beat a connection refused for every orchestrator out there.
	srv := stream.NewServer(nil)
	srv.SetSweepDefaults(req)
	if pprofOn {
		srv.EnablePprof()
		fmt.Fprintln(os.Stderr, "pprof enabled at /debug/pprof/")
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		// Sweeps render whole grids; give writes room without letting a
		// dead client pin a connection forever.
		WriteTimeout: 5 * time.Minute,
		IdleTimeout:  2 * time.Minute,
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "serving snapshots and sweeps on %s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			serveErr <- err
		}
	}()
	buildErr := make(chan error, 1)
	go func() {
		eng, err := buildEngine(scenarios[0])
		if err != nil {
			buildErr <- err
			return
		}
		srv.SetEngine(eng)
		fmt.Fprintf(os.Stderr, "%d epochs ready; ingesting...\n", eng.NumEpochs())
		if err := ingestAll(eng); err != nil {
			// Serving continues on the prefixes that did ingest; the
			// durability error is also surfaced per-request by
			// POST /v1/ingest.
			fmt.Fprintln(os.Stderr, "ingest error:", err)
		}
	}()

	select {
	case <-ctx.Done():
		stop() // restore default signal handling: a second ^C kills immediately
		fmt.Fprintln(os.Stderr, "signal received; draining in-flight requests...")
		shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			fmt.Fprintln(os.Stderr, "shutdown:", err)
		}
		if eng := srv.Engine(); eng != nil {
			if err := eng.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "store close:", err)
			}
		}
		fmt.Fprintln(os.Stderr, "bye")
	case err := <-buildErr:
		fmt.Fprintln(os.Stderr, "error:", err)
		httpSrv.Close()
		os.Exit(1)
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

// startProfiles turns on the optional pprof instrumentation: a CPU
// profile spanning everything from generation through the last render,
// and a heap profile snapshotted (after a GC, so it shows live
// retention rather than garbage) when stop is called. With both paths
// empty the returned stop is a no-op. Profiles are written on the
// success path only — error exits lose them, like `go test
// -cpuprofile` does.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
		}
	}, nil
}

// ingestAll ingests every epoch, logging each window to stderr.
func ingestAll(eng *stream.Engine) error {
	for {
		p, ok, err := eng.IngestNext()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		start, end := eng.Window(p - 1)
		snap, err := eng.Snapshot(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "  epoch %d/%d [%s .. %s): +%d records (prefix total %d)\n",
			p, eng.NumEpochs(), start.Format("01-02 15:04"), end.Format("01-02 15:04"),
			eng.EpochRecords(p-1), snap.NumRecords())
	}
}
