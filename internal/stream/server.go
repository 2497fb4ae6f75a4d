package stream

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"cloudwatch/internal/core"
	"cloudwatch/internal/memo"
	"cloudwatch/internal/obs"
	"cloudwatch/internal/scanners"
)

// Server-level observability: render-cache behavior (hits cost a map
// probe, misses cost a table render), singleflight dedup (requests
// that waited on an in-flight render instead of duplicating it), and
// handler panics. Per-route request counts and latency live in
// obs.HTTPMiddleware, which Handler wraps around the mux.
var (
	mRenderHits = obs.Default().Counter("stream_render_cache_hits_total",
		"Snapshot render requests served from the render cache.")
	mRenderMisses = obs.Default().Counter("stream_render_cache_misses_total",
		"Snapshot render requests that rendered (cache miss).")
	mRenderEvictions = obs.Default().Counter("stream_render_cache_evictions_total",
		"Renders evicted from the LRU-bounded render cache.")
	mRenderEntries = obs.Default().Gauge("stream_render_cache_entries",
		"Renders currently cached.")
	mRenderCap = obs.Default().Gauge("stream_render_cache_cap",
		"Render cache capacity (entries).")
	mSingleflight = obs.Default().Counter("stream_singleflight_dedup_total",
		"Requests that waited on another request's in-flight render.")
	mPanics = obs.Default().Counter("http_panics_total",
		"Handler panics converted to JSON 500s by the recovery middleware.")
)

// Server exposes a streaming study over HTTP as JSON: ingestion state,
// per-epoch snapshot renders, and K/prefix sweeps. Rendered experiment
// output is cached per (epoch prefix, experiment) — snapshots are
// immutable, so a cached render never goes stale — which is what lets
// the server absorb heavy repeated read traffic.
//
//	GET  /healthz                            liveness (always 200)
//	GET  /readyz                             readiness (engine attached, ≥1 epoch)
//	GET  /v1/status                          ingestion state + epoch windows
//	GET  /v1/snapshot/{prefix}/{experiment}  one rendered table/figure
//	GET  /v1/sweep?tables=&kmin=&kmax=&prefixes=   a sweep grid
//	POST /v1/ingest                          ingest the next epoch
//
// The engine may be attached after the listener is already up
// (SetEngine): generation and store recovery take seconds to minutes,
// and binding the port first lets /healthz answer immediately while
// /readyz and the API report 503 until the study is ready.
type Server struct {
	eng atomic.Pointer[Engine]

	// sweepDefaults seeds /v1/sweep requests; absent query parameters
	// fall back to these (then to the engine's own defaults). Set
	// before serving — not synchronized with request handling.
	sweepDefaults SweepRequest

	// render produces one experiment's output; it is
	// core.RenderExperiment except in tests, which swap it to count
	// renders or inject panics.
	render func(s *core.Study, experiment string) (string, bool)

	// logger receives one structured line per request from the
	// request-logging middleware (SetLogger to replace; defaults to a
	// text handler on stderr).
	logger *slog.Logger

	// pprofOn exposes net/http/pprof under /debug/pprof/ when set
	// before Handler is called (EnablePprof; the CLI's -pprof flag).
	pprofOn bool

	// renders caches rendered output per (engine, prefix, experiment).
	renders *memo.Cache[renderKey, string]
}

// renderCacheCap bounds the render cache (entries, not bytes):
// generous next to the default 8-epoch × 12-experiment grid, small
// next to a hostile or long-sweeping client.
const renderCacheCap = 256

// renderKey names one rendered output. The engine is part of the key
// because SetEngine may replace it with another study's: the old
// engine's entries then never hit again and age out of the LRU.
type renderKey struct {
	eng        *Engine
	prefix     int
	experiment string
}

// NewServer wraps an engine. A nil engine is allowed — handlers
// return 503 until SetEngine attaches one.
func NewServer(eng *Engine) *Server {
	s := &Server{
		render:  core.RenderExperiment,
		logger:  slog.New(slog.NewTextHandler(os.Stderr, nil)),
		renders: memo.NewLRU[renderKey, string](renderCacheCap, mRenderEvictions, mRenderEntries),
	}
	mRenderCap.Set(renderCacheCap)
	if eng != nil {
		s.eng.Store(eng)
	}
	return s
}

// SetLogger replaces the request logger (nil silences request logging
// while keeping the request metrics). Call before serving.
func (s *Server) SetLogger(l *slog.Logger) { s.logger = l }

// EnablePprof mounts net/http/pprof under /debug/pprof/ on the next
// Handler call — opt-in, because profiling endpoints on a public
// listener are an operator decision (the CLI's -pprof flag).
func (s *Server) EnablePprof() { s.pprofOn = true }

// SetEngine attaches (or replaces) the engine. Safe to call while the
// server is already accepting requests: handlers observe the swap
// atomically.
func (s *Server) SetEngine(eng *Engine) { s.eng.Store(eng) }

// Engine returns the wrapped engine, or nil before SetEngine (the
// ingestion loop drives it directly).
func (s *Server) Engine() *Engine { return s.eng.Load() }

// renderCacheStats reports the render cache's occupancy and capacity.
func (s *Server) renderCacheStats() (entries, capacity int) {
	return s.renders.Len(), s.renders.Cap()
}

// SetSweepDefaults installs the sweep parameters /v1/sweep uses when a
// request omits the corresponding query parameter (the CLI's
// -sweep-* flags in serve mode). Call before serving.
func (s *Server) SetSweepDefaults(req SweepRequest) { s.sweepDefaults = req }

// Handler returns the HTTP handler serving the API, wrapped in the
// panic-recovery middleware (a panicking handler answers a JSON 500
// instead of tearing down the connection) and the request
// observability middleware (per-route request counts and latency, the
// in-flight gauge, and one structured log line per request — the log
// middleware sits outside recovery, so panics log as the 500s they
// answered). The observability endpoints are never engine-gated:
// metrics and traces must be scrapable while the study is still
// generating or recovering.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetricsProm)
	mux.HandleFunc("GET /v1/metrics", s.handleMetricsJSON)
	mux.HandleFunc("GET /v1/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/status", s.engineHandler(s.handleStatus))
	mux.HandleFunc("GET /v1/snapshot/{prefix}/{experiment}", s.engineHandler(s.handleSnapshot))
	mux.HandleFunc("GET /v1/sweep", s.engineHandler(s.handleSweep))
	mux.HandleFunc("POST /v1/ingest", s.engineHandler(s.handleIngest))
	if s.pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return obs.HTTPMiddleware(s.logger, s.withRecovery(mux))
}

// engineHandler gates a handler on engine attachment: before
// SetEngine, the API answers 503 so clients can tell "still starting"
// from "bad request".
func (s *Server) engineHandler(h func(eng *Engine, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		eng := s.eng.Load()
		if eng == nil {
			writeError(w, http.StatusServiceUnavailable, "study is still being generated or recovered; retry shortly")
			return
		}
		h(eng, w, r)
	}
}

// withRecovery converts handler panics into JSON 500 responses. If
// the handler had already written its header the late WriteHeader is
// a no-op (net/http logs it), but the connection survives either way.
func (s *Server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				mPanics.Inc()
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", v))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// handleHealthz is pure liveness: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetricsProm serves the process-wide metrics registry in the
// Prometheus text exposition format.
func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.Default().WritePrometheus(w)
}

// handleMetricsJSON serves the same registry as JSON, with
// interpolated p50/p99 on every histogram.
func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, obs.Default().Snapshot())
}

// traceResponse is the GET /v1/trace body: the all-time per-stage
// breakdown plus the ring of most recent spans.
type traceResponse struct {
	Capacity   int                `json:"capacity"`
	TotalSpans uint64             `json:"total_spans"`
	Stages     []obs.StageSummary `json:"stages"`
	Recent     []obs.SpanRecord   `json:"recent"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	t := obs.DefaultTracer()
	writeJSON(w, http.StatusOK, traceResponse{
		Capacity:   t.Capacity(),
		TotalSpans: t.Total(),
		Stages:     t.Summary(),
		Recent:     t.Recent(),
	})
}

// cacheStats is the occupancy/capacity pair /v1/status and /readyz
// report for the render cache and the snapshot LRU.
type cacheStats struct {
	Entries int `json:"entries"`
	Cap     int `json:"cap"`
}

// handleReadyz reports readiness to serve study data: an engine is
// attached (store opened, study generated or recovered) and at least
// one epoch is ingested, so every endpoint can answer something.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	eng := s.eng.Load()
	if eng == nil {
		writeError(w, http.StatusServiceUnavailable, "not ready: study is still being generated or recovered")
		return
	}
	ingested := eng.Ingested()
	if ingested < 1 {
		writeError(w, http.StatusServiceUnavailable, "not ready: no epoch ingested yet")
		return
	}
	rcEntries, rcCap := s.renderCacheStats()
	slEntries, slCap := eng.SnapCacheStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       "ready",
		"version":      obs.Version().String(),
		"scenario":     eng.Scenario(),
		"ingested":     ingested,
		"epochs":       eng.NumEpochs(),
		"recovered":    eng.Recovered(),
		"render_cache": cacheStats{rcEntries, rcCap},
		"snapshot_lru": cacheStats{slEntries, slCap},
	})
}

// statusEpoch is one epoch's row in the status response.
type statusEpoch struct {
	Epoch            int    `json:"epoch"`
	Start            string `json:"start"`
	End              string `json:"end"`
	Records          int    `json:"records"`
	TelescopePackets int    `json:"telescope_packets"`
	Ingested         bool   `json:"ingested"`
}

type statusResponse struct {
	// Version stamps the serving binary (module version + VCS
	// revision), so measurements name what they measured.
	Version  string `json:"version"`
	Year     int    `json:"year"`
	Seed     int64  `json:"seed"`
	Epochs   int    `json:"epochs"`
	Ingested int    `json:"ingested"`
	Scenario string `json:"scenario"` // the scenario this engine serves
	// ScenarioDescription is the registered one-liner of the active
	// scenario; Scenarios lists every registered id (what -scenario
	// and the scenario query parameter accept).
	ScenarioDescription string        `json:"scenario_description"`
	Scenarios           []string      `json:"scenarios"`
	Experiments         []string      `json:"experiments"`
	SweepTables         []string      `json:"sweep_tables"`
	RenderCache         cacheStats    `json:"render_cache"`
	SnapshotLRU         cacheStats    `json:"snapshot_lru"`
	EpochList           []statusEpoch `json:"epoch_list"`
}

func (s *Server) handleStatus(eng *Engine, w http.ResponseWriter, r *http.Request) {
	cfg := eng.es.Config()
	ingested := eng.Ingested()
	rcEntries, rcCap := s.renderCacheStats()
	slEntries, slCap := eng.SnapCacheStats()
	resp := statusResponse{
		Version:             obs.Version().String(),
		Year:                cfg.Year,
		Seed:                cfg.Seed,
		Epochs:              eng.NumEpochs(),
		Ingested:            ingested,
		Scenario:            eng.Scenario(),
		ScenarioDescription: scanners.ScenarioDescription(eng.Scenario()),
		Scenarios:           scanners.Scenarios(),
		Experiments:         core.ExperimentNames(),
		SweepTables:         core.SweepTables(),
		RenderCache:         cacheStats{rcEntries, rcCap},
		SnapshotLRU:         cacheStats{slEntries, slCap},
	}
	for e := 0; e < eng.NumEpochs(); e++ {
		start, end := eng.Window(e)
		resp.EpochList = append(resp.EpochList, statusEpoch{
			Epoch:            e,
			Start:            start.UTC().Format(time.RFC3339),
			End:              end.UTC().Format(time.RFC3339),
			Records:          eng.EpochRecords(e),
			TelescopePackets: eng.EpochTelescopePackets(e),
			Ingested:         e < ingested,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

type snapshotResponse struct {
	Scenario   string `json:"scenario"`
	Prefix     int    `json:"prefix"`
	Experiment string `json:"experiment"`
	WindowEnd  string `json:"window_end"`
	Records    int    `json:"records"`
	Cached     bool   `json:"cached"`
	Output     string `json:"output"`
}

func (s *Server) handleSnapshot(eng *Engine, w http.ResponseWriter, r *http.Request) {
	prefix, err := strconv.Atoi(r.PathValue("prefix"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad prefix %q: must be an epoch count in 1..%d", r.PathValue("prefix"), eng.NumEpochs()))
		return
	}
	// Validate the experiment before touching the engine: a request
	// that is wrong in both dimensions gets the unknown-experiment
	// answer (with the valid names), not whichever snapshot error
	// happens to fire first.
	experiment := r.PathValue("experiment")
	if !core.KnownExperiment(experiment) {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown experiment %q; valid: %s",
			experiment, strings.Join(core.ExperimentNames(), ", ")))
		return
	}
	// An optional scenario assertion: clients pinned to one scenario
	// pass ?scenario= and get a 404 instead of another world's table if
	// they reach the wrong server.
	if id := r.URL.Query().Get("scenario"); id != "" {
		if err := eng.serves(id); err != nil {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
	}
	snap, err := eng.Snapshot(prefix)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}

	// Singleflight per (engine, prefix, experiment): the first request
	// renders and concurrent requests for the same key wait for that one
	// render instead of duplicating it. Only the request that actually
	// rendered reports cached=false. The cache is LRU-bounded; an
	// evicted key simply re-renders on its next request, and so does a
	// key whose render panicked (its waiters answer 500).
	out, how, err := s.renders.Get(renderKey{eng, prefix, experiment}, func() (string, error) {
		mRenderMisses.Inc()
		out, _ := s.render(snap, experiment) // name validated above
		return out, nil
	})
	cached := how != memo.Built
	if cached {
		mRenderHits.Inc()
	}
	if how == memo.Joined {
		mSingleflight.Inc()
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "render failed; retry")
		return
	}

	_, end := eng.Window(prefix - 1)
	writeJSON(w, http.StatusOK, snapshotResponse{
		Scenario:   eng.Scenario(),
		Prefix:     prefix,
		Experiment: experiment,
		WindowEnd:  end.UTC().Format(time.RFC3339),
		Records:    snap.NumRecords(),
		Cached:     cached,
		Output:     out,
	})
}

// handleSweep answers one sweep grid. The query is read by
// ParseSweepQuery over the server's defaults and validated against the
// ingested prefixes before anything renders; scenarios this engine does
// not serve fail inside Sweep.
func (s *Server) handleSweep(eng *Engine, w http.ResponseWriter, r *http.Request) {
	req, err := ParseSweepQuery(r.URL.Query(), s.sweepDefaults, eng.Ingested())
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	res, err := eng.Sweep(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, res)
}

type ingestResponse struct {
	Prefix   int  `json:"prefix"`
	Done     bool `json:"done"` // true when every epoch was already ingested
	Records  int  `json:"records"`
	Ingested int  `json:"ingested"`
	Epochs   int  `json:"epochs"`
}

func (s *Server) handleIngest(eng *Engine, w http.ResponseWriter, r *http.Request) {
	prefix, ok, err := eng.IngestNext()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp := ingestResponse{
		Prefix:   prefix,
		Done:     !ok,
		Ingested: eng.Ingested(),
		Epochs:   eng.NumEpochs(),
	}
	if ok {
		resp.Records = eng.EpochRecords(prefix - 1)
	}
	writeJSON(w, http.StatusOK, resp)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}
