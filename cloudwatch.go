// Package cloudwatch reproduces "Cloud Watching: Understanding Attacks
// Against Cloud-Hosted Services" (IMC 2023): a measurement platform of
// honeypots (GreyNoise-style interactive collectors, Honeytrap-style
// first-payload collectors) and a network telescope, an attacker-
// population simulator standing in for live Internet traffic, the
// statistically rigorous comparison methodology of the paper's §3.3,
// and one experiment driver per table and figure of the evaluation.
//
// Quickstart:
//
//	study, err := cloudwatch.Run(cloudwatch.DefaultStudy(42, 2021))
//	if err != nil { ... }
//	fmt.Println(study.Table2().Render()) // neighborhood discrimination
//	fmt.Println(study.Table8().Render()) // telescope avoidance
//
// The heavy lifting lives in internal packages (stats, wire, pcap,
// ids, fingerprint, netsim, cloud, scanners, searchengine, honeypot,
// telescope, core); this package is the stable surface a
// downstream user imports.
package cloudwatch

import (
	"cloudwatch/internal/cloud"
	"cloudwatch/internal/core"
	"cloudwatch/internal/honeypot"
	"cloudwatch/internal/scanners"
	"cloudwatch/internal/store"
	"cloudwatch/internal/stream"
)

// StudyConfig assembles a full study: seed, year, actor population
// scale and scenario, vantage deployment, and execution parameters.
type StudyConfig = core.Config

// Study is a completed collection week plus everything the analysis
// needs; its methods (Table1 … Table11, Figure1) regenerate the
// paper's tables and figures.
type Study = core.Study

// DeployConfig sizes the vantage-point deployment (Table 1 layout).
type DeployConfig = cloud.Config

// Scenario describes one registered adversarial world: id, one-line
// description, and the actor-mix builder.
type Scenario = scanners.Scenario

// BaselineScenario is the scenario id of the paper's collection week.
const BaselineScenario = scanners.BaselineScenario

// Scenarios lists every registered scenario id, baseline first.
func Scenarios() []string { return scanners.Scenarios() }

// ScenarioDescription returns the registered one-line description of a
// scenario id ("" for unknown ids).
func ScenarioDescription(id string) string { return scanners.ScenarioDescription(id) }

// RegisterScenario adds a custom adversarial world to the registry so
// studies, streams, and stores can be generated under it. Call from
// init or before any study runs; it panics on duplicate or empty ids.
func RegisterScenario(s Scenario) { scanners.RegisterScenario(s) }

// ScenarioStudy returns the default study of a year generated under a
// named scenario.
func ScenarioStudy(seed int64, year int, scenario string) StudyConfig {
	cfg := core.DefaultConfig(seed, year)
	cfg.Scenario = scenario
	return cfg
}

// DefaultStudy returns the standard study of a year (2020, 2021, or
// 2022 — the Appendix C variants) at default scale.
func DefaultStudy(seed int64, year int) StudyConfig {
	return core.DefaultConfig(seed, year)
}

// QuickStudy returns a scaled-down study that completes in well under
// a second: a smaller telescope and a thinner actor population, with
// every behavioral bias intact.
func QuickStudy(seed int64, year int) StudyConfig {
	cfg := core.DefaultConfig(seed, year)
	cfg.Deploy.TelescopeSlash24s = 32
	cfg.Deploy.HoneytrapPerCloud = 16
	cfg.Deploy.HurricaneIPs = 16
	cfg.Scale = 0.35
	return cfg
}

// FigureStudy returns a telescope-focused study for Figure 1: two full
// /16s of darknet so the per-/16 and per-/24 address-structure
// patterns are visible.
func FigureStudy(seed int64, year int) StudyConfig {
	cfg := core.DefaultConfig(seed, year)
	cfg.Deploy.TelescopeSlash24s = 512
	return cfg
}

// Run executes a study: build the deployment, crawl the search
// engines, generate the population's traffic, and collect it. The
// actor population is sharded across cfg.Workers pipeline workers
// (GOMAXPROCS by default); results are byte-identical for every
// worker count.
func Run(cfg StudyConfig) (*Study, error) {
	return core.Run(cfg)
}

// StreamConfig sizes a streaming study: the batch study configuration
// plus the number of time epochs the week is partitioned into.
type StreamConfig = stream.Config

// StreamEngine ingests a study epoch by epoch and hands out immutable
// prefix snapshots (full *Study values) plus K/prefix sweeps of the
// §3.3 comparison tables.
type StreamEngine = stream.Engine

// StreamServer serves a streaming study's snapshots and sweeps as
// JSON over HTTP with per-(epoch, experiment) render caching.
type StreamServer = stream.Server

// SweepRequest selects a sweep grid: tables × top-K widths × epoch
// prefixes.
type SweepRequest = stream.SweepRequest

// SweepResult is a finished sweep grid with its render throughput.
type SweepResult = stream.SweepResult

// NewStream generates the epoch-partitioned study material and
// returns an engine with nothing ingested yet. Every epoch-prefix
// snapshot it assembles is byte-identical to a batch Run truncated to
// the same window.
func NewStream(cfg StreamConfig) (*StreamEngine, error) {
	return stream.New(cfg)
}

// NewStreamServer wraps a streaming engine in the HTTP snapshot/sweep
// API.
func NewStreamServer(eng *StreamEngine) *StreamServer {
	return stream.NewServer(eng)
}

// OpenStream builds a streaming engine backed by a durable store in
// directory dir. A store holding a complete study generated under the
// same configuration is recovered — generation is skipped and the
// engine rehydrates to the last acknowledged epoch prefix; an empty or
// torn store is (re)generated deterministically and rewritten. Every
// snapshot a recovered engine serves is byte-identical to one from an
// engine that never restarted.
func OpenStream(cfg StreamConfig, dir string) (*StreamEngine, error) {
	st, err := store.Open(store.DirFS(), dir)
	if err != nil {
		return nil, err
	}
	return stream.Open(cfg, st)
}

// HoneypotConfig configures a real honeypot daemon (see Honeypot
// modes: first-payload capture, interactive Telnet, SSH banner).
type HoneypotConfig = honeypot.Config

// Honeypot daemon modes.
const (
	ModeFirstPayload = honeypot.ModeFirstPayload
	ModeTelnet       = honeypot.ModeTelnet
	ModeSSH          = honeypot.ModeSSH
)

// NewHoneypot returns a real TCP honeypot daemon; call Serve with a
// net.Listener to start collecting.
func NewHoneypot(cfg HoneypotConfig) *honeypot.Daemon {
	return honeypot.NewDaemon(cfg)
}
