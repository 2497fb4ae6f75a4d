// Package core is the paper's primary contribution in code: the
// measurement study driver (deploy vantage points, generate attacker
// traffic, collect records) and the §3.3 statistical comparison
// methodology, plus one experiment driver per table and figure of the
// evaluation (experiments*.go).
package core

import (
	"sync"

	"cloudwatch/internal/cloud"
	"cloudwatch/internal/fingerprint"
	"cloudwatch/internal/greynoise"
	"cloudwatch/internal/ids"
	"cloudwatch/internal/netsim"
	"cloudwatch/internal/scanners"
	"cloudwatch/internal/searchengine"
	"cloudwatch/internal/telescope"
)

// Config assembles a full study: deployment, actor population, and
// telescope watch ports.
type Config struct {
	Seed   int64
	Year   int
	Deploy cloud.Config
	Actors scanners.Config
	// TelescopeWatch lists ports with per-destination telescope
	// tracking (Figure 1). Defaults to 22, 80, 445, 7574, 17128.
	TelescopeWatch []uint16
	// Workers is the number of pipeline workers the actor population
	// is sharded across. 0 (the default) means runtime.GOMAXPROCS(0).
	// Results are byte-identical for every worker count.
	Workers int
	// WindowSec truncates a Run to the first WindowSec study-seconds:
	// the generator drops probes timestamped at or past the boundary
	// before they reach any collector. 0 (the default) keeps the full
	// week. A truncated Run reproduces the streaming engine's
	// epoch-prefix snapshot at the same bound (see EpochSet.Bound);
	// GenerateEpochs rejects a non-zero window.
	WindowSec int32
}

// DefaultConfig returns the standard study of a given year at default
// scale.
func DefaultConfig(seed int64, year int) Config {
	return Config{
		Seed:           seed,
		Year:           year,
		Deploy:         cloud.DefaultConfig(seed, year),
		Actors:         scanners.Config{Seed: seed, Year: year, Scale: 1, Scenario: scanners.BaselineScenario},
		TelescopeWatch: []uint16{22, 80, 445, 7574, 17128},
	}
}

// Scenario returns the canonical scenario id of the study config (the
// baseline when unset).
func (c Config) Scenario() string {
	return scanners.CanonicalScenario(c.Actors.Scenario)
}

// Study is the outcome of one simulated collection week: everything
// the analysis pipeline consumes.
//
// Records are stored columnar (netsim.RecordBlock) with every derived
// per-record fact — the §3.2 malicious verdict, interned payload ids,
// study seconds — materialized by the assembler itself, so the derived
// index is complete the moment Run returns; there is no post-hoc
// record scan. The analyses read the columns directly.
type Study struct {
	Cfg    Config
	U      *netsim.Universe
	Tel    *telescope.Collector
	GN     *greynoise.Service
	Censys *searchengine.Engine
	Shodan *searchengine.Engine
	Actors []*scanners.Actor
	IDS    *ids.Engine

	// The columnar record store plus its derived columns: mal is the
	// per-record §3.2 verdict, byVantage the per-vantage record lists
	// (indexed by vantage id — Universe target position), malByPay the
	// frozen per-payload verdict memo, and payKey/payProto the
	// per-payload normalized key and LZR fingerprint (indexed by
	// netsim.PayloadID). All are read-only once assembled.
	blk       netsim.RecordBlock
	mal       []bool
	byVantage [][]int32
	malByPay  []int8 // -1 unknown, 0 benign, 1 malicious
	payKey    []string
	payProto  []fingerprint.Protocol

	// The view and telescope-series caches, built lazily on first read.
	views       viewCache
	seriesMu    sync.Mutex
	seriesCache map[uint16]*seriesEntry

	// The shared Table 4/5 geography pair list (experiments_geo.go),
	// derived once from the immutable universe.
	geoPairsOnce sync.Once
	geoPairs     []geoPair

	// The §3.3 comparison-engine caches: per-(view, characteristic)
	// ranked top-K summaries and per-(family, slice, characteristic, K)
	// finished comparison families (family.go).
	summMu    sync.Mutex
	summCache map[summKey]*summEntry
	famMu     sync.Mutex
	famCache  map[famKey]*famEntry
}

// Run executes a full study: build the deployment, crawl the search
// engines, generate the actor population's traffic, route it through
// the collectors, and feed the GreyNoise classifier. It is the
// one-epoch case of the streaming pipeline — one generator pass into a
// single epoch (truncated at cfg.WindowSec), assembled by one
// Incremental.Advance — so its record order is the canonical
// actor-major order, and the study is byte-identical for any
// cfg.Workers (GOMAXPROCS by default).
func Run(cfg Config) (*Study, error) {
	es, err := generate(cfg, 1)
	if err != nil {
		return nil, err
	}
	return es.Incremental().Advance()
}

// NumRecords returns the number of honeypot records collected.
func (s *Study) NumRecords() int { return s.blk.Len() }

// vantageIdxs returns the record indexes of one vantage point, in
// arrival order.
func (s *Study) vantageIdxs(id string) []int32 {
	vi, ok := s.U.VantageIndex(id)
	if !ok {
		return nil
	}
	return s.byVantage[vi]
}
