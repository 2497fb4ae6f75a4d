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
	"cloudwatch/internal/ids"
	"cloudwatch/internal/memo"
	"cloudwatch/internal/netsim"
	"cloudwatch/internal/scanners"
	"cloudwatch/internal/searchengine"
	"cloudwatch/internal/stats"
	"cloudwatch/internal/telescope"
)

// Config assembles a full study. It is the one place a study's seed,
// year, scenario and scale are set.
type Config struct {
	Seed  int64
	Year  int     // 2020, 2021 or 2022 (Appendix C variants); 0 means 2021
	Scale float64 // actor population multiplier; 0 means 1.0
	// Scenario is the registered adversarial world the actors come
	// from; "" means the baseline, the paper's collection week.
	Scenario string
	Deploy   cloud.Config
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
		Seed:     seed,
		Year:     year,
		Scale:    1,
		Scenario: scanners.BaselineScenario,
		Deploy:   cloud.DefaultConfig(),
	}
}

// Normalized resolves the year and scenario defaults. An EpochSet holds
// the normalized config, so studies, snapshots and store identities
// read one year and scenario whichever spelling built them.
func (c Config) Normalized() Config {
	if c.Year == 0 {
		c.Year = 2021
	}
	c.Scenario = scanners.CanonicalScenario(c.Scenario)
	return c
}

// Validate checks the study parameters the actor population is built
// from — year, scale and scenario — without building anything, so a
// caller can refuse a bad config before paying for generation.
func (c Config) Validate() error { return c.population().Validate() }

// population returns the scanners' parameters of the study.
func (c Config) population() scanners.Config {
	return scanners.Config{Seed: c.Seed, Year: c.Year, Scale: c.Scale, Scenario: c.Scenario}
}

// figure1Ports are the telescope ports Figure 1 plots, in panel order:
// the only ports whose collectors keep per-destination logs.
var figure1Ports = []uint16{22, 445, 80, 17128}

// Study is the outcome of one simulated collection week: everything
// the analysis pipeline consumes.
//
// Records are stored columnar (netsim.RecordBlock) with interned
// payload ids and study seconds materialized by the assembler itself,
// and the §3.2 verdict held once per payload (malByPay), so the
// derived index is complete the moment Run returns; there is no
// post-hoc record scan. The analyses read the columns directly.
type Study struct {
	Cfg    Config
	U      *netsim.Universe
	Tel    *telescope.Collector
	Censys *searchengine.Engine
	Shodan *searchengine.Engine
	Actors []*scanners.Actor
	IDS    *ids.Engine

	// The columnar record store plus its derived columns: byVantage
	// the per-vantage record lists (indexed by vantage id — Universe
	// target position), malByPay the per-payload §3.2 verdict table
	// every per-record verdict derives from (see malicious), and
	// payKey/payProto the per-payload normalized key and LZR
	// fingerprint (indexed by netsim.PayloadID). All are read-only once
	// assembled.
	blk       netsim.RecordBlock
	byVantage [][]int32
	malByPay  []int8 // -1 unknown, 0 benign, 1 malicious
	payKey    []string
	payProto  []fingerprint.Protocol

	// The analysis memos, built lazily on first read (viewcache.go):
	// (vantage|region, slice) views, shared by every experiment on the
	// same axis — Table 2/4/5/6/7, the ablations, the leak and
	// neighborhood drivers — and the Figure 1 telescope per-address
	// series per watched port. Memoized values are shared read-only.
	views  memo.Cache[viewCacheKey, *View]
	series memo.Cache[uint16, []int]

	// The shared Table 4/5 geography pair list (experiments_geo.go),
	// derived once from the immutable universe.
	geoPairsOnce sync.Once
	geoPairs     []geoPair

	// The §3.3 comparison-engine caches: per-(view, characteristic)
	// ranked top-K summaries and per-(family, slice, characteristic, K)
	// finished comparison families (family.go).
	summaries memo.Cache[summKey, stats.TableSummary]
	families  memo.Cache[famKey, *familyResult]
}

// Run executes a full study: build the deployment, crawl the search
// engines, generate the actor population's traffic, and route it
// through the collectors. It is the one-epoch case of the streaming
// pipeline — one generator pass into a single epoch (truncated at
// cfg.WindowSec), assembled by one Incremental.Advance — so its record
// order is the canonical actor-major order, and the study is
// byte-identical for any cfg.Workers (GOMAXPROCS by default).
func Run(cfg Config) (*Study, error) {
	es, err := generate(cfg, 1)
	if err != nil {
		return nil, err
	}
	return es.Incremental().Advance()
}

// NumRecords returns the number of honeypot records collected.
func (s *Study) NumRecords() int { return s.blk.Len() }

// malicious is record ri's §3.2 verdict: credential records are
// malicious by definition, payloadless records benign (malByPay[0] is
// never judged), and everything else takes its payload's verdict.
func (s *Study) malicious(ri int) bool {
	return s.blk.Cred[ri] >= 0 || s.malByPay[s.blk.Pay[ri]] == 1
}

// vantageIdxs returns the record indexes of one vantage point, in
// arrival order.
func (s *Study) vantageIdxs(id string) []int32 {
	vi, ok := s.U.VantageIndex(id)
	if !ok {
		return nil
	}
	return s.byVantage[vi]
}
