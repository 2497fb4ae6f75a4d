package scanners

import (
	"fmt"
	"sort"
	"strings"
)

// A Scenario is one adversarial world the simulator can generate: a
// named actor-mix builder plus the credential/payload dictionaries and
// traffic shape its actors draw from. The paper's collection week is
// registered as "baseline"; alternative populations from the related
// work (cloud-to-cloud attack platforms, low-and-slow stealth
// scanners, synchronized floods) register alongside it, so "how do the
// tables shift under a different attacker world?" is a configuration
// choice, not a code fork.
//
// Every scenario must honor the determinism contract of the pipeline:
// all randomness inside Build and inside the actors it returns comes
// from netsim.Stream streams keyed by stable names (actor names or
// scenario-scoped plan names), never from scheduling order — that is
// what keeps a scenario's output byte-identical across worker counts
// and across the batch, streaming, and store-recovered paths.
type Scenario struct {
	// ID names the scenario in configs, flags, store identity, and the
	// serving API.
	ID string
	// Description is the one-line operator-facing summary.
	Description string
	// Build constructs the scenario's actor population. The Config it
	// receives is validated (non-negative scale, registered scenario).
	Build func(cfg Config) []*Actor
}

// BaselineScenario is the id of the paper's collection week.
const BaselineScenario = "baseline"

var (
	scenarios     = map[string]*Scenario{}
	scenarioOrder []string // registration order, baseline first
)

// RegisterScenario adds a scenario to the registry. It panics on an
// empty or duplicate id — scenarios register from package init, so a
// collision is a programming error, not a runtime condition.
func RegisterScenario(s Scenario) {
	if s.ID == "" {
		panic("scanners: scenario with empty id")
	}
	if s.Build == nil {
		panic("scanners: scenario " + s.ID + " has no builder")
	}
	if _, dup := scenarios[s.ID]; dup {
		panic("scanners: scenario " + s.ID + " registered twice")
	}
	sc := s
	scenarios[s.ID] = &sc
	scenarioOrder = append(scenarioOrder, s.ID)
}

// Scenarios returns every registered scenario id: baseline first, then
// the alternative worlds sorted by id. The slice is fresh; callers may
// keep or modify it.
func Scenarios() []string {
	out := make([]string, 0, len(scenarioOrder))
	rest := make([]string, 0, len(scenarioOrder))
	for _, id := range scenarioOrder {
		if id == BaselineScenario {
			out = append(out, id)
		} else {
			rest = append(rest, id)
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}

// LookupScenario returns a registered scenario by id. An empty id
// resolves to the baseline.
func LookupScenario(id string) (*Scenario, bool) {
	s, ok := scenarios[CanonicalScenario(id)]
	return s, ok
}

// CanonicalScenario maps the zero value to the baseline id, so configs
// that predate the scenario axis keep meaning the paper's week.
func CanonicalScenario(id string) string {
	if id == "" {
		return BaselineScenario
	}
	return id
}

// ScenarioDescription returns the registered one-line description, or
// "" for unknown ids.
func ScenarioDescription(id string) string {
	if s, ok := LookupScenario(id); ok {
		return s.Description
	}
	return ""
}

// CheckScenario reports whether id names a registered scenario ("" is
// the baseline). The error enumerates the registered ids; it is the
// one "unknown scenario" rule, shared by Validate, the CLI's -scenario
// flag and the serving API.
func CheckScenario(id string) error {
	if _, ok := LookupScenario(id); !ok {
		return fmt.Errorf("unknown scenario %q; valid: %s", id, strings.Join(Scenarios(), ", "))
	}
	return nil
}

// Validate checks a population config: a year other than the three
// dataset years (0 meaning 2021) is rejected instead of rendering its
// title over the 2021 population, a negative Scale instead of silently
// falling through to 1.0 inside scale(), and an unregistered scenario
// id fails with the registered ids enumerated.
func (c Config) Validate() error {
	switch c.Year {
	case 0, 2020, 2021, 2022:
	default:
		return fmt.Errorf("scanners: unknown year %d; valid: 2020, 2021, 2022 (0 means 2021)", c.Year)
	}
	if c.Scale < 0 {
		return fmt.Errorf("scanners: negative population scale %v; use 0 for the default (1.0)", c.Scale)
	}
	if err := CheckScenario(c.Scenario); err != nil {
		return fmt.Errorf("scanners: %w", err)
	}
	return nil
}

// PopulationFor validates the config and builds the population of its
// scenario. This is the entry point the study pipeline uses; the plain
// Population remains the baseline builder for callers that predate the
// scenario axis.
func PopulationFor(cfg Config) ([]*Actor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s, _ := LookupScenario(cfg.Scenario)
	return s.Build(cfg), nil
}

func init() {
	RegisterScenario(Scenario{
		ID:          BaselineScenario,
		Description: "the paper's collection week: the full measured scanner ecosystem",
		Build:       Population,
	})
}
