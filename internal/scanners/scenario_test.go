package scanners

import (
	"strings"
	"testing"
)

// TestScenarioRegistry pins the registry surface: baseline first, the
// three packs present, lookups canonicalize "" to baseline, and every
// registered scenario has a description.
func TestScenarioRegistry(t *testing.T) {
	ids := Scenarios()
	if len(ids) < 4 || ids[0] != BaselineScenario {
		t.Fatalf("Scenarios() = %v, want baseline first and >= 4 entries", ids)
	}
	for _, want := range []string{"baseline", "attack-platform", "stealth", "burst-ddos"} {
		s, ok := LookupScenario(want)
		if !ok {
			t.Fatalf("scenario %q not registered (have %v)", want, ids)
		}
		if s.Description == "" {
			t.Errorf("scenario %q has no description", want)
		}
	}
	if s, ok := LookupScenario(""); !ok || s.ID != BaselineScenario {
		t.Errorf(`LookupScenario("") = %v, %v; want the baseline`, s, ok)
	}
	if got := CanonicalScenario(""); got != BaselineScenario {
		t.Errorf(`CanonicalScenario("") = %q`, got)
	}
	if _, ok := LookupScenario("bogus"); ok {
		t.Error("unregistered id resolved")
	}
	if d := ScenarioDescription("bogus"); d != "" {
		t.Errorf("ScenarioDescription(bogus) = %q", d)
	}
}

// TestRegisterScenarioPanics pins the init-time failure modes:
// duplicate ids, empty ids, and missing builders are programming
// errors, so they panic instead of returning.
func TestRegisterScenarioPanics(t *testing.T) {
	mustPanic := func(name string, s Scenario) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: RegisterScenario did not panic", name)
			}
		}()
		RegisterScenario(s)
	}
	mustPanic("duplicate", Scenario{ID: BaselineScenario, Build: Population})
	mustPanic("empty id", Scenario{Build: Population})
	mustPanic("nil builder", Scenario{ID: "no-builder"})
}

// TestConfigValidate pins the Scale edge behavior fix: a negative
// scale is an error at validation time instead of silently meaning
// 1.0, and an unknown scenario enumerates the registered ids. Only the
// three dataset years (and 0, meaning 2021) validate: any other year
// used to render its own title over the 2021 population.
func TestConfigValidate(t *testing.T) {
	good := []Config{
		{Seed: 1, Year: 2021},                    // zero scale = default
		{Seed: 1, Year: 2021, Scale: 0.001},      // tiny but positive
		{Seed: 1, Scale: 1, Scenario: "stealth"}, // registered pack
		{Seed: 1, Scale: 2.5, Scenario: ""},      // empty = baseline
		{Seed: 1, Scale: 1, Scenario: BaselineScenario},
		{Seed: 1, Year: 2020},
		{Seed: 1, Year: 2022},
	}
	for _, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", cfg, err)
		}
	}
	if err := (Config{Seed: 1, Scale: -0.5}).Validate(); err == nil {
		t.Error("negative scale accepted")
	} else if !strings.Contains(err.Error(), "-0.5") {
		t.Errorf("negative-scale error should name the value, got %v", err)
	}
	for _, year := range []int{2019, 2023, 1, -2021} {
		err := (Config{Seed: 1, Year: year}).Validate()
		if err == nil || !strings.Contains(err.Error(), "2020, 2021, 2022") {
			t.Errorf("year %d: error %v should list the dataset years", year, err)
		}
	}
	err := (Config{Seed: 1, Scale: 1, Scenario: "bogus"}).Validate()
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
	for _, id := range Scenarios() {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("unknown-scenario error should enumerate %q, got %v", id, err)
		}
	}
}

// TestPopulationForRejectsBadConfigs checks PopulationFor refuses what
// Validate refuses, and builds the scenario's population otherwise.
func TestPopulationForRejectsBadConfigs(t *testing.T) {
	if _, err := PopulationFor(Config{Seed: 1, Scale: -1}); err == nil {
		t.Error("negative scale built a population")
	}
	if _, err := PopulationFor(Config{Seed: 1, Scenario: "bogus"}); err == nil {
		t.Error("unknown scenario built a population")
	}
	base, err := PopulationFor(Config{Seed: 42, Year: 2021, Scale: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	want := Population(Config{Seed: 42, Year: 2021, Scale: 0.4})
	if len(base) != len(want) {
		t.Fatalf("baseline PopulationFor built %d actors, Population builds %d", len(base), len(want))
	}
	for i := range base {
		if base[i].Name != want[i].Name {
			t.Fatalf("actor %d: %q vs %q", i, base[i].Name, want[i].Name)
		}
	}
}

// TestScenarioPopulationsDistinct checks each pack actually changes
// the world: actor name sets differ from the baseline, every scenario
// builds deterministically, and all actors use registered ASes.
func TestScenarioPopulationsDistinct(t *testing.T) {
	cfg := Config{Seed: 42, Year: 2021, Scale: 0.3}
	baseNames := map[string]bool{}
	for _, a := range Population(cfg) {
		baseNames[a.Name] = true
	}
	for _, id := range Scenarios() {
		if id == BaselineScenario {
			continue
		}
		c := cfg
		c.Scenario = id
		actors, err := PopulationFor(c)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(actors) < 10 {
			t.Errorf("%s: only %d actors", id, len(actors))
		}
		fresh := 0
		names := map[string]bool{}
		for _, a := range actors {
			if names[a.Name] {
				t.Fatalf("%s: duplicate actor name %q", id, a.Name)
			}
			names[a.Name] = true
			if !baseNames[a.Name] {
				fresh++
			}
			if len(a.IPs) == 0 {
				t.Errorf("%s: actor %q has no sources", id, a.Name)
			}
		}
		if fresh == 0 {
			t.Errorf("%s: population identical to baseline", id)
		}
		// Deterministic construction: same config, same actors.
		again, err := PopulationFor(c)
		if err != nil || len(again) != len(actors) {
			t.Fatalf("%s: rebuild gave %d actors, err %v", id, len(again), err)
		}
		for i := range actors {
			if actors[i].Name != again[i].Name || len(actors[i].IPs) != len(again[i].IPs) {
				t.Fatalf("%s: rebuild differs at actor %d", id, i)
			}
		}
	}
}

// TestScaleRounding pins the scale() edge cases now that negative
// values are rejected upstream: rounding is half-up and the result
// never drops below one source.
func TestScaleRounding(t *testing.T) {
	cases := []struct {
		scale float64
		n     int
		want  int
	}{
		{0, 10, 10},      // zero means 1.0
		{1, 10, 10},      //
		{0.5, 10, 5},     //
		{0.25, 10, 3},    // 2.5 rounds half-up
		{0.04, 10, 1},    // 0.4 rounds to 0, floors at 1
		{0.0001, 100, 1}, // tiny populations keep one source
		{0.0001, 1, 1},   //
		{2, 3, 6},        // upscaling
		{1.5, 3, 5},      // 4.5 rounds half-up
	}
	for _, c := range cases {
		cfg := Config{Scale: c.scale}
		if got := cfg.scale(c.n); got != c.want {
			t.Errorf("scale(%v).scale(%d) = %d, want %d", c.scale, c.n, got, c.want)
		}
	}
}
