package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// benchmarkFile mirrors the keys of BENCHMARK.json this package must
// agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricNamesAreWellFormedAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, set := range [][]metricDef{endToEndMetrics, layerMetrics} {
		for _, d := range set {
			if !metricName.MatchString(d.name) || len(d.name) > 64 {
				t.Errorf("metric name %q does not match %s (max 64)", d.name, metricName)
			}
			if seen[d.name] {
				t.Errorf("metric %q defined twice", d.name)
			}
			seen[d.name] = true
		}
	}
	for _, w := range workloads {
		if !metricName.MatchString(w.name) {
			t.Errorf("workload name %q is malformed", w.name)
		}
	}
}

func TestBenchmarkFileMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(defs) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness reports %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the harness reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", endToEndMetrics, f.EndToEnd)
	check("per_layer", layerMetrics, f.PerLayer)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, f.Workloads[i].Name, w.name)
		}
		if len(f.Workloads[i].Why) > 200 {
			t.Errorf("workload %s: why is %d characters, max 200", w.name, len(f.Workloads[i].Why))
		}
	}
}
