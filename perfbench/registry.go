package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"cloudwatch/internal/obs"
)

// counters flattens a metrics snapshot to name{k=v,...} → value;
// histograms contribute their observation count and sum (seconds) under
// the suffixes .count and .sum.
type counters map[string]float64

func flatten(s obs.MetricsSnapshot) counters {
	c := counters{}
	for _, f := range s.Metrics {
		for _, v := range f.Values {
			key := seriesKey(f.Name, v.Labels)
			switch {
			case v.Value != nil:
				c[key] = float64(*v.Value)
			case v.Count != nil:
				c[key+".count"] = float64(*v.Count)
				c[key+".sum"] = *v.SumSeconds
			}
		}
	}
	return c
}

func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	ks := make([]string, 0, len(labels))
	for k := range labels {
		ks = append(ks, k+"="+labels[k])
	}
	sort.Strings(ks)
	return name + "{" + strings.Join(ks, ",") + "}"
}

// localCounters reads this process's registry — the program's own
// obs.Default(), which the in-process layers record into.
func localCounters() counters { return flatten(obs.Default().Snapshot()) }

// scrapeCounters reads a running server's registry from /v1/metrics.
func scrapeCounters(client *http.Client, base string) (counters, error) {
	resp, err := client.Get(base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap obs.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decoding /v1/metrics: %w", err)
	}
	return flatten(snap), nil
}

// delta returns after[key] − before[key].
func delta(before, after counters, key string) float64 { return after[key] - before[key] }

// cacheRatios sets the workload-attributed cache metrics from registry
// deltas over the measured phase: the snapshot LRU and the render
// cache. A workload that bypasses a cache reports 0 for it.
func cacheRatios(m map[string]float64, before, after counters) {
	lh := delta(before, after, "stream_snapshot_lru_hits_total")
	lm := delta(before, after, "stream_snapshot_lru_misses_total")
	rh := delta(before, after, "stream_render_cache_hits_total")
	rm := delta(before, after, "stream_render_cache_misses_total")
	m["engine.lru_hit_ratio"] = ratio(lh, lh+lm)
	m["engine.lru_evictions"] = delta(before, after, "stream_snapshot_lru_evictions_total")
	m["server.render_cache_hit_ratio"] = ratio(rh, rh+rm)
	m["server.render_cache_evictions"] = delta(before, after, "stream_render_cache_evictions_total")
	m["server.singleflight_dedup"] = delta(before, after, "stream_singleflight_dedup_total")
}
