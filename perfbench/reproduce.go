package main

import (
	"fmt"
	"strings"
	"time"

	"cloudwatch/internal/core"
)

// studyConfig is the study `cloudwatch -experiment all` and
// `cloudwatch -serve` build for a seed: default scale, year 2021, and
// the Figure 1 deployment (telescope bumped to two full /16s). Workers
// is left at 0, GOMAXPROCS, which the harness sets to 1.
func studyConfig(seed int64) core.Config {
	cfg := core.DefaultConfig(seed, 2021)
	cfg.Deploy.TelescopeSlash24s = 512
	return cfg
}

// checkWorkers is the worker count the reproduce check re-runs op 0
// with; the timed ops run one worker, so this shards the population
// differently.
const checkWorkers = 4

// warmupSeedBase offsets the seeds of untimed warm-up studies away from
// the timed ops' seeds.
const warmupSeedBase = 1 << 40

// reproduceOp regenerates every table and the figure, as
// `cloudwatch -experiment all` prints them.
func reproduceOp(cfg core.Config, sp *span) (string, error) {
	g := sp.child("core.Run")
	study, err := core.Run(cfg)
	g.end()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, name := range core.ExperimentNames() {
		r := sp.child("core.RenderExperiment." + name)
		out, ok := core.RenderExperiment(study, name)
		r.end()
		if !ok || out == "" {
			return "", fmt.Errorf("%s rendered nothing", name)
		}
		b.WriteString(out)
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// runReproduce is the researcher's path: closed loop, one caller, op i
// regenerates the whole evaluation for study seed = bench seed + i.
func runReproduce(e *env) (*measurement, error) {
	m := &measurement{layer: map[string]float64{}}
	for k := 0; k < setupRepeats; k++ {
		t := time.Now()
		sp := e.tr.root("setup.warmup_op", -1, true)
		_, err := reproduceOp(studyConfig(e.seed+warmupSeedBase+int64(k)), sp)
		sp.end()
		m.attempted++
		if err != nil {
			return nil, err
		}
		m.setups = append(m.setups, time.Since(t).Seconds())
	}

	before := localCounters()
	cpu0, err := cpuSeconds(0)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(time.Duration(e.seconds * float64(time.Second)))
	var first string
	for i := int64(0); time.Now().Before(deadline); i++ {
		traced := i%2 == 1
		sp := e.tr.root("reproduce.op", i, traced)
		t := time.Now()
		out, err := reproduceOp(studyConfig(e.seed+i), sp)
		d := msSince(t)
		sp.end()
		m.attempted++
		if err != nil {
			m.failed++
			m.notes = append(m.notes, fmt.Sprintf("op %d failed: %v", i, err))
			continue
		}
		if i == 0 {
			first = out
		}
		m.record(d, traced, e.trace)
	}
	m.elapsed = time.Since(start).Seconds()
	cpu1, err := cpuSeconds(0)
	if err != nil {
		return nil, err
	}
	m.cpu = cpu1 - cpu0
	if m.rssMB, err = peakRSSMB(0); err != nil {
		return nil, err
	}
	after := localCounters()

	// Output check: op 0 re-run with another sharding of the actor
	// population must be byte-identical.
	cfg := studyConfig(e.seed)
	cfg.Workers = checkWorkers
	sp := e.tr.root("check.workers_rerun", -1, true)
	out, err := reproduceOp(cfg, sp)
	sp.end()
	m.attempted++
	if err != nil || first == "" || out != first {
		m.failed++
		m.notes = append(m.notes, fmt.Sprintf("check failed: op 0 at Workers=%d differs from its Workers=1 run", checkWorkers))
	} else {
		m.notes = append(m.notes, fmt.Sprintf("check passed: op 0 at Workers=%d is byte-identical to its Workers=1 run", checkWorkers))
	}

	if e.trace {
		cacheRatios(m.layer, before, after)
		if err := layerProbe(e, m, 0); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// record keeps one timed op's latency, and in a traced run also files
// it under the traced or untraced half of the overhead comparison.
func (m *measurement) record(ms float64, traced, tracing bool) {
	m.lat = append(m.lat, ms)
	if !tracing {
		return
	}
	if traced {
		m.tracedLat = append(m.tracedLat, ms)
	} else {
		m.untracedLat = append(m.untracedLat, ms)
	}
}
