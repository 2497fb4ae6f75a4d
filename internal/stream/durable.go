package stream

import (
	"bytes"
	"encoding/json"
	"fmt"

	"cloudwatch/internal/core"
	"cloudwatch/internal/store"
)

// Open builds an engine backed by a durable store. If the store holds
// a complete study generated under the same configuration, generation
// is skipped entirely and the persisted material is restored (the
// cold-start win); otherwise the study is generated deterministically
// and the segment rewritten. Either way the engine then re-ingests up
// to the store's manifest cursor, so a restarted process resumes
// serving exactly the prefix it had acknowledged before the crash —
// and, generation being deterministic, every snapshot it serves is
// byte-identical to one from a process that never crashed.
//
// A store whose config does not match is an error, not a rewrite:
// silently discarding a persisted study over a flag typo would be
// worse than asking the operator to delete the directory.
func Open(cfg Config, st *store.Store) (*Engine, error) {
	cfgJSON, epochs, err := normalizedConfigJSON(cfg)
	if err != nil {
		return nil, err
	}
	var es *core.EpochSet
	recovered := false
	if prevJSON, m := st.Recovered(); m != nil {
		if !bytes.Equal(prevJSON, cfgJSON) {
			return nil, fmt.Errorf("stream: store holds a different study (stored config %s); delete the store directory or match its configuration", prevJSON)
		}
		// A restore failure despite a matching config means the decoded
		// material is internally inconsistent; regeneration below
		// rewrites it.
		if restored, rerr := core.RestoreEpochSet(cfg.Study, m); rerr == nil {
			es, recovered = restored, true
		}
	}
	if es == nil {
		es, err = core.GenerateEpochs(cfg.Study, epochs)
		if err != nil {
			return nil, err
		}
		if err := st.WriteStudy(cfgJSON, es.Material()); err != nil {
			return nil, err
		}
	}
	if recovered {
		store.RecoveryOutcome("recovered")
	} else {
		store.RecoveryOutcome("regenerated")
	}

	eng := newEngine(es)
	eng.st, eng.recovered = st, recovered
	n := min(st.Ingested(), es.NumEpochs())
	for p := 1; p <= n; p++ {
		if err := eng.advance(); err != nil {
			return nil, fmt.Errorf("stream: rehydrate epoch %d/%d: %w", p, n, err)
		}
	}
	return eng, nil
}

// normalizedConfigJSON is the identity of a study for store matching:
// the epoch count plus the study config with Workers and WindowSec
// zeroed — both are execution parameters (sharding width, batch
// truncation) under which results are byte-identical, so material
// generated at any value of either restores under any other. The
// config is normalized first (core.Config.Normalized: an unset year
// means 2021, an unset scenario the baseline), so the spelling of "the
// paper's week" never splits store identity; a genuinely different
// scenario yields different JSON, which is what makes a store written
// under one scenario refuse to serve another.
func normalizedConfigJSON(cfg Config) (js []byte, epochs int, err error) {
	if epochs, err = cfg.epochs(); err != nil {
		return nil, 0, err
	}
	study := cfg.Study.Normalized()
	study.Workers = 0
	study.WindowSec = 0
	js, err = json.Marshal(struct {
		Epochs int
		Study  core.Config
	}{epochs, study})
	return js, epochs, err
}
