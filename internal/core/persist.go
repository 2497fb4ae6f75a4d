package core

import (
	"fmt"

	"cloudwatch/internal/netsim"
	"cloudwatch/internal/telescope"
)

// This file is the persistence boundary of the streaming engine: the
// sealed, generated material of an EpochSet exported as plain data
// (StudyMaterial) and the inverse constructor that rebuilds a working
// EpochSet from persisted material without running the generators.
// Everything else an EpochSet holds — universe, search-engine indexes,
// actor population — is deterministic from the Config alone and cheap
// next to generation, so it is rebuilt rather than stored; only the
// probe material the actors emitted (record columns, collector state,
// emission sequences, per-actor run bounds) crosses the disk boundary.
// internal/store frames StudyMaterial into its checksummed segment
// file.

// SinkMaterial is the sealed material of one (worker, epoch) sink: the
// record columns, per-record emission sequences, and the epoch's
// telescope aggregation for probes that worker routed into that epoch.
type SinkMaterial struct {
	Tel *telescope.Collector
	Blk *netsim.RecordBlock
	Seq []int32
}

// EpochMaterial is the sealed material of one epoch across all
// workers, plus each actor's record range inside its worker's sink for
// this epoch.
type EpochMaterial struct {
	Sinks []SinkMaterial // one per worker
	// Lo and Hi bound each actor's records within its worker's sink
	// block for this epoch: records [Lo[i], Hi[i]) of
	// Sinks[ActorWorker[i]].Blk belong to actor i.
	Lo, Hi []int32
}

// StudyMaterial is everything generation produced that cannot be
// re-derived from the configuration without paying for generation
// again. Restoring it into an EpochSet (RestoreEpochSet) yields
// snapshots byte-identical to the set it was exported from.
type StudyMaterial struct {
	// Scenario is the canonical scenario id the material was generated
	// under. Unlike Workers it is semantic: material from one
	// adversarial world must never restore into a study configured for
	// another, so RestoreEpochSet checks it independently of whatever
	// config matching the store layer does (belt and suspenders).
	Scenario string
	// Workers is the sink partition width the material was generated
	// with. It is a storage layout, not a semantic parameter: snapshots
	// are byte-identical for every worker count, so material generated
	// at any width restores correctly regardless of the reading
	// process's GOMAXPROCS.
	Workers int
	// ActorWorker maps each actor (population order) to the worker
	// whose sinks hold its records.
	ActorWorker []int32
	Epochs      []EpochMaterial
}

// Material exports the epoch set's sealed generated material. The
// returned structure shares the set's columns and collectors — both
// sides are immutable after generation, so the share is safe; treat
// the material as read-only.
func (es *EpochSet) Material() *StudyMaterial {
	m := &StudyMaterial{
		Scenario:    es.cfg.Scenario,
		Workers:     len(es.sinks),
		ActorWorker: make([]int32, len(es.runs)),
		Epochs:      make([]EpochMaterial, es.eb.NumEpochs()),
	}
	for i := range es.runs {
		m.ActorWorker[i] = -1
		if len(es.runs[i].sinks) == 0 {
			continue
		}
		for w := range es.sinks {
			if &es.runs[i].sinks[0] == &es.sinks[w][0] {
				m.ActorWorker[i] = int32(w)
				break
			}
		}
	}
	for e := range m.Epochs {
		em := &m.Epochs[e]
		em.Sinks = make([]SinkMaterial, len(es.sinks))
		for w, sinks := range es.sinks {
			sink := sinks[e]
			em.Sinks[w] = SinkMaterial{Tel: sink.tel, Blk: &sink.blk, Seq: sink.seq}
		}
		em.Lo = make([]int32, len(es.runs))
		em.Hi = make([]int32, len(es.runs))
		for i := range es.runs {
			em.Lo[i] = es.runs[i].lo[e]
			em.Hi[i] = es.runs[i].hi[e]
		}
	}
	return m
}

// RestoreEpochSet rebuilds a working epoch set from persisted
// material: the deterministic scaffolding (deployment, universe,
// search-engine crawls, actor population) is rebuilt from cfg, the
// generated material is installed without running a single actor, and
// the result serves snapshots byte-identical to the set the material
// was exported from. The material is validated structurally (shape,
// range bounds, column agreement) against the actor population alone,
// so a corrupted or mismatched store fails here, before the deployment
// is built, instead of producing a silently wrong study.
func RestoreEpochSet(cfg Config, m *StudyMaterial) (*EpochSet, error) {
	if err := checkUnwindowed(cfg); err != nil {
		return nil, err
	}
	if m.Workers < 1 {
		return nil, fmt.Errorf("core: material has %d workers", m.Workers)
	}
	es, err := newEpochSet(cfg, len(m.Epochs))
	if err != nil {
		return nil, err
	}
	if m.Scenario != es.cfg.Scenario {
		return nil, fmt.Errorf("core: material was generated under scenario %q, study is configured for %q", m.Scenario, es.cfg.Scenario)
	}
	if len(m.ActorWorker) != len(es.actors) {
		return nil, fmt.Errorf("core: material maps %d actors, population has %d (configuration mismatch?)", len(m.ActorWorker), len(es.actors))
	}

	nEpochs := len(m.Epochs)
	es.sinks = make([][]*epochSink, m.Workers)
	for w := range es.sinks {
		es.sinks[w] = make([]*epochSink, nEpochs)
	}
	for e := range m.Epochs {
		em := &m.Epochs[e]
		if len(em.Sinks) != m.Workers {
			return nil, fmt.Errorf("core: epoch %d has %d sinks, material declares %d workers", e, len(em.Sinks), m.Workers)
		}
		if len(em.Lo) != len(es.actors) || len(em.Hi) != len(es.actors) {
			return nil, fmt.Errorf("core: epoch %d run bounds cover %d/%d actors, want %d", e, len(em.Lo), len(em.Hi), len(es.actors))
		}
		for w, sm := range em.Sinks {
			if sm.Tel == nil || sm.Blk == nil {
				return nil, fmt.Errorf("core: epoch %d worker %d sink is incomplete", e, w)
			}
			if len(sm.Seq) != sm.Blk.Len() {
				return nil, fmt.Errorf("core: epoch %d worker %d has %d seqs for %d records", e, w, len(sm.Seq), sm.Blk.Len())
			}
			es.sinks[w][e] = &epochSink{tel: sm.Tel, blk: *sm.Blk, seq: sm.Seq}
		}
	}

	es.runs = make([]actorRuns, len(es.actors))
	for i := range es.actors {
		w := m.ActorWorker[i]
		if w < 0 || int(w) >= m.Workers {
			return nil, fmt.Errorf("core: actor %d assigned to worker %d of %d", i, w, m.Workers)
		}
		run := actorRuns{sinks: es.sinks[w], lo: make([]int32, nEpochs), hi: make([]int32, nEpochs)}
		for e := range m.Epochs {
			lo, hi := m.Epochs[e].Lo[i], m.Epochs[e].Hi[i]
			if lo < 0 || hi < lo || int(hi) > run.sinks[e].blk.Len() {
				return nil, fmt.Errorf("core: actor %d epoch %d run [%d, %d) outside sink of %d records", i, e, lo, hi, run.sinks[e].blk.Len())
			}
			run.lo[e], run.hi[e] = lo, hi
		}
		es.runs[i] = run
	}
	if _, err := es.scaffold(); err != nil {
		return nil, err
	}
	return es, nil
}
