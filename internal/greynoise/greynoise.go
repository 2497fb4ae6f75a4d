// Package greynoise reproduces the labeling side of the GreyNoise API
// the paper uses in §6: scanner source IPs are classified benign
// (owner passed a vetting process), malicious (observed actively
// exploiting services), or unknown (everyone else — 78% of scanning
// IPs GreyNoise saw in 2022).
package greynoise

import (
	"maps"
	"sync"

	"cloudwatch/internal/wire"
)

// Classification is the GreyNoise verdict for a scanning IP.
type Classification int

// Verdicts.
const (
	Unknown Classification = iota
	Benign
	Malicious
)

// String names the verdict as the API does.
func (c Classification) String() string {
	switch c {
	case Benign:
		return "benign"
	case Malicious:
		return "malicious"
	default:
		return "unknown"
	}
}

// Service accumulates observations and answers classification queries.
// It is safe for concurrent use.
type Service struct {
	mu        sync.RWMutex
	vettedASN map[int]bool
	exploited map[wire.Addr]bool
	seen      map[wire.Addr]bool
}

// NewService returns an empty classifier.
func NewService() *Service {
	return &Service{
		vettedASN: map[int]bool{},
		exploited: map[wire.Addr]bool{},
		seen:      map[wire.Addr]bool{},
	}
}

// VetASN marks an organization as having "undergone a rigorous vetting
// process"; its scanners classify as benign unless individually
// observed exploiting.
func (s *Service) VetASN(asn int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vettedASN[asn] = true
}

// Observe records that a source IP was seen scanning.
func (s *Service) Observe(src wire.Addr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen[src] = true
}

// ObserveExploit records that a source IP was "seen actively
// exploiting services".
func (s *Service) ObserveExploit(src wire.Addr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen[src] = true
	s.exploited[src] = true
}

// RemoveExploit withdraws an exploit observation: the source drops
// back to seen-but-not-exploiting. The incremental snapshot assembler
// uses it when a moved verdict anchor flips a payload benign and no
// malicious record names the source anymore.
func (s *Service) RemoveExploit(src wire.Addr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.exploited, src)
}

// Clone returns a service with the same observation state. The three
// aggregates are deep-copied, so extending the clone (MergeDelta,
// ObserveExploit) never mutates the original — the
// incremental snapshot chain clones the previous prefix's service and
// folds only the new epoch's deltas into the clone.
func (s *Service) Clone() *Service {
	s.mu.RLock()
	defer s.mu.RUnlock()
	// maps.Clone is a runtime-assisted bulk copy (no per-entry
	// rehash), and the incremental snapshot chain clones once per
	// ingested epoch over ever-growing sets.
	n := &Service{
		vettedASN: maps.Clone(s.vettedASN),
		exploited: maps.Clone(s.exploited),
		seen:      maps.Clone(s.seen),
	}
	return n
}

// Delta is a lock-free observation accumulator for a single pipeline
// worker: the same seen/exploited semantics as Service.Observe and
// ObserveExploit without per-call locking. A Delta must only be
// written from one goroutine; fold it into a shared Service with
// MergeDelta once the worker is done.
type Delta struct {
	seen      map[wire.Addr]struct{}
	exploited map[wire.Addr]struct{}

	// last short-circuits the seen-set insert while one source's probe
	// run lasts (actors emit long same-source runs); lastExp does the
	// same for the exploited-set insert (verdict fills walk records in
	// canonical order, which has the same run structure).
	last      wire.Addr
	lastOK    bool
	lastExp   wire.Addr
	lastExpOK bool
}

// NewDelta returns an empty per-worker accumulator.
func NewDelta() *Delta {
	return &Delta{
		seen:      map[wire.Addr]struct{}{},
		exploited: map[wire.Addr]struct{}{},
	}
}

// Observe records that a source IP was seen scanning.
func (d *Delta) Observe(src wire.Addr) {
	if d.lastOK && src == d.last {
		return
	}
	d.seen[src] = struct{}{}
	d.last, d.lastOK = src, true
}

// ObserveExploit records that a source IP was seen actively exploiting
// services.
func (d *Delta) ObserveExploit(src wire.Addr) {
	if d.lastExpOK && src == d.lastExp {
		return
	}
	d.seen[src] = struct{}{}
	d.exploited[src] = struct{}{}
	d.lastExp, d.lastExpOK = src, true
}

// MergeDelta folds a worker delta into the service under one lock
// acquisition. Both aggregates are set unions, so merging deltas in
// any order reaches the same state as serial observation.
func (s *Service) MergeDelta(d *Delta) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for src := range d.seen {
		s.seen[src] = true
	}
	for src := range d.exploited {
		s.exploited[src] = true
		s.seen[src] = true
	}
}

// Classify returns the verdict for a source IP in a given AS. Exploit
// observations dominate vetting; unseen and unvetted IPs are unknown.
func (s *Service) Classify(src wire.Addr, asn int) Classification {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.exploited[src] {
		return Malicious
	}
	if s.vettedASN[asn] {
		return Benign
	}
	return Unknown
}

// Stats returns the number of observed, exploited, and vetted-AS
// entries.
func (s *Service) Stats() (seen, exploited, vettedASNs int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.seen), len(s.exploited), len(s.vettedASN)
}
