// Package searchengine simulates the two Internet-service search
// engines the paper studies — Censys and Shodan (§4.3) — at the
// granularity the experiment needs: which (IP, port) services each
// engine has indexed, honoring per-target blocking (the control
// group), per-target leak controls (the leaked group: one engine may
// discover one service), and service history (the previously-leaked
// group). Attacker actors mine these indexes to pick targets, which is
// what produces Table 3's fold increases.
package searchengine

import (
	"sort"
	"time"

	"cloudwatch/internal/netsim"
	"cloudwatch/internal/wire"
)

// Engine is one service search engine's index.
type Engine struct {
	Name  string // "censys" or "shodan"
	index map[wire.Addr]map[uint16]time.Time
	hist  map[wire.Addr]bool // historical (pre-study) index entries
}

// New returns an empty engine named name.
func New(name string) *Engine {
	return &Engine{
		Name:  name,
		index: map[wire.Addr]map[uint16]time.Time{},
		hist:  map[wire.Addr]bool{},
	}
}

// Crawl scans every service target of the universe and indexes what
// the engine is allowed to see:
//
//   - BlockSearch targets are invisible (the experiment "blocklists
//     the IPs they scan with");
//   - leaked-group targets expose only LeakPort, and only to the
//     engine named by LeakEngine;
//   - every other target exposes all its ports.
//
// Previously-leaked targets additionally enter the engine's historical
// record, as do any targets indexed live.
func (e *Engine) Crawl(u *netsim.Universe, when time.Time) {
	for _, t := range u.ServiceTargets() {
		if t.PrevIndexed {
			e.hist[t.IP] = true
		}
		if t.BlockSearch {
			continue
		}
		if t.LeakEngine != "" {
			if t.LeakEngine != e.Name {
				continue
			}
			e.add(t.IP, t.LeakPort, when)
			e.markIndexed(t)
			continue
		}
		for _, port := range t.Ports {
			e.add(t.IP, port, when)
		}
		if len(t.Ports) > 0 {
			e.markIndexed(t)
		}
	}
}

func (e *Engine) markIndexed(t *netsim.Target) {
	switch e.Name {
	case "censys":
		t.IndexedCensys = true
	case "shodan":
		t.IndexedShodan = true
	}
	e.hist[t.IP] = true
}

func (e *Engine) add(ip wire.Addr, port uint16, when time.Time) {
	m, ok := e.index[ip]
	if !ok {
		m = map[uint16]time.Time{}
		e.index[ip] = m
	}
	if _, exists := m[port]; !exists {
		m[port] = when
	}
}

// Indexed reports whether the engine currently lists (ip, port).
func (e *Engine) Indexed(ip wire.Addr, port uint16) bool {
	m, ok := e.index[ip]
	if !ok {
		return false
	}
	_, ok = m[port]
	return ok
}

// Historical reports whether ip ever appeared in the engine's index,
// including pre-study history — the information source of actors that
// do not refresh their view ("the nmap scanners source only up-to-date
// information", so they are the ones that skip this).
func (e *Engine) Historical(ip wire.Addr) bool { return e.hist[ip] }

// Search returns the indexed addresses serving port, sorted for
// determinism — the miner actors' query primitive.
func (e *Engine) Search(port uint16) []wire.Addr {
	var out []wire.Addr
	for ip, ports := range e.index {
		if _, ok := ports[port]; ok {
			out = append(out, ip)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Size returns the number of indexed (ip, port) services.
func (e *Engine) Size() int {
	n := 0
	for _, ports := range e.index {
		n += len(ports)
	}
	return n
}
