package scanners

import (
	"math/rand"
	"strconv"
	"time"

	"cloudwatch/internal/netsim"
	"cloudwatch/internal/searchengine"
	"cloudwatch/internal/wire"
)

// Context carries everything an actor consults while generating
// traffic: the monitored universe and the two search-engine indexes.
// All fields are read-only during traffic generation, so one Context
// may be shared by actors running on concurrent workers.
type Context struct {
	U      *netsim.Universe
	Censys *searchengine.Engine
	Shodan *searchengine.Engine
	Seed   int64

	// est, when non-nil, switches the scan primitives into estimation
	// mode: ScanServices adds its expected emission count here and
	// emits nothing; ScanTelescope contributes nothing (telescope
	// probes never become records). Set only on the private context
	// copy EstimateEmission drives.
	est *float64
}

// Actor is one scanning organization or botnet: a set of source IPs in
// one AS plus a traffic-generation behavior.
type Actor struct {
	Name   string
	AS     netsim.AS
	Benign bool // GreyNoise-vetted organization
	IPs    []wire.Addr
	Gen    func(a *Actor, ctx *Context, emit func(*netsim.Probe))

	// arena is the actor's credential slab (see credAlloc). Lazily
	// created; shared by design when an actor value is copied for a
	// narrowed re-scan, which is safe because an actor's generation
	// runs on a single goroutine.
	arena *credSlab
}

// credSlab carves the small record-retained credential slices of
// cred-carrying probes out of chunked backing arrays, so a bruteforce
// campaign costs one allocation per ~thousand login attempts instead
// of one per probe. Returned slices are capacity-clipped, so a later
// append through one can never spill into the next allocation.
type credSlab struct {
	buf []netsim.Credential
}

// credSlabChunk is the slab chunk size in credentials: large enough to
// amortize allocation across a campaign's probes, small enough that a
// finished chunk retained by a handful of records wastes little.
const credSlabChunk = 1024

func (s *credSlab) alloc(n int) []netsim.Credential {
	if n <= 0 {
		return nil
	}
	if len(s.buf)+n > cap(s.buf) {
		size := credSlabChunk
		if n > size {
			size = n
		}
		s.buf = make([]netsim.Credential, 0, size)
	}
	off := len(s.buf)
	s.buf = s.buf[:off+n]
	return s.buf[off : off : off+n]
}

// credAlloc returns an empty credential slice with capacity n drawn
// from the actor's slab. The slice is retained by the records that
// observe it; the slab chunk stays alive exactly as long as any of its
// slices do. Callers run on the actor's single generation goroutine.
func (a *Actor) credAlloc(n int) []netsim.Credential {
	if a.arena == nil {
		a.arena = &credSlab{}
	}
	return a.arena.alloc(n)
}

// Run generates the actor's traffic for the study week.
//
// Concurrency contract: distinct actors may Run concurrently against
// a shared Context. Every random draw comes from streams keyed by the
// actor's own name (see rng, ScanServices, ScanTelescope), so an
// actor's probe sequence never depends on when — or alongside whom —
// it is scheduled. emit is called from the goroutine that called Run;
// callers running actors in parallel must pass a per-worker emit or a
// concurrency-safe one.
//
// Aliasing contract: the *Probe passed to emit is valid only for the
// duration of the call — generators reuse one probe variable across
// emissions, so a callee that wants to keep the probe must copy it
// (`keep := *p`), never retain the pointer. Copying the probe's Creds
// slice header is fine: credential lists are arena-allocated per
// emission and never reused.
func (a *Actor) Run(ctx *Context, emit func(*netsim.Probe)) {
	if a.Gen != nil {
		a.Gen(a, ctx, emit)
	}
}

// rng returns the actor's deterministic random stream.
func (a *Actor) rng(ctx *Context) *rand.Rand {
	return netsim.Stream(ctx.Seed, "actor:"+a.Name)
}

// safeFirstOctets are first octets guaranteed disjoint from every
// vantage-point pool in internal/cloud, so scanner sources never
// collide with monitored addresses.
var safeFirstOctets = []byte{
	5, 11, 14, 24, 27, 31, 38, 41, 45, 59, 61, 77, 89, 91, 101, 103,
	109, 113, 121, 133, 151, 163, 177, 185, 190, 195, 200, 203, 211, 221,
}

// SourceIPs derives n deterministic source addresses for an AS: a /16
// chosen by hashing the ASN, hosts spread through it. Distinct actors
// in the same AS get distinct hosts via the salt. The stream name is
// assembled with byte appends (population construction derives one
// stream per actor; fmt is measurably slower there).
func SourceIPs(as netsim.AS, salt string, n int, seed int64) []wire.Addr {
	name := make([]byte, 0, 7+10+1+len(salt))
	name = append(name, "srcips:"...)
	name = strconv.AppendInt(name, int64(as.ASN), 10)
	name = append(name, ':')
	name = append(name, salt...)
	h := netsim.PooledStream(seed, string(name))
	defer h.Release()
	rng := h.Rand
	first := safeFirstOctets[as.ASN%len(safeFirstOctets)]
	second := byte((as.ASN / len(safeFirstOctets)) % 256)
	base := wire.AddrFrom4(first, second, 0, 0)
	seen := make(map[wire.Addr]bool, n)
	out := make([]wire.Addr, 0, n)
	for len(out) < n {
		ip := base + wire.Addr(rng.Intn(65536))
		if ip == base || seen[ip] {
			continue
		}
		seen[ip] = true
		out = append(out, ip)
	}
	return out
}

// uniformTime draws a timestamp uniformly over the study week.
func uniformTime(rng *rand.Rand) time.Time {
	sec := rng.Int63n(int64(netsim.StudyHours) * 3600)
	return netsim.StudyStart.Add(time.Duration(sec) * time.Second)
}

// burstTime draws a timestamp inside a burst window starting at start.
func burstTime(rng *rand.Rand, start time.Time, width time.Duration) time.Time {
	if width <= 0 {
		return start
	}
	return start.Add(time.Duration(rng.Int63n(int64(width))))
}

// ServiceScan describes a sweep over the honeypot targets.
type ServiceScan struct {
	Ports       []uint16                     // destination ports probed
	Transport   wire.Transport               // defaults to TCP
	Filter      func(*netsim.Target) bool    // eligible targets (nil = all service targets)
	Cover       float64                      // P(src hits an eligible target)
	Weight      func(*netsim.Target) float64 // per-target cover multiplier (nil = 1)
	MinAttempts int                          // probes per (src, target, port) hit
	MaxAttempts int                          // inclusive; 0 means MinAttempts
	// Payload returns the interned id of the probe's first payload
	// (0 = none). Actors draw ids from dictionaries registered with the
	// study-wide interner at package init (see payloads.go), so no
	// payload bytes are built, hashed, or copied per probe.
	Payload func(rng *rand.Rand, t *netsim.Target) netsim.PayloadID
	Creds   func(rng *rand.Rand, t *netsim.Target) []netsim.Credential // login attempts per probe (nil = none)
	Time    func(rng *rand.Rand) time.Time                             // probe timestamp (nil = uniform over week)
}

// ScanServices runs one ServiceScan for every source IP of the actor.
// In estimation mode (see EstimateEmission) it adds the scan's expected
// emission count to the context's accumulator and returns without
// drawing randomness or emitting anything.
func (a *Actor) ScanServices(ctx *Context, emit func(*netsim.Probe), s ServiceScan) {
	targets := ctx.U.ServiceTargets()
	// Precompute each target's listening subset of s.Ports once: the
	// src × target × port loop below would otherwise repeat the
	// ListensOn checks per source IP. Port order is preserved and the
	// sub-slices share one backing array (one allocation, not one per
	// target), so the rng draw sequence is identical to the naive loop.
	flat := make([]uint16, 0, len(targets)*len(s.Ports))
	openPorts := make([][]uint16, len(targets))
	for ti, t := range targets {
		lo := len(flat)
		for _, port := range s.Ports {
			if t.ListensOn(port) {
				flat = append(flat, port)
			}
		}
		openPorts[ti] = flat[lo:len(flat):len(flat)]
	}
	if ctx.est != nil {
		// Expected probes = Σ_targets P(hit) × open ports × mean
		// attempts, per source IP — exact in expectation, no rng.
		perIP := 0.0
		for ti, t := range targets {
			if s.Filter != nil && !s.Filter(t) {
				continue
			}
			cover := s.Cover
			if s.Weight != nil {
				cover *= s.Weight(t)
			}
			if cover <= 0 {
				continue
			}
			attempts := float64(s.MinAttempts)
			if s.MaxAttempts > s.MinAttempts {
				attempts = float64(s.MinAttempts+s.MaxAttempts) / 2
			}
			if attempts < 1 {
				attempts = 1
			}
			perIP += clampProb(cover) * float64(len(openPorts[ti])) * attempts
		}
		*ctx.est += perIP * float64(len(a.IPs))
		return
	}
	h := netsim.PooledStream(ctx.Seed, "svc:"+a.Name)
	defer h.Release()
	rng := h.Rand
	transport := s.Transport
	if transport == 0 {
		transport = wire.TCP
	}
	timeFn := s.Time
	if timeFn == nil {
		timeFn = uniformTime
	}
	// One probe variable for the whole scan, emitted by address: the
	// per-probe ~100-byte struct copy (and its heap escape through the
	// emit func value) happens once per scan instead of once per probe.
	var p netsim.Probe
	for _, src := range a.IPs {
		for ti, t := range targets {
			if s.Filter != nil && !s.Filter(t) {
				continue
			}
			cover := s.Cover
			if s.Weight != nil {
				cover *= s.Weight(t)
			}
			if cover <= 0 || rng.Float64() >= clampProb(cover) {
				continue
			}
			for _, port := range openPorts[ti] {
				attempts := s.MinAttempts
				if s.MaxAttempts > s.MinAttempts {
					attempts += rng.Intn(s.MaxAttempts - s.MinAttempts + 1)
				}
				if attempts < 1 {
					attempts = 1
				}
				for k := 0; k < attempts; k++ {
					// Field stores instead of a struct-literal assignment:
					// re-copying the whole probe per emission showed up as
					// measurable copy overhead in generation profiles.
					p.T = timeFn(rng)
					p.Src = src
					p.ASN = a.AS.ASN
					p.Dst = t.IP
					p.Port = port
					p.Transport = transport
					p.Pay = 0
					p.Creds = nil
					if s.Payload != nil {
						p.Pay = s.Payload(rng, t)
					}
					if s.Creds != nil {
						p.Creds = s.Creds(rng, t)
					}
					emit(&p)
				}
			}
		}
	}
}

// TelescopeScan describes a sweep over the darknet ranges.
type TelescopeScan struct {
	Ports     []uint16
	Transport wire.Transport // defaults to TCP
	PerIP     int            // telescope addresses sampled per source IP
	// Pick chooses a telescope address (nil = uniform). Structure-
	// biased scanners install rejection samplers here.
	Pick func(rng *rand.Rand, u *netsim.Universe) wire.Addr
	Time func(rng *rand.Rand) time.Time
}

// ScanTelescope runs one TelescopeScan for every source IP. Telescope
// probes carry no payload: the collector would not record one anyway
// (telescopes never complete the handshake).
func (a *Actor) ScanTelescope(ctx *Context, emit func(*netsim.Probe), s TelescopeScan) {
	if ctx.U.TelescopeSize() == 0 || s.PerIP <= 0 {
		return
	}
	if ctx.est != nil {
		// Telescope probes never become records, so they contribute
		// nothing to the record-emission estimate.
		return
	}
	h := netsim.PooledStream(ctx.Seed, "tel:"+a.Name)
	defer h.Release()
	rng := h.Rand
	transport := s.Transport
	if transport == 0 {
		transport = wire.TCP
	}
	timeFn := s.Time
	if timeFn == nil {
		timeFn = uniformTime
	}
	pick := s.Pick
	if pick == nil {
		pick = UniformTelescope
	}
	// See ScanServices: one probe variable per scan, emitted by address.
	var p netsim.Probe
	for _, src := range a.IPs {
		for i := 0; i < s.PerIP; i++ {
			dst := pick(rng, ctx.U)
			for _, port := range s.Ports {
				// Field stores, not a struct literal — see ScanServices.
				p.T = timeFn(rng)
				p.Src = src
				p.ASN = a.AS.ASN
				p.Dst = dst
				p.Port = port
				p.Transport = transport
				p.Pay = 0
				p.Creds = nil
				emit(&p)
			}
		}
	}
}

// UniformTelescope picks telescope addresses uniformly.
func UniformTelescope(rng *rand.Rand, u *netsim.Universe) wire.Addr {
	return u.TelescopeAddr(rng.Intn(u.TelescopeSize()))
}

// Avoid255 builds a telescope picker that keeps addresses containing a
// 255 octet with probability 1/factor — the §4.2 avoidance behavior
// ("61 times less likely" for 7574/Oracle, "9 times less" for
// 445/SMB).
func Avoid255(factor float64) func(*rand.Rand, *netsim.Universe) wire.Addr {
	return func(rng *rand.Rand, u *netsim.Universe) wire.Addr {
		for i := 0; i < 64; i++ {
			a := UniformTelescope(rng, u)
			if !a.HasOctet(255) || rng.Float64() < 1/factor {
				return a
			}
		}
		return UniformTelescope(rng, u)
	}
}

// PreferSlash16Start builds a picker that makes the first address of
// each /16 `multiplier` times more likely than any other address —
// Mirai/PonyNet's port-22 preference ("one order of magnitude more
// likely to choose the first address of a /16 as its first scanning
// target" ⇒ multiplier ≈ 10). The bias is scale-aware: it adapts to
// however many /16 starts the telescope contains (memoized on the
// universe; the picker runs once per probe).
func PreferSlash16Start(multiplier float64) func(*rand.Rand, *netsim.Universe) wire.Addr {
	return func(rng *rand.Rand, u *netsim.Universe) wire.Addr {
		starts := u.TelescopeSlash16Starts()
		if len(starts) > 0 {
			p := (multiplier - 1) * float64(len(starts)) / float64(u.TelescopeSize())
			if rng.Float64() < p {
				return starts[rng.Intn(len(starts))]
			}
		}
		return UniformTelescope(rng, u)
	}
}

// FixedTelescopeSet builds a picker latched onto specific offsets into
// the telescope space — the Figure 1d four-address botnet.
func FixedTelescopeSet(offsets []int) func(*rand.Rand, *netsim.Universe) wire.Addr {
	return func(rng *rand.Rand, u *netsim.Universe) wire.Addr {
		off := offsets[rng.Intn(len(offsets))]
		return u.TelescopeAddr(off % u.TelescopeSize())
	}
}

func clampProb(p float64) float64 {
	if p > 1 {
		return 1
	}
	if p < 0 {
		return 0
	}
	return p
}
