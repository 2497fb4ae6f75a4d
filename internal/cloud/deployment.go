package cloud

import (
	"fmt"
	"math/rand"

	"cloudwatch/internal/netsim"
	"cloudwatch/internal/wire"
)

// GreyNoisePorts are the "at least seven popular ports" every
// GreyNoise honeypot exposes (§3.1): interactive SSH/Telnet plus
// handshake-and-first-payload services.
var GreyNoisePorts = []uint16{22, 2222, 23, 2323, 80, 8080, 443}

// HTTPRestrictedPorts are the ports only the first two honeypots of a
// region expose, matching Table 1's "4 or 2 (HTTP)" vantage counts.
var HTTPRestrictedPorts = map[uint16]bool{80: true, 8080: true, 443: true}

// greyNoisePerRegion is Table 1's GreyNoise layout: four honeypots per
// region, the first two of which expose the HTTP-family ports.
const greyNoisePerRegion = 4

// Config sizes a deployment. The zero value is unusable; use
// DefaultConfig.
type Config struct {
	HoneytrapPerCloud int // honeytrap IPs per /26 deployment (paper: 64)
	HurricaneIPs      int // HE /24 honeypot count (paper: 256)
	TelescopeSlash24s int // telescope size in /24s (paper: 1856)
}

// DefaultConfig returns the standard study deployment, scaled so a
// full week simulates in seconds: the telescope defaults to 128 /24s
// (32K addresses) instead of Orion's 1856, and the HE /24 honeypot
// fleet to 64 IPs instead of 256. Use AtPaperScale to reproduce the
// paper's full Table 1 scale.
func DefaultConfig() Config {
	return Config{
		HoneytrapPerCloud: 64,
		HurricaneIPs:      64,
		TelescopeSlash24s: 128,
	}
}

// AtPaperScale returns the configuration scaled to the paper's full
// Table 1 deployment: the complete Orion telescope (1856 /24s) and
// the complete Hurricane Electric /24 honeypot fleet (256 IPs). The
// GreyNoise and Honeytrap fleets already default to Table 1's layout
// (4 honeypots per region, 64 IPs per /26), so only the two
// down-scaled knobs move.
func (c Config) AtPaperScale() Config {
	c.TelescopeSlash24s = 1856
	c.HurricaneIPs = 256
	return c
}

// Deployment is a built vantage-point set plus the telescope ranges.
type Deployment struct {
	Targets         []*netsim.Target
	TelescopeBlocks []wire.Block
}

// Universe wraps the deployment into a netsim.Universe.
func (d *Deployment) Universe() (*netsim.Universe, error) {
	u, err := netsim.NewUniverse(d.Targets)
	if err != nil {
		return nil, err
	}
	u.TelescopeBlocks = d.TelescopeBlocks
	return u, nil
}

// Build constructs the Table 1 deployment: GreyNoise honeypots in
// every region, Honeytrap /26s in the education networks and their
// neighboring cloud regions, the Hurricane Electric /24, the leak-
// experiment groups, and the telescope ranges. The seed picks every
// address.
func Build(seed int64, cfg Config) (*Deployment, error) {
	if cfg.TelescopeSlash24s < 1 {
		return nil, fmt.Errorf("cloud: TelescopeSlash24s must be >= 1, got %d", cfg.TelescopeSlash24s)
	}
	d := &Deployment{}
	alloc := newAllocator(seed)

	for _, r := range GreyNoiseRegions {
		n := greyNoisePerRegion
		if r.Provider == Hurricane {
			n = cfg.HurricaneIPs
		}
		for i := 0; i < n; i++ {
			ports := GreyNoisePorts
			// Only the first two honeypots expose the HTTP-family
			// ports ("4 or 2 (HTTP)" in Table 1). The HE /24 exposes
			// everything everywhere.
			if r.Provider != Hurricane && i >= 2 {
				ports = nonHTTPPorts()
			}
			ip, err := alloc.next(r)
			if err != nil {
				return nil, err
			}
			d.Targets = append(d.Targets, &netsim.Target{
				ID:        fmt.Sprintf("%s:%d", r.Key(), i),
				IP:        ip,
				Network:   string(r.Provider),
				Kind:      r.Provider.Kind(),
				Region:    r.Key(),
				Geo:       r.Geo,
				Collector: netsim.CollectGreyNoise,
				Ports:     ports,
			})
		}
	}

	for _, r := range HoneytrapRegions {
		n := cfg.HoneytrapPerCloud
		if r.Provider == Google && r.Name == "ht-us-east" {
			n = 2 // Table 1: 2 IPs near Merit
		}
		for i := 0; i < n; i++ {
			ip, err := alloc.next(r)
			if err != nil {
				return nil, err
			}
			d.Targets = append(d.Targets, &netsim.Target{
				ID:        fmt.Sprintf("%s:%d", r.Key(), i),
				IP:        ip,
				Network:   string(r.Provider),
				Kind:      r.Provider.Kind(),
				Region:    r.Key(),
				Geo:       r.Geo,
				Collector: netsim.CollectHoneytrap,
				Ports:     honeytrapPorts(),
			})
		}
	}

	d.Targets = append(d.Targets, leakTargets(alloc)...)

	// Telescope ranges carved from the Orion pool.
	pool := Pool(Orion)
	for i := 0; i < cfg.TelescopeSlash24s; i++ {
		d.TelescopeBlocks = append(d.TelescopeBlocks, wire.Block{
			Base: pool.Base + wire.Addr(i*256),
			Bits: 24,
		})
	}
	return d, nil
}

// honeytrapPorts: Honeytrap collects the first payload on any port;
// for target selection we advertise the popular TCP ports the paper
// analyzes (Tables 8 and 9).
func honeytrapPorts() []uint16 {
	return []uint16{21, 22, 23, 25, 80, 443, 2222, 2323, 7547, 8080}
}

func nonHTTPPorts() []uint16 {
	var out []uint16
	for _, p := range GreyNoisePorts {
		if !HTTPRestrictedPorts[p] {
			out = append(out, p)
		}
	}
	return out
}

// leakTargets builds the §4.3 experiment groups on the Stanford
// network: 8 control IPs (search engines blocked, no history), 7
// previously-leaked IPs (history, engines blocked now), 18 leaked IPs
// (groups of 3 allowing one engine to find one protocol).
func leakTargets(alloc *allocator) []*netsim.Target {
	region := Region{Stanford, "leak", netsim.Geo{Country: "US", Sub: "CA", City: "STF", Continent: "NA"}}
	ports := []uint16{22, 23, 80}
	var out []*netsim.Target

	add := func(group string, i int, mutate func(t *netsim.Target)) {
		ip, err := alloc.next(region)
		if err != nil {
			panic("cloud: leak experiment allocation failed: " + err.Error())
		}
		t := &netsim.Target{
			ID:          fmt.Sprintf("%s:%s:%d", region.Key(), group, i),
			IP:          ip,
			Network:     string(Stanford),
			Kind:        netsim.KindEducation,
			Region:      region.Key() + ":" + group,
			Geo:         region.Geo,
			Collector:   netsim.CollectHoneytrap,
			Ports:       ports,
			EmulateAuth: true, // §4.3 hosts emulate SSH/Telnet/HTTP
		}
		mutate(t)
		out = append(out, t)
	}

	for i := 0; i < 8; i++ {
		add("control", i, func(t *netsim.Target) { t.BlockSearch = true })
	}
	for i := 0; i < 7; i++ {
		add("prevleaked", i, func(t *netsim.Target) {
			t.BlockSearch = true
			t.PrevIndexed = true
		})
	}
	// 18 leaked: engine × protocol grid, 3 IPs per cell.
	engines := []string{"censys", "shodan"}
	leakPorts := []uint16{80, 22, 23}
	i := 0
	for _, eng := range engines {
		for _, port := range leakPorts {
			for k := 0; k < 3; k++ {
				eng, port := eng, port
				add("leaked", i, func(t *netsim.Target) {
					t.LeakEngine = eng
					t.LeakPort = port
				})
				i++
			}
		}
	}
	return out
}

// allocator hands out unique honeypot IPs: one or more /24s per
// region, random last octets in [1, 254] — cloud providers do not
// assign .0/.255 to instances, matching the paper's note that no cloud
// honeypot has a non-final 255 octet.
type allocator struct {
	rng   *rand.Rand
	used  map[wire.Addr]bool
	slash map[string]wire.Block
}

func newAllocator(seed int64) *allocator {
	return &allocator{
		rng:   netsim.Stream(seed, "cloud-allocator"),
		used:  map[wire.Addr]bool{},
		slash: map[string]wire.Block{},
	}
}

func (a *allocator) next(r Region) (wire.Addr, error) {
	key := r.Key()
	blk, ok := a.slash[key]
	if !ok {
		blk = a.pickSlash24(r)
		a.slash[key] = blk
	}
	for attempt := 0; attempt < 4096; attempt++ {
		ip := blk.Nth(1 + a.rng.Intn(254))
		if !a.used[ip] {
			a.used[ip] = true
			return ip, nil
		}
		// A dense region (e.g. the HE /24) may exhaust its /24: chain
		// to the following /24.
		if attempt == 2047 {
			blk = wire.Block{Base: blk.Base + 256, Bits: 24}
			a.slash[key] = blk
		}
	}
	return 0, fmt.Errorf("cloud: address pool exhausted for region %s", key)
}

func (a *allocator) pickSlash24(r Region) wire.Block {
	pool := Pool(r.Provider)
	n24 := pool.Size() / 256
	for {
		blk := wire.Block{Base: pool.Base + wire.Addr(a.rng.Intn(n24)*256), Bits: 24}
		if !a.used[blk.Base] {
			a.used[blk.Base] = true // reserve the .0 as a collision marker
			return blk
		}
	}
}
