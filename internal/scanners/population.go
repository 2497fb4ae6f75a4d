package scanners

import (
	"math/rand"
	"strconv"
	"strings"
	"time"

	"cloudwatch/internal/fingerprint"
	"cloudwatch/internal/netsim"
	"cloudwatch/internal/wire"
)

// Config parameterizes the actor population.
type Config struct {
	Seed  int64
	Year  int     // 2020, 2021 (also 0), or 2022: Appendix C variants
	Scale float64 // source-IP population multiplier; 0 means 1.0
	// Scenario selects the registered adversarial world the population
	// is built from (see scenario.go); "" means the baseline — the
	// paper's collection week.
	Scenario string
}

// scale applies the population multiplier. A negative Scale never
// reaches here: Validate rejects it before any builder runs, so the
// only zero-value fallback is Scale == 0 meaning 1.0.
func (c Config) scale(n int) int {
	s := c.Scale
	if s <= 0 {
		s = 1
	}
	v := int(float64(n)*s + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

// Population builds the full actor population of the study year. Every
// behavioral finding of the paper corresponds to one or more actors
// here; the analysis pipeline must re-derive the findings from the
// traffic these actors generate.
func Population(cfg Config) []*Actor {
	var actors []*Actor
	add := func(as []*Actor) { actors = append(actors, as...) }

	add(bulkResearch(cfg))
	add(miraiFamily(cfg))
	add(sshCampaigns(cfg))
	add(tsunami(cfg))
	add(httpCampaigns(cfg))
	add(narrowWebSweeps(cfg))
	add(unexpectedProtocol(cfg))
	add(miners(cfg))
	add(nmapTrio(cfg))
	add(telescopeSweeps(cfg))
	add(backgroundRadiation(cfg))
	add(eduLocal(cfg))
	add(portCampaigns(cfg))
	add(neighborLatchers(cfg))
	add(monitorLatchers(cfg))
	add(apacCountryActors(cfg))
	if cfg.Year == 2020 {
		add(year2020Anomalies(cfg))
	}
	return actors
}

func newActor(cfg Config, name string, asn int, benign bool, n int,
	gen func(a *Actor, ctx *Context, emit func(*netsim.Probe))) *Actor {
	as := netsim.MustAS(asn)
	return &Actor{
		Name:   name,
		AS:     as,
		Benign: benign,
		IPs:    SourceIPs(as, name, cfg.scale(n), cfg.Seed),
		Gen:    gen,
	}
}

// --- Research / search-engine scanners (benign, scan everything) -----------

func bulkResearch(cfg Config) []*Actor {
	protoPayload := func(rng *rand.Rand, port uint16) netsim.PayloadID {
		if p := fingerprint.Expected(port); p != fingerprint.Unknown {
			// Research scanners occasionally probe alternate protocols
			// on assigned ports; Censys is the paper's "leading benign
			// organization to find unexpected services".
			if port == 80 || port == 8080 {
				if rng.Float64() < 0.10 {
					return ProbeID(fingerprint.TLS)
				}
			}
			return ProbeID(p)
		}
		return ProbeID(fingerprint.HTTP)
	}
	mk := func(name string, asn int, n, perIP int, cover float64) *Actor {
		return newActor(cfg, name, asn, true, n, func(a *Actor, ctx *Context, emit func(*netsim.Probe)) {
			a.ScanServices(ctx, emit, ServiceScan{
				Ports:       []uint16{21, 22, 23, 25, 80, 443, 2222, 2323, 7547, 8080},
				Cover:       cover,
				MinAttempts: 1,
				Payload: func(rng *rand.Rand, t *netsim.Target) netsim.PayloadID {
					return protoPayload(rng, 0)
				},
			})
			a.ScanTelescope(ctx, emit, TelescopeScan{
				Ports: []uint16{21, 22, 23, 25, 80, 443, 2222, 2323, 7547, 8080},
				PerIP: perIP,
			})
		})
	}
	censys := mk("censys", 398324, 24, 8, 0.6)
	// Port-aware payloads need the destination port, so wire the
	// generator manually for censys/shodan.
	gen := func(a *Actor, ctx *Context, emit func(*netsim.Probe)) {
		ports := []uint16{21, 22, 23, 25, 80, 443, 2222, 2323, 7547, 8080}
		h := netsim.PooledStream(ctx.Seed, "bulk:"+a.Name)
		defer h.Release()
		rng := h.Rand
		// One probe variable for the whole sweep: emit receives its
		// address, per the no-retention contract (see Actor.Run).
		var p netsim.Probe
		for _, src := range a.IPs {
			for _, t := range ctx.U.ServiceTargets() {
				if rng.Float64() >= 0.6 {
					continue
				}
				for _, port := range ports {
					if !t.ListensOn(port) {
						continue
					}
					// Field stores, not a struct literal — see ScanServices.
					p.T = uniformTime(rng)
					p.Src = src
					p.ASN = a.AS.ASN
					p.Dst = t.IP
					p.Port = port
					p.Transport = wire.TCP
					p.Pay = protoPayload(rng, port)
					p.Creds = nil
					emit(&p)
				}
			}
		}
		a.ScanTelescope(ctx, emit, TelescopeScan{Ports: ports, PerIP: 8})
	}
	censys.Gen = gen
	shodan := newActor(cfg, "shodan", 10439, true, 12, gen)
	zgrab := newActor(cfg, "zgrab-research", 14061, true, 15, func(a *Actor, ctx *Context, emit func(*netsim.Probe)) {
		a.ScanServices(ctx, emit, ServiceScan{
			Ports: []uint16{22, 80, 443}, Cover: 0.5, MinAttempts: 1,
			Payload: func(rng *rand.Rand, t *netsim.Target) netsim.PayloadID {
				return researchHTTPIDs[rng.Intn(len(researchHTTPIDs))]
			},
		})
		a.ScanTelescope(ctx, emit, TelescopeScan{Ports: []uint16{22, 80, 443}, PerIP: 6})
	})
	return []*Actor{censys, shodan, zgrab}
}

// --- Mirai-style telnet botnets ---------------------------------------------

// miraiASNs hosts the telnet botnet population: consumer ISPs across
// every continent, which is why Telnet "does not discriminate against
// telescopes" (§5.2, ≥91% overlap).
var miraiASNs = []int{4134, 4837, 3462, 17974, 45899, 9829, 4766, 28573, 12389, 9121, 8452, 8151, 18403, 24560, 55836, 7922, 701, 3320}

func miraiFamily(cfg Config) []*Actor {
	var actors []*Actor
	for i, asn := range miraiASNs {
		scan2323 := i%2 == 0 // half the family sweeps 2323 on the darknet (Table 8: 53% overlap)
		name := "mirai-" + strconv.Itoa(asn)
		actors = append(actors, newActor(cfg, name, asn, false, 28, func(a *Actor, ctx *Context, emit func(*netsim.Probe)) {
			a.ScanServices(ctx, emit, ServiceScan{
				Ports: []uint16{23, 2323}, Cover: 0.30,
				MinAttempts: 1, MaxAttempts: 2,
				Creds: func(rng *rand.Rand, t *netsim.Target) []netsim.Credential {
					return a.pickCreds(rng, telnetUsersGlobal, 2, 5)
				},
				Payload: func(rng *rand.Rand, t *netsim.Target) netsim.PayloadID { return telnetCommandID },
			})
			telPorts := []uint16{23}
			if scan2323 {
				telPorts = append(telPorts, 2323)
			}
			a.ScanTelescope(ctx, emit, TelescopeScan{Ports: telPorts, PerIP: 22})
		}))
	}
	// The Australia-focused Huawei campaign (§5.1): "mother" and
	// "e8ehome" dominate the AWS Australia region.
	actors = append(actors, newActor(cfg, "mirai-huawei-au", 4837, false, 30, func(a *Actor, ctx *Context, emit func(*netsim.Probe)) {
		a.ScanServices(ctx, emit, ServiceScan{
			Ports: []uint16{23, 2323}, Cover: 0.85,
			Filter: func(t *netsim.Target) bool {
				return t.Network == "aws" && t.Geo.Country == "AU"
			},
			MinAttempts: 2, MaxAttempts: 4,
			Creds: func(rng *rand.Rand, t *netsim.Target) []netsim.Credential {
				return a.pickCreds(rng, telnetUsersHuaweiAU, 2, 4)
			},
		})
	}))
	return actors
}

// --- SSH bruteforce campaigns (telescope avoiders) ---------------------------

func sshCampaigns(cfg Config) []*Actor {
	var actors []*Actor
	mkSSH := func(name string, asn, n int, flavor string, cover float64,
		weight func(*netsim.Target) float64, telescopeSrcs int, telescopePerIP int) *Actor {
		creds := sshCreds(flavor)
		return newActor(cfg, name, asn, false, n, func(a *Actor, ctx *Context, emit func(*netsim.Probe)) {
			a.ScanServices(ctx, emit, ServiceScan{
				Ports: []uint16{22, 2222}, Cover: cover, Weight: weight,
				MinAttempts: 1, MaxAttempts: 3,
				Creds: func(rng *rand.Rand, t *netsim.Target) []netsim.Credential {
					return a.pickCreds(rng, creds, 1, 3)
				},
			})
			if telescopeSrcs > 0 {
				sub := *a
				if telescopeSrcs < len(a.IPs) {
					sub.IPs = a.IPs[:telescopeSrcs]
				}
				sub.ScanTelescope(ctx, emit, TelescopeScan{Ports: []uint16{22}, PerIP: telescopePerIP})
			}
		})
	}

	// Chinanet: in 2021 six times more unique scanners target the
	// education networks than the clouds; by 2022 the preference is
	// gone (§5.2). Only a sliver of its sources ever touch the
	// telescope ("2.5 times more unique scanners from Chinanet target
	// SSH/22 in our cloud and education honeypots compared to the
	// telescope").
	chinanetWeight := func(t *netsim.Target) float64 {
		if cfg.Year != 2022 && t.Kind == netsim.KindEducation {
			return 6.0
		}
		return 1.0
	}
	actors = append(actors,
		mkSSH("chinanet-ssh", 4134, 90, "root-heavy", 0.10, chinanetWeight, 9, 2),
		mkSSH("chinamobile-ssh", 56046, 40, "service-heavy", 0.35, nil, 0, 0),
		mkSSH("cogent-ssh", 174, 40, "cloud-heavy", 0.35, func(t *netsim.Target) float64 {
			if t.Kind == netsim.KindEducation {
				return 0.14 // seven times fewer than cloud (§5.2)
			}
			return 1.0
		}, 4, 1),
		mkSSH("ovh-ssh", 16276, 15, "user-heavy", 0.30, nil, 0, 0),
		mkSSH("hetzner-ssh", 24940, 15, "cloud-heavy", 0.30, nil, 2, 1),
		mkSSH("selectel-ssh", 49505, 12, "iot-heavy", 0.30, nil, 0, 0),
		mkSSH("colocrossing-ssh", 36352, 12, "root-heavy", 0.25, nil, 0, 0),
		mkSSH("tencent-ssh", 45090, 15, "service-heavy", 0.30, nil, 2, 1),
		mkSSH("alibaba-ssh", 37963, 14, "user-heavy", 0.25, nil, 0, 0),
	)
	return actors
}

// --- Tsunami: single-IP latch in the Hurricane Electric /24 ------------------

func tsunami(cfg Config) []*Actor {
	asns := []int{202425, 204428, 48693, 211252, 47890}
	var actors []*Actor
	for _, asn := range asns {
		actors = append(actors, newActor(cfg, "tsunami-"+strconv.Itoa(asn), asn, false, 40,
			func(a *Actor, ctx *Context, emit func(*netsim.Probe)) {
				victim := pickRegionVictim(ctx, "he:us-ohio", "tsunami")
				if victim == nil {
					return
				}
				a.ScanServices(ctx, emit, ServiceScan{
					Ports: []uint16{22}, Cover: 0.95,
					Filter:      func(t *netsim.Target) bool { return t == victim },
					MinAttempts: 2, MaxAttempts: 5,
					Creds: func(rng *rand.Rand, t *netsim.Target) []netsim.Credential {
						return a.pickCreds(rng, sshCreds("root-heavy"), 2, 4)
					},
				})
			}))
	}
	return actors
}

// pickRegionVictim deterministically selects one honeypot of a region
// — the "botnets latch on to individual targets" behavior (§4.4).
func pickRegionVictim(ctx *Context, region, salt string) *netsim.Target {
	targets := ctx.U.Region(region)
	if len(targets) == 0 {
		return nil
	}
	h := netsim.PooledStream(ctx.Seed, "victim:"+region+":"+salt)
	t := targets[h.Rand.Intn(len(targets))]
	h.Release()
	return t
}

// --- HTTP campaigns -----------------------------------------------------------

func httpCampaigns(cfg Config) []*Actor {
	var actors []*Actor

	// mixPayload picks a benign request most of the time; exploit
	// picks favor a per-target "campaign focus" (stable hash of the
	// target address), so identical neighboring services accumulate
	// different top payloads from the same campaign — the §4.1 payload
	// divergence without any shift in the AS distribution.
	mixPayload := func(exploits []netsim.PayloadID, exploitShare float64) func(*rand.Rand, *netsim.Target) netsim.PayloadID {
		return func(rng *rand.Rand, t *netsim.Target) netsim.PayloadID {
			if rng.Float64() < exploitShare {
				if rng.Float64() < 0.75 {
					return exploits[int(uint32(t.IP)>>3)%len(exploits)]
				}
				return exploits[rng.Intn(len(exploits))]
			}
			return benignHTTPIDs[rng.Intn(len(benignHTTPIDs))]
		}
	}

	// Broad web sweeps: hit clouds, EDUs, and the darknet alike —
	// ports 80/8080 show the highest telescope overlap after telnet
	// (73–80%, Table 8).
	actors = append(actors, newActor(cfg, "gafgyt-web", 202425, false, 40, func(a *Actor, ctx *Context, emit func(*netsim.Probe)) {
		a.ScanServices(ctx, emit, ServiceScan{
			Ports: []uint16{80, 8080}, Cover: 0.45, MinAttempts: 1, MaxAttempts: 2,
			Payload: mixPayload(HTTPExploitIDs("global"), 0.35),
		})
		a.ScanTelescope(ctx, emit, TelescopeScan{Ports: []uint16{80, 8080}, PerIP: 14, Pick: Avoid255(4)})
	}))
	// A vetted commercial crawler: pure benign GETs, which is most of
	// what HTTP/80 receives (§3.2: 75% of port-80 payloads carry no
	// exploit) and the benign share of Table 11.
	actors = append(actors, newActor(cfg, "web-crawl-baseline", 7922, true, 35, func(a *Actor, ctx *Context, emit func(*netsim.Probe)) {
		a.ScanServices(ctx, emit, ServiceScan{
			Ports: []uint16{80, 8080, 443}, Cover: 0.55, MinAttempts: 1, MaxAttempts: 2,
			Payload: mixPayload(HTTPExploitIDs("global"), 0),
		})
		a.ScanTelescope(ctx, emit, TelescopeScan{Ports: []uint16{80, 8080}, PerIP: 12, Pick: Avoid255(4)})
	}))
	// Censys probes alternate protocols on assigned ports: the benign
	// slice of Table 11's ∼HTTP rows.
	actors = append(actors, newActor(cfg, "censys-altproto", 398324, true, 8, func(a *Actor, ctx *Context, emit func(*netsim.Probe)) {
		a.ScanServices(ctx, emit, ServiceScan{
			Ports: []uint16{80, 8080}, Cover: 0.7, MinAttempts: 1, MaxAttempts: 2,
			Payload: func(rng *rand.Rand, t *netsim.Target) netsim.PayloadID {
				return ProbeID(fingerprint.TLS)
			},
		})
	}))
	actors = append(actors, newActor(cfg, "log4shell-campaign", 204428, false, 18, func(a *Actor, ctx *Context, emit func(*netsim.Probe)) {
		a.ScanServices(ctx, emit, ServiceScan{
			Ports: []uint16{80, 8080}, Cover: 0.5, MinAttempts: 1,
			Payload: mixPayload(HTTPExploitIDs("cloud-api"), 0.8),
		})
		a.ScanTelescope(ctx, emit, TelescopeScan{Ports: []uint16{80}, PerIP: 10, Pick: Avoid255(4)})
	}))

	// Asia-Pacific IoT exploit wave: its regional payload mix is what
	// Table 4/5's APAC HTTP-payload divergence measures.
	actors = append(actors, newActor(cfg, "iot-apac-web", 45899, false, 35, func(a *Actor, ctx *Context, emit func(*netsim.Probe)) {
		a.ScanServices(ctx, emit, ServiceScan{
			Ports: []uint16{80, 8080}, Cover: 0.30,
			Weight: func(t *netsim.Target) float64 {
				if t.Geo.Continent == "APAC" {
					return 2.6
				}
				return 0.4
			},
			MinAttempts: 1, MaxAttempts: 2,
			Payload: mixPayload(HTTPExploitIDs("iot-apac"), 0.7),
		})
		a.ScanTelescope(ctx, emit, TelescopeScan{Ports: []uint16{80, 8080}, PerIP: 8, Pick: Avoid255(4)})
	}))

	// Emirates Internet POSTs only toward Mumbai (§5.1).
	actors = append(actors, newActor(cfg, "emirates-mumbai", 5384, false, 10, func(a *Actor, ctx *Context, emit func(*netsim.Probe)) {
		a.ScanServices(ctx, emit, ServiceScan{
			Ports: []uint16{80}, Cover: 0.9,
			Filter: func(t *netsim.Target) bool {
				return t.Geo.Country == "IN" && t.Geo.City == "BOM"
			},
			MinAttempts: 2, MaxAttempts: 4,
			Payload: func(rng *rand.Rand, t *netsim.Target) netsim.PayloadID { return exploitPostLogID },
		})
	}))
	// SATNET targets everything except Mumbai (§5.1).
	actors = append(actors, newActor(cfg, "satnet-not-mumbai", 14522, false, 12, func(a *Actor, ctx *Context, emit func(*netsim.Probe)) {
		a.ScanServices(ctx, emit, ServiceScan{
			Ports: []uint16{80, 8080}, Cover: 0.45,
			Filter: func(t *netsim.Target) bool {
				return !(t.Geo.Country == "IN" && t.Geo.City == "BOM")
			},
			MinAttempts: 1,
			Payload:     mixPayload(HTTPExploitIDs("global"), 0.2),
		})
	}))

	// Android-emulator commands concentrated on AWS Frankfurt (§5.1).
	actors = append(actors, newActor(cfg, "android-frankfurt", 3320, false, 12, func(a *Actor, ctx *Context, emit func(*netsim.Probe)) {
		a.ScanServices(ctx, emit, ServiceScan{
			Ports: []uint16{80, 8080}, Cover: 0.25,
			Weight: func(t *netsim.Target) float64 {
				if t.Region == "aws:eu-frankfurt" {
					return 8
				}
				return 0.3
			},
			MinAttempts: 1, MaxAttempts: 2,
			Payload: func(rng *rand.Rand, t *netsim.Target) netsim.PayloadID { return exploitAndroidID },
		})
	}))
	// Extra telnet volume into AWS Paris (§5.1).
	actors = append(actors, newActor(cfg, "paris-telnet", 12389, false, 15, func(a *Actor, ctx *Context, emit func(*netsim.Probe)) {
		a.ScanServices(ctx, emit, ServiceScan{
			Ports: []uint16{23}, Cover: 0.30,
			Weight: func(t *netsim.Target) float64 {
				if t.Region == "aws:eu-paris" {
					return 5
				}
				return 0.5
			},
			MinAttempts: 1, MaxAttempts: 3,
			Creds: func(rng *rand.Rand, t *netsim.Target) []netsim.Credential {
				return a.pickCreds(rng, telnetUsersGlobal, 1, 3)
			},
		})
	}))
	return actors
}

// --- Unexpected-protocol scanners (§6 / Table 11) ----------------------------

func unexpectedProtocol(cfg Config) []*Actor {
	n := 45
	if cfg.Year == 2022 {
		// 2022 doubles the unexpected-protocol share (Table 17: 34%).
		n = 110
	}
	var weights []float64
	for _, p := range unexpectedProtocolProbes {
		weights = append(weights, p.Weight)
	}
	mk := func(name string, asn, count int) *Actor {
		return newActor(cfg, name, asn, false, count, func(a *Actor, ctx *Context, emit func(*netsim.Probe)) {
			a.ScanServices(ctx, emit, ServiceScan{
				Ports: []uint16{80, 8080}, Cover: 0.55, MinAttempts: 1, MaxAttempts: 2,
				Payload: func(rng *rand.Rand, t *netsim.Target) netsim.PayloadID {
					pick := unexpectedProtocolProbes[netsim.PickWeighted(rng, weights)]
					return ProbeID(pick.Proto)
				},
			})
			// These sources are also seen exploiting (GreyNoise labels
			// the majority of unexpected-protocol scanners malicious).
			a.ScanServices(ctx, emit, ServiceScan{
				Ports: []uint16{80}, Cover: 0.18, MinAttempts: 1,
				Payload: func(rng *rand.Rand, t *netsim.Target) netsim.PayloadID {
					g := HTTPExploitIDs("global")
					return g[rng.Intn(len(g))]
				},
			})
			a.ScanTelescope(ctx, emit, TelescopeScan{Ports: []uint16{80, 8080}, PerIP: 5, Pick: Avoid255(4)})
		})
	}
	return []*Actor{
		mk("cn-unexpected-4134", 4134, n*2/3),
		mk("cn-unexpected-9808", 9808, n/3),
	}
}

// --- Search-engine miners (§4.3 / Table 3) -----------------------------------

// minerScan bursts brute-force traffic at services indexed by one
// engine: the "spikes of traffic towards leaked services".
type minerSpec struct {
	name     string
	asn      int
	n        int
	engine   string // "censys", "shodan", or "history"
	port     uint16
	attempts [2]int
	payload  func(rng *rand.Rand) netsim.PayloadID
	creds    func(a *Actor, rng *rand.Rand) []netsim.Credential
}

func miners(cfg Config) []*Actor {
	extendedPw := []string{"123456", "password", "admin", "changeme", "qwerty", "letmein", "toor", "111111", "abc123"}
	sshMinerCreds := func(a *Actor, rng *rand.Rand) []netsim.Credential {
		n := 3 + rng.Intn(4)
		out := a.credAlloc(n)
		for i := 0; i < n; i++ {
			out = append(out, netsim.Credential{
				Username: []string{"root", "admin", "ubuntu"}[rng.Intn(3)],
				Password: extendedPw[rng.Intn(len(extendedPw))],
			})
		}
		return out
	}
	// Telnet miners mostly connect-and-probe; only a sliver of their
	// volume carries logins — Table 3's telnet rows pair a 72.6× "All"
	// fold with a mere 1.6× "Malicious" fold.
	telnetMinerCreds := func(a *Actor, rng *rand.Rand) []netsim.Credential {
		if rng.Float64() < 0.08 {
			return a.pickCreds(rng, telnetUsersGlobal, 1, 2)
		}
		return nil
	}
	// HTTP miners interleave reconnaissance GETs with exploitation:
	// the "All" fold exceeds the "Malicious" fold (7.7–17.2× vs
	// 4.0–7.3×).
	httpMinerPayload := func(rng *rand.Rand) netsim.PayloadID {
		if rng.Float64() < 0.62 {
			return benignHTTPIDs[rng.Intn(len(benignHTTPIDs))]
		}
		g := HTTPExploitIDs("post-login")
		if rng.Float64() < 0.4 {
			g = HTTPExploitIDs("global")
		}
		return g[rng.Intn(len(g))]
	}

	specs := []minerSpec{
		// HTTP miners rely more on Censys (4.0× malicious fold), but
		// Shodan's HTTP feed drives the biggest raw volume (15.7×).
		{"miner-http-censys", 16276, 22, "censys", 80, [2]int{18, 36}, httpMinerPayload, nil},
		{"miner-http-shodan", 24940, 30, "shodan", 80, [2]int{30, 55}, httpMinerPayload, nil},
		// SSH miners rely more heavily on Shodan (2.8×) and try ~3x
		// more unique passwords on leaked services.
		{"miner-ssh-shodan", 49505, 26, "shodan", 22, [2]int{10, 20}, nil, sshMinerCreds},
		{"miner-ssh-censys", 14061, 12, "censys", 22, [2]int{9, 16}, nil, sshMinerCreds},
		// Telnet miners: Censys-driven bursts are enormous (72.6×
		// traffic fold) while Shodan adds almost nothing (1.06×).
		{"miner-telnet-censys", 4837, 38, "censys", 23, [2]int{60, 120}, nil, telnetMinerCreds},
		{"miner-telnet-shodan", 9121, 4, "shodan", 23, [2]int{1, 2}, nil, telnetMinerCreds},
		// History miners work from stale index data: they are why
		// previously-leaked services still attract 17–201× more
		// traffic.
		{"miner-history-http", 36352, 26, "history", 80, [2]int{28, 55}, httpMinerPayload, nil},
		{"miner-history-telnet", 45090, 30, "history", 23, [2]int{140, 260}, nil, telnetMinerCreds},
		{"miner-history-ssh", 63949, 12, "history", 22, [2]int{4, 8}, nil, sshMinerCreds},
	}

	var actors []*Actor
	for _, sp := range specs {
		sp := sp
		actors = append(actors, newActor(cfg, sp.name, sp.asn, false, sp.n, func(a *Actor, ctx *Context, emit func(*netsim.Probe)) {
			indexed := func(t *netsim.Target) bool {
				switch sp.engine {
				case "censys":
					return ctx.Censys.Indexed(t.IP, sp.port)
				case "shodan":
					return ctx.Shodan.Indexed(t.IP, sp.port)
				default:
					return (ctx.Censys.Historical(t.IP) || ctx.Shodan.Historical(t.IP)) &&
						!ctx.Censys.Indexed(t.IP, sp.port) && !ctx.Shodan.Indexed(t.IP, sp.port)
				}
			}
			a.ScanServices(ctx, emit, ServiceScan{
				Ports:  []uint16{sp.port},
				Filter: func(t *netsim.Target) bool { return indexed(t) && t.ListensOn(sp.port) },
				Cover:  0.9,
				// Miners work through engine result lists; fleet
				// honeypots share /24s and soak proportionally less
				// per IP than the isolated leak-experiment hosts.
				Weight: func(t *netsim.Target) float64 {
					if strings.HasPrefix(t.Region, "stanford:leak") {
						return 1.0
					}
					return 0.015
				},
				MinAttempts: sp.attempts[0], MaxAttempts: sp.attempts[1],
				Payload: wrapPayload(sp.payload),
				Creds:   wrapCreds(a, sp.creds),
				Time:    burstClock(ctx, sp.name),
			})
		}))
	}
	return actors
}

func wrapPayload(f func(rng *rand.Rand) netsim.PayloadID) func(*rand.Rand, *netsim.Target) netsim.PayloadID {
	if f == nil {
		return nil
	}
	return func(rng *rand.Rand, t *netsim.Target) netsim.PayloadID { return f(rng) }
}

// wrapCreds binds a shared credential generator to the actor whose
// slab the generated slices draw from (generators are shared across a
// spec table; slabs must not be).
func wrapCreds(a *Actor, f func(a *Actor, rng *rand.Rand) []netsim.Credential) func(*rand.Rand, *netsim.Target) []netsim.Credential {
	if f == nil {
		return nil
	}
	return func(rng *rand.Rand, t *netsim.Target) []netsim.Credential { return f(a, rng) }
}

// burstClock produces spike-shaped timestamps: each miner condenses
// most of its traffic into a handful of short windows during the week
// ("spikes"), with a smaller steady re-scan component that keeps the
// leaked services' hourly volume stochastically above the control
// group's (the Mann-Whitney bold of Table 3).
func burstClock(ctx *Context, salt string) func(*rand.Rand) time.Time {
	wh := netsim.PooledStream(ctx.Seed, "burst:"+salt)
	var starts []time.Time
	for i := 0; i < 5; i++ {
		h := wh.Rand.Intn(netsim.StudyHours - 2)
		starts = append(starts, netsim.StudyStart.Add(time.Duration(h)*time.Hour))
	}
	wh.Release()
	return func(rng *rand.Rand) time.Time {
		if rng.Float64() < 0.35 {
			return uniformTime(rng)
		}
		return burstTime(rng, starts[rng.Intn(len(starts))], 90*time.Minute)
	}
}

// --- nmap trio (§4.3): Censys-fed scanners that skip indexed hosts -----------

func nmapTrio(cfg Config) []*Actor {
	specs := []struct {
		name string
		asn  int
	}{
		{"nmap-avast", 198605}, {"nmap-m247", 9009}, {"nmap-cdn77", 60068},
	}
	var actors []*Actor
	for _, sp := range specs {
		actors = append(actors, newActor(cfg, sp.name, sp.asn, false, 10, func(a *Actor, ctx *Context, emit func(*netsim.Probe)) {
			a.ScanServices(ctx, emit, ServiceScan{
				Ports: []uint16{80},
				// "They actively avoid all Censys-leaked HTTP/80
				// honeypots ... the nmap scanners also target the
				// previously leaked honeypots" — up-to-date Censys
				// data only.
				Filter: func(t *netsim.Target) bool {
					return t.ListensOn(80) && !ctx.Censys.Indexed(t.IP, 80)
				},
				Cover: 0.8, MinAttempts: 1, MaxAttempts: 2,
				Payload: func(rng *rand.Rand, t *netsim.Target) netsim.PayloadID {
					return nmapHTTPIDs[rng.Intn(len(nmapHTTPIDs))]
				},
			})
		}))
	}
	return actors
}

// --- Structure-biased telescope sweeps (§4.2 / Figure 1) ----------------------

func telescopeSweeps(cfg Config) []*Actor {
	return []*Actor{
		// Port 445: avoid any 255 octet, 9×; broadcast-style .255
		// hardest hit (Figure 1b).
		newActor(cfg, "smb445-sweep", 12389, false, 40, func(a *Actor, ctx *Context, emit func(*netsim.Probe)) {
			a.ScanTelescope(ctx, emit, TelescopeScan{Ports: []uint16{445}, PerIP: 40, Pick: Avoid255(9)})
		}),
		// Oracle 7574: 61× avoidance.
		newActor(cfg, "oracle7574-sweep", 9121, false, 12, func(a *Actor, ctx *Context, emit func(*netsim.Probe)) {
			a.ScanTelescope(ctx, emit, TelescopeScan{Ports: []uint16{7574}, PerIP: 30, Pick: Avoid255(61)})
		}),
		// Port 22: Mirai + PonyNet prefer the first address of each
		// /16 (Figure 1a).
		newActor(cfg, "mirai-ssh-telescope", 4837, false, 40, func(a *Actor, ctx *Context, emit func(*netsim.Probe)) {
			// The paper measures a ~10x preference for /16-start
			// addresses at Orion's scale (475K IPs, millions of
			// probes); our probe volume is ~1000x smaller, so the
			// per-pick multiplier is raised to keep the preference
			// visible above Poisson noise in the per-address counts.
			a.ScanTelescope(ctx, emit, TelescopeScan{Ports: []uint16{22}, PerIP: 25, Pick: PreferSlash16Start(300)})
			// A small service-side footprint keeps the SSH overlap
			// with the cloud nonzero but low (Table 9: ≤7.5%).
			a.ScanServices(ctx, emit, ServiceScan{
				Ports: []uint16{22}, Cover: 0.04, MinAttempts: 1,
				Creds: func(rng *rand.Rand, t *netsim.Target) []netsim.Credential {
					return a.pickCreds(rng, sshCreds("iot-heavy"), 1, 2)
				},
			})
		}),
		newActor(cfg, "ponynet-ssh-telescope", 53667, false, 20, func(a *Actor, ctx *Context, emit func(*netsim.Probe)) {
			a.ScanTelescope(ctx, emit, TelescopeScan{Ports: []uint16{22}, PerIP: 25, Pick: PreferSlash16Start(300)})
		}),
		// Port 17128: a botnet latched onto four addresses (Figure 1d).
		newActor(cfg, "port17128-botnet", 17974, false, 80, func(a *Actor, ctx *Context, emit func(*netsim.Probe)) {
			// Offsets correspond to x.A.91.247, x.A.26.55, x.B.92.113,
			// x.B.25.177 at full /16 granularity.
			offsets := []int{91*256 + 247, 26*256 + 55, 65536 + 92*256 + 113, 65536 + 25*256 + 177}
			a.ScanTelescope(ctx, emit, TelescopeScan{Ports: []uint16{17128}, PerIP: 35, Pick: FixedTelescopeSet(offsets)})
		}),
		// Darknet-only telnet botnets: the reason the telescope's
		// telnet AS mix differs from the clouds' with a large effect
		// size (Table 10: φ=0.82) even though telnet scanners do not
		// avoid the darknet.
		newActor(cfg, "darknet-telnet-9009", 9009, false, 150, func(a *Actor, ctx *Context, emit func(*netsim.Probe)) {
			a.ScanTelescope(ctx, emit, TelescopeScan{Ports: []uint16{23}, PerIP: 40})
		}),
		newActor(cfg, "darknet-telnet-60068", 60068, false, 120, func(a *Actor, ctx *Context, emit func(*netsim.Probe)) {
			a.ScanTelescope(ctx, emit, TelescopeScan{Ports: []uint16{23, 2323}, PerIP: 35})
		}),
	}
}

// --- Education-local scanners -------------------------------------------------

// eduLocal raises the EDU↔telescope overlap above the cloud's: "Merit
// and Orion being located in the same autonomous system" (§5.2).
func eduLocal(cfg Config) []*Actor {
	return []*Actor{
		newActor(cfg, "edu-telescope-scan", 701, false, 120, func(a *Actor, ctx *Context, emit func(*netsim.Probe)) {
			a.ScanServices(ctx, emit, ServiceScan{
				Ports:  []uint16{21, 22, 25, 443, 2222, 7547},
				Filter: func(t *netsim.Target) bool { return t.Kind == netsim.KindEducation },
				Cover:  0.5, MinAttempts: 1,
				Creds: func(rng *rand.Rand, t *netsim.Target) []netsim.Credential {
					return a.pickCreds(rng, sshCreds("user-heavy"), 1, 2)
				},
			})
			a.ScanTelescope(ctx, emit, TelescopeScan{Ports: []uint16{21, 22, 25, 443, 2222, 7547}, PerIP: 12})
		}),
	}
}

// --- FTP/SMTP/TR-069/HTTPS campaigns (Table 8's mid-range overlaps) -----------

func portCampaigns(cfg Config) []*Actor {
	mk := func(name string, asn, n int, port uint16, telescopeSrcFrac float64, perIP int) *Actor {
		return newActor(cfg, name, asn, false, n, func(a *Actor, ctx *Context, emit func(*netsim.Probe)) {
			a.ScanServices(ctx, emit, ServiceScan{
				Ports: []uint16{port}, Cover: 0.5, MinAttempts: 1, MaxAttempts: 2,
				Payload: func(rng *rand.Rand, t *netsim.Target) netsim.PayloadID {
					if port == 443 {
						return ProbeID(fingerprint.TLS)
					}
					return 0
				},
			})
			k := int(float64(len(a.IPs)) * telescopeSrcFrac)
			if k > 0 {
				sub := *a
				sub.IPs = a.IPs[:k]
				sub.ScanTelescope(ctx, emit, TelescopeScan{Ports: []uint16{port}, PerIP: perIP})
			}
		})
	}
	return []*Actor{
		mk("ftp-brute", 8151, 80, 21, 0.10, 4),
		mk("smtp-scan", 28573, 80, 25, 0.06, 4),
		mk("tr069-scan", 17974, 90, 7547, 0.12, 5),
		mk("https-scan", 3462, 90, 443, 0.12, 5),
	}
}

// --- Neighborhood latchers (§4.1 / Table 2) -----------------------------------

// neighborLatchers create the per-IP preferences that make neighboring
// identical services receive significantly different traffic: for a
// deterministic subset of regions, a campaign floods exactly one of
// the region's honeypots.
func neighborLatchers(cfg Config) []*Actor {
	latchASNs := []int{6503, 8452, 17974, 45899, 9829, 131090, 55836, 24560, 18403, 4766, 28573, 12389}
	regions := greyNoiseRegionKeys()
	rng := netsim.Stream(cfg.Seed, "latch-plan")
	var actors []*Actor
	for i, region := range regions {
		region := region
		apac := isAPACRegion(region)
		kinds := []struct {
			kind string
			prob float64
		}{
			{"ssh", 0.42},
			{"telnet", 0.26},
			{"http", 0.30},
		}
		for _, k := range kinds {
			p := k.prob
			if apac {
				p += 0.25 // APAC regions attract more targeted campaigns (§5.1)
			}
			if rng.Float64() >= p {
				continue
			}
			k := k
			asn := latchASNs[(i+len(actors))%len(latchASNs)]
			name := "latch-" + k.kind + "-" + region
			flavor := sshUserListKeys[rng.Intn(len(sshUserListKeys))]
			vendorDict := telnetVendorDicts[rng.Intn(len(telnetVendorDicts))]
			// A small share of SSH campaigns carry an unusual password
			// list; most share the global set (Table 2: SSH passwords
			// differ in only 4% of neighborhoods).
			altPass := rng.Float64() < 0.10
			actors = append(actors, newActor(cfg, name, asn, false, 9, func(a *Actor, ctx *Context, emit func(*netsim.Probe)) {
				victim := pickRegionVictim(ctx, region, k.kind)
				if victim == nil {
					return
				}
				only := func(t *netsim.Target) bool { return t == victim }
				switch k.kind {
				case "ssh":
					creds := sshCreds(flavor)
					if altPass {
						creds = append(append([]netsim.Credential{}, sshAltPasswords...), sshAltPasswords...)
					}
					a.ScanServices(ctx, emit, ServiceScan{
						Ports: []uint16{22}, Cover: 0.9, Filter: only,
						MinAttempts: 2, MaxAttempts: 5,
						Creds: func(rng *rand.Rand, t *netsim.Target) []netsim.Credential {
							return a.pickCreds(rng, creds, 2, 4)
						},
					})
				case "telnet":
					a.ScanServices(ctx, emit, ServiceScan{
						Ports: []uint16{23}, Cover: 0.9, Filter: only,
						MinAttempts: 5, MaxAttempts: 10,
						Creds: func(rng *rand.Rand, t *netsim.Target) []netsim.Credential {
							return a.pickCreds(rng, vendorDict, 2, 3)
						},
					})
					// Telnet campaigns are botnet-driven and do not
					// avoid unused address space (§5.2).
					a.ScanTelescope(ctx, emit, TelescopeScan{Ports: []uint16{23}, PerIP: 6})
				case "http":
					a.ScanServices(ctx, emit, ServiceScan{
						Ports: []uint16{80, 8080}, Cover: 0.9, Filter: only,
						MinAttempts: 3, MaxAttempts: 6,
						Payload: func(rng *rand.Rand, t *netsim.Target) netsim.PayloadID {
							g := HTTPExploitIDs("post-login")
							return g[rng.Intn(len(g))]
						},
					})
				}
			}))
		}
	}
	return actors
}

// --- APAC country-affinity campaigns (§5.1 / Tables 4, 5) ---------------------

// apacCountryActors give each Asia-Pacific country a campaign with its
// own credential and payload flavor, so APAC region *pairs* diverge
// while US/EU pairs (which share the global actor mix) stay similar.
func apacCountryActors(cfg Config) []*Actor {
	countries := []struct {
		cc     string
		asn    int
		flavor string
	}{
		{"SG", 131090, "service-heavy"},
		{"JP", 4766, "cloud-heavy"},
		{"KR", 4766, "root-heavy"},
		{"HK", 4837, "iot-heavy"},
		{"IN", 9829, "user-heavy"},
		{"ID", 17974, "iot-heavy"},
		{"AU", 1221, "cloud-heavy"},
		{"TW", 3462, "service-heavy"},
	}
	var actors []*Actor
	for i, c := range countries {
		c := c
		exploitGroup := "iot-apac"
		if i%2 == 0 {
			exploitGroup = "global"
		}
		actors = append(actors, newActor(cfg, "apac-"+c.cc, c.asn, false, 20, func(a *Actor, ctx *Context, emit func(*netsim.Probe)) {
			inCountry := func(t *netsim.Target) bool { return t.Geo.Country == c.cc }
			a.ScanServices(ctx, emit, ServiceScan{
				Ports: []uint16{22}, Cover: 0.55, Filter: inCountry,
				MinAttempts: 1, MaxAttempts: 3,
				Creds: func(rng *rand.Rand, t *netsim.Target) []netsim.Credential {
					return a.pickCreds(rng, sshCreds(c.flavor), 1, 3)
				},
			})
			a.ScanServices(ctx, emit, ServiceScan{
				Ports: []uint16{80, 8080}, Cover: 0.5, Filter: inCountry,
				MinAttempts: 1, MaxAttempts: 2,
				Payload: func(rng *rand.Rand, t *netsim.Target) netsim.PayloadID {
					g := HTTPExploitIDs(exploitGroup)
					return g[rng.Intn(len(g))]
				},
			})
			a.ScanTelescope(ctx, emit, TelescopeScan{Ports: []uint16{80, 8080}, PerIP: 3, Pick: Avoid255(4)})
		}))
	}
	return actors
}

// --- 2020 anomalies (Appendix C) ----------------------------------------------

// year2020Anomalies adds the one-off campaigns that made 2020's US/EU
// SSH comparisons noisier (Appendix C.3) and neighborhood SSH AS
// differences more common (Table 12: 73%).
func year2020Anomalies(cfg Config) []*Actor {
	regions := []string{"aws:us-oregon", "aws:eu-paris", "google:us-iowa", "google:eu-london", "linode:us-newyork", "google:eu-belgium"}
	var actors []*Actor
	for i, region := range regions {
		region := region
		asn := []int{12389, 49505, 202425}[i%3]
		actors = append(actors, newActor(cfg, "anomaly2020-"+region, asn, false, 20, func(a *Actor, ctx *Context, emit func(*netsim.Probe)) {
			victim := pickRegionVictim(ctx, region, "2020")
			if victim == nil {
				return
			}
			a.ScanServices(ctx, emit, ServiceScan{
				Ports: []uint16{22}, Cover: 0.9,
				Filter:      func(t *netsim.Target) bool { return t == victim },
				MinAttempts: 3, MaxAttempts: 6,
				Creds: func(rng *rand.Rand, t *netsim.Target) []netsim.Credential {
					return a.pickCreds(rng, sshCreds("service-heavy"), 2, 4)
				},
			})
		}))
	}
	return actors
}

// --- shared helpers -----------------------------------------------------------

func (a *Actor) pickCreds(rng *rand.Rand, dict []netsim.Credential, minN, maxN int) []netsim.Credential {
	n := minN
	if maxN > minN {
		n += rng.Intn(maxN - minN + 1)
	}
	if n > len(dict) {
		n = len(dict)
	}
	// The returned (record-retained) slice comes from the actor's
	// credential slab, so a cred-carrying probe costs no allocation of
	// its own; every dictionary fits in a word, so the seen-set is a
	// bitmask. The draw sequence is identical to the historical
	// map-based rejection loop.
	out := a.credAlloc(n)
	var seen uint64
	var seenBig map[int]bool
	if len(dict) > 64 {
		seenBig = map[int]bool{}
	}
	for len(out) < n {
		i := rng.Intn(len(dict))
		if seenBig != nil {
			if seenBig[i] {
				continue
			}
			seenBig[i] = true
		} else {
			if seen&(1<<i) != 0 {
				continue
			}
			seen |= 1 << i
		}
		out = append(out, dict[i])
	}
	return out
}

func rotateCreds(dict []netsim.Credential, offset int) []netsim.Credential {
	out := make([]netsim.Credential, len(dict))
	for i := range dict {
		out[i] = dict[(i+offset)%len(dict)]
	}
	return out
}

// greyNoiseRegionKeys mirrors cloud.GreyNoiseRegions without importing
// the package (scanners must stay independent of the deployment
// layout; region keys are part of the Target contract).
func greyNoiseRegionKeys() []string {
	return []string{
		"aws:us-oregon", "aws:us-california", "aws:us-georgia", "aws:sa-saopaulo",
		"aws:me-bahrain", "aws:eu-paris", "aws:eu-dublin", "aws:eu-frankfurt",
		"aws:ca-montreal", "aws:ap-sydney", "aws:ap-singapore", "aws:ap-mumbai",
		"aws:ap-seoul", "aws:ap-tokyo", "aws:ap-hongkong", "aws:af-capetown",
		"azure:us-texas", "azure:ap-singapore", "azure:ap-pune",
		"google:us-nevada", "google:us-utah", "google:us-california", "google:us-oregon",
		"google:us-virginia", "google:us-southcarolina", "google:us-iowa", "google:ca-quebec",
		"google:eu-zurich", "google:eu-netherlands", "google:eu-frankfurt", "google:eu-london",
		"google:eu-belgium", "google:eu-finland", "google:ap-sydney", "google:ap-jakarta",
		"google:ap-singapore", "google:ap-seoul", "google:ap-tokyo", "google:ap-hongkong",
		"google:ap-taiwan", "linode:us-california", "linode:us-newyork", "linode:eu-london",
		"linode:eu-frankfurt", "linode:ap-mumbai", "linode:ap-sydney", "linode:ap-singapore",
		"he:us-ohio",
	}
}

func isAPACRegion(key string) bool {
	for i := 0; i+3 <= len(key); i++ {
		if key[i:i+3] == ":ap" {
			return true
		}
	}
	return false
}
