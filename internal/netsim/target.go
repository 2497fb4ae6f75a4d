package netsim

import (
	"sync"
	"time"

	"cloudwatch/internal/wire"
)

// NetworkKind distinguishes the three vantage-network categories of
// the paper: clouds and education networks host real services;
// telescopes are publicly known not to.
type NetworkKind int

// Network kinds.
const (
	KindCloud NetworkKind = iota
	KindEducation
	KindTelescope
)

// String names the kind.
func (k NetworkKind) String() string {
	switch k {
	case KindCloud:
		return "cloud"
	case KindEducation:
		return "education"
	case KindTelescope:
		return "telescope"
	default:
		return "unknown"
	}
}

// CollectorKind selects the collection method of a vantage point
// (§3.1, Table 1).
type CollectorKind int

// Collection methods.
const (
	// CollectGreyNoise: interactive SSH/Telnet credential capture
	// (Cowrie), TCP/TLS handshake + first payload elsewhere.
	CollectGreyNoise CollectorKind = iota
	// CollectHoneytrap: first TCP payload after handshake, first UDP
	// payload; no protocol interaction.
	CollectHoneytrap
	// CollectTelescope: first packet only, no handshake, no payloads.
	CollectTelescope
)

// String names the collection method.
func (c CollectorKind) String() string {
	switch c {
	case CollectGreyNoise:
		return "greynoise"
	case CollectHoneytrap:
		return "honeytrap"
	case CollectTelescope:
		return "telescope"
	default:
		return "unknown"
	}
}

// Geo locates a vantage point or region.
type Geo struct {
	Country   string // ISO code, e.g. "US", "SG"
	Sub       string // state/province for US/CA, else ""
	City      string // datacenter city label, e.g. "FRA"
	Continent string // "NA", "EU", "APAC", "OTHER"
}

// Label renders "US-CA" or "SG".
func (g Geo) Label() string {
	if g.Sub != "" {
		return g.Country + "-" + g.Sub
	}
	return g.Country
}

// Target is one monitored IP address (honeypot or telescope address)
// with the attributes actors use for target selection and the analysis
// uses for grouping.
type Target struct {
	ID        string // stable vantage identifier, e.g. "aws:ap-sydney:2"
	IP        wire.Addr
	Network   string // "aws", "google", "azure", "linode", "he", "stanford", "merit", "orion"
	Kind      NetworkKind
	Region    string // region key, e.g. "aws:ap-sydney"; groups neighborhoods
	Geo       Geo
	Collector CollectorKind
	Ports     []uint16 // listening ports; nil means all ports (telescope)

	// Search-engine service history (§4.3). Mutable during a study:
	// the engines' crawls flip the Indexed flags.
	IndexedCensys bool
	IndexedShodan bool
	PrevIndexed   bool // IP previously hosted an indexed service
	BlockSearch   bool // control group: Censys/Shodan blocked

	// Leak-experiment controls (§4.3, "leaked" group): exactly one
	// engine is allowed to discover exactly one service.
	LeakEngine string // "censys" or "shodan"; "" when not in the leaked group
	LeakPort   uint16 // the single port that engine may index

	// EmulateAuth marks Honeytrap targets that emulate SSH/Telnet/HTTP
	// services (the §4.3 experiment honeypots) and therefore capture
	// login credentials; plain Honeytrap deployments record first
	// payloads only.
	EmulateAuth bool

	// ports is the interned bitset over Ports, installed by NewUniverse
	// so the per-probe ListensOn checks in the scanners and collectors
	// are single bit tests instead of linear scans. nil (targets built
	// outside a universe) falls back to scanning Ports.
	ports *portSet
}

// portSet is a 65536-bit port membership set. Identical port lists
// share one set via the intern table below, so a fleet of thousands of
// same-shaped honeypots costs a handful of 8 KiB bitmaps.
type portSet [1024]uint64

func (ps *portSet) has(port uint16) bool {
	return ps[port>>6]&(1<<(port&63)) != 0
}

var portSets = struct {
	sync.Mutex
	m map[string]*portSet
}{m: map[string]*portSet{}}

// internPortSet returns the shared bitset of a port list (nil for a
// nil list — the telescope's "all ports" wildcard).
func internPortSet(ports []uint16) *portSet {
	if ports == nil {
		return nil
	}
	key := make([]byte, 0, 2*len(ports))
	for _, p := range ports {
		key = append(key, byte(p>>8), byte(p))
	}
	portSets.Lock()
	defer portSets.Unlock()
	if ps, ok := portSets.m[string(key)]; ok {
		return ps
	}
	ps := &portSet{}
	for _, p := range ports {
		ps[p>>6] |= 1 << (p & 63)
	}
	portSets.m[string(key)] = ps
	return ps
}

// ListensOn reports whether the target accepts connections on port.
// Telescope addresses "listen" on every port (they passively record
// all traffic).
func (t *Target) ListensOn(port uint16) bool {
	if t.ports != nil {
		return t.ports.has(port)
	}
	if t.Ports == nil {
		return true
	}
	for _, p := range t.Ports {
		if p == port {
			return true
		}
	}
	return false
}

// Indexed reports whether either search engine currently lists the
// target.
func (t *Target) Indexed() bool { return t.IndexedCensys || t.IndexedShodan }

// Credential is one username/password attempt against an interactive
// honeypot.
type Credential struct {
	Username string
	Password string
}

// Probe is one scanner packet arriving at a target: the unit of
// simulated traffic. For interactive protocols (SSH/Telnet) Creds
// carries the login attempts the actor would make if the collector
// completes the protocol handshake; collectors that don't interact
// simply never observe them.
//
// Payloads travel as interned ids: the scanner dictionaries register
// their corpora with the study-wide interner once and emitters set
// Pay, so the collection pipeline never hashes or copies payload
// bytes per probe. Raw emitters (tests, replayed captures) may set
// Payload instead; collectors intern it on first sight.
type Probe struct {
	T         time.Time
	Src       wire.Addr
	ASN       int
	Dst       wire.Addr
	Port      uint16
	Transport wire.Transport
	Pay       PayloadID
	Payload   []byte // raw fallback when the emitter has no id
	Creds     []Credential
}

// PayID resolves the probe's payload id, interning a raw Payload if
// the emitter did not carry one.
func (p *Probe) PayID() PayloadID {
	if p.Pay != 0 || len(p.Payload) == 0 {
		return p.Pay
	}
	return InternPayload(p.Payload)
}

// Record is a probe as observed by a collector: the collector decides
// which fields survive (telescopes drop payloads and credentials;
// GreyNoise drops payloads on interactive ports but keeps
// credentials).
//
// Record is the row-oriented compatibility view of the study's
// columnar storage (RecordBlock): the pipeline stores records as
// struct-of-arrays with interned payload ids and reconstructs Record
// values on demand. A reconstructed Record's Payload aliases the
// interner's immutable copy — never an actor dictionary or emitter
// buffer — so callers may hold it indefinitely; they must not mutate
// it. Pay is the interned payload id (0 when the record carries no
// payload, or when the record was built outside the simulator and
// never interned).
type Record struct {
	Vantage   string // Target.ID
	T         time.Time
	Src       wire.Addr
	ASN       int
	Port      uint16
	Transport wire.Transport
	Pay       PayloadID
	Payload   []byte       // nil when the collector does not capture payloads
	Creds     []Credential // non-nil only for interactive collectors
	Handshake bool         // whether the collector completed the TCP handshake
}

// StudyStart is the canonical collection start: July 1, 2021 00:00 UTC
// (§3.4: "data collected during the first week of July 2021").
var StudyStart = time.Date(2021, time.July, 1, 0, 0, 0, 0, time.UTC)

// StudyHours is the length of one collection window in hours (July
// 1–7).
const StudyHours = 7 * 24

// HourOf returns the zero-based study hour of a timestamp, clamped to
// [0, StudyHours-1]; the Table 3 traffic-per-hour series are built on
// it.
func HourOf(t time.Time) int {
	h := int(t.Sub(StudyStart).Hours())
	if h < 0 {
		return 0
	}
	if h >= StudyHours {
		return StudyHours - 1
	}
	return h
}
