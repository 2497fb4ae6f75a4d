package core

import (
	"fmt"
	"strings"

	"cloudwatch/internal/fingerprint"
	"cloudwatch/internal/netsim"
	"cloudwatch/internal/wire"
)

// Table11Row is one (port, expected/unexpected) breakdown of Table 11.
type Table11Row struct {
	Port          uint16
	Expected      bool    // true = the IANA protocol (HTTP), false = ∼HTTP
	Share         float64 // fraction of classifiable scanners
	BenignFrac    float64 // GreyNoise-benign share of those scanners
	MaliciousFrac float64 // GreyNoise-malicious share
	Scanners      int
	HasLabels     bool // false on 2022 data (no GreyNoise API labels, Table 17)
}

// Table11Result reproduces Table 11 (and Table 17 on the 2022 config):
// scanners target unexpected protocols on HTTP-assigned ports.
type Table11Result struct {
	Year      int
	Rows      []Table11Row
	ByProto   map[string]int // unexpected scanners per identified protocol (port 80+8080)
	TopBenign string         // leading benign AS among unexpected-protocol scanners
}

// Table11 fingerprints the first payloads received on ports 80/8080 by
// the three /26 Honeytrap networks (Stanford, AWS, Google — §6 uses
// exactly these) and classifies each scanner as targeting HTTP or an
// unexpected protocol, then labels scanners the way GreyNoise does:
// malicious if any of the study's records from the source is
// malicious (§3.2), else benign if a benign actor's AS owns it, else
// unknown.
func (s *Study) Table11() Table11Result {
	res := Table11Result{Year: s.Cfg.Year, ByProto: map[string]int{}}
	networks := map[string]bool{"stanford:us-west": true, "aws:ht-us-west": true, "google:ht-us-west": true}
	hasLabels := s.Cfg.Year != 2022

	type srcInfo struct {
		asn       int
		protos    map[fingerprint.Protocol]int
		anyKnown  bool
		exploited bool // some malicious record names the source
	}
	ports := []uint16{80, 8080}
	bySrc := make([]map[wire.Addr]*srcInfo, len(ports))
	for pi, port := range ports {
		srcs := map[wire.Addr]*srcInfo{}
		for vi, t := range s.U.Targets() {
			if !networks[t.Region] || t.Collector != netsim.CollectHoneytrap {
				continue
			}
			for _, ri := range s.byVantage[vi] {
				if s.blk.Port[ri] != port || s.blk.Pay[ri] == 0 {
					continue
				}
				src := s.blk.Src[ri]
				info, ok := srcs[src]
				if !ok {
					info = &srcInfo{asn: int(s.blk.ASN[ri]), protos: map[fingerprint.Protocol]int{}}
					srcs[src] = info
				}
				if proto := s.recProto(int(ri)); proto != fingerprint.Unknown {
					info.protos[proto]++
					info.anyKnown = true
				}
			}
		}
		bySrc[pi] = srcs
	}

	vetted := map[int]bool{}
	if hasLabels {
		// One pass over every record marks the candidates a malicious
		// record names. A source's records sit in runs, so once one is
		// malicious the rest of its run is skipped.
		var last wire.Addr
		lastOK := false
		for i := range s.blk.Len() {
			src := s.blk.Src[i]
			if (lastOK && src == last) || !s.malicious(i) {
				continue
			}
			last, lastOK = src, true
			for _, srcs := range bySrc {
				if info := srcs[src]; info != nil {
					info.exploited = true
				}
			}
		}
		for _, actor := range s.Actors {
			if actor.Benign {
				vetted[actor.AS.ASN] = true
			}
		}
	}

	benignByAS := map[string]int{}
	for pi, port := range ports {
		srcs := bySrc[pi]
		var expected, unexpected []wire.Addr
		for ip, info := range srcs {
			if !info.anyKnown {
				continue
			}
			// A scanner counts as ∼HTTP when its identified payloads
			// on the port are predominantly non-HTTP.
			http := info.protos[fingerprint.HTTP]
			domProto, other := dominantProtocol(info.protos)
			if other > http {
				unexpected = append(unexpected, ip)
				if port == 80 {
					res.ByProto[domProto.String()]++
				}
			} else {
				expected = append(expected, ip)
			}
		}

		classify := func(ips []wire.Addr, countFinders bool) (benign, malicious float64) {
			if !hasLabels || len(ips) == 0 {
				return 0, 0
			}
			b, m := 0, 0
			for _, ip := range ips {
				info := srcs[ip]
				switch {
				case info.exploited:
					m++
				case vetted[info.asn]:
					b++
					// "Finders of unexpected services" are tallied on
					// the ∼HTTP side only.
					if countFinders {
						if as, ok := netsim.LookupAS(info.asn); ok {
							benignByAS[as.Key()]++
						}
					}
				}
			}
			return float64(b) / float64(len(ips)), float64(m) / float64(len(ips))
		}

		total := len(expected) + len(unexpected)
		if total == 0 {
			continue
		}
		eb, em := classify(expected, false)
		ub, um := classify(unexpected, true)
		res.Rows = append(res.Rows,
			Table11Row{Port: port, Expected: true, Share: float64(len(expected)) / float64(total),
				BenignFrac: eb, MaliciousFrac: em, Scanners: len(expected), HasLabels: hasLabels},
			Table11Row{Port: port, Expected: false, Share: float64(len(unexpected)) / float64(total),
				BenignFrac: ub, MaliciousFrac: um, Scanners: len(unexpected), HasLabels: hasLabels},
		)
	}

	best, bestN := "", 0
	for as, n := range benignByAS {
		if n > bestN || (n == bestN && as < best) {
			best, bestN = as, n
		}
	}
	res.TopBenign = best
	return res
}

// dominantProtocol returns the most frequent non-HTTP protocol among a
// scanner's identified payloads, plus the count of all its non-HTTP
// payloads. Count ties go to the lower protocol value, so the pick
// never follows map iteration order.
func dominantProtocol(protos map[fingerprint.Protocol]int) (dom fingerprint.Protocol, other int) {
	domN := 0
	for proto, n := range protos {
		if proto == fingerprint.HTTP {
			continue
		}
		other += n
		if n > domN || (n == domN && proto < dom) {
			domN, dom = n, proto
		}
	}
	return dom, other
}

// Render formats Table 11 / Table 17.
func (r Table11Result) Render() string {
	name := "Table 11"
	if r.Year == 2022 {
		name = "Table 17 (2022, no GreyNoise labels)"
	}
	t := newTable(name+": scanner-targeted protocols on HTTP-assigned ports",
		"Protocol/Port", "Breakdown", "% Benign", "% Malicious", "Scanners")
	for _, row := range r.Rows {
		label := fmt.Sprintf("HTTP/%d", row.Port)
		if !row.Expected {
			label = fmt.Sprintf("~HTTP/%d", row.Port)
		}
		benign, malicious := "-", "-"
		if row.HasLabels {
			benign, malicious = fmtPct(row.BenignFrac), fmtPct(row.MaliciousFrac)
		}
		t.add(label, fmtPct(row.Share), benign, malicious, fmt.Sprint(row.Scanners))
	}
	out := t.String()
	if len(r.ByProto) > 0 {
		var parts []string
		for _, proto := range []string{"tls", "telnet", "mysql", "rtsp", "smb", "redis", "ssh"} {
			if n := r.ByProto[proto]; n > 0 {
				parts = append(parts, fmt.Sprintf("%s:%d", proto, n))
			}
		}
		out += "Unexpected protocols on port 80: " + strings.Join(parts, " ") + "\n"
	}
	if r.TopBenign != "" {
		out += "Leading benign finder of unexpected services: " + r.TopBenign + "\n"
	}
	return out
}
