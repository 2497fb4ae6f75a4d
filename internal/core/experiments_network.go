package core

import (
	"fmt"
	"slices"
	"strings"

	"cloudwatch/internal/cloud"
	"cloudwatch/internal/netsim"
	"cloudwatch/internal/stats"
	"cloudwatch/internal/wire"
)

// Table7Cell is one (comparison-kind, slice, characteristic) cell of
// Table 7.
type Table7Cell struct {
	Kind           string // "cloud-cloud", "cloud-edu", "edu-edu"
	Slice          ProtocolSlice
	Characteristic Characteristic
	Pairs          int
	Different      int
	AvgPhi         float64
	NotComputable  bool // the paper's "×" cells (credential characteristics on Honeytrap)
}

// Table7Result reproduces Table 7 (and Table 14 on mixed-year
// configs): differences across network types.
type Table7Result struct {
	Year  int
	K     int // top-K width the families compared
	Cells []Table7Cell
}

var table7Axes = []struct {
	slice ProtocolSlice
	chars []Characteristic
}{
	{SliceSSH22, []Characteristic{CharTopAS, CharTopUsernames, CharTopPasswords, CharFracMalicious}},
	{SliceTelnet23, []Characteristic{CharTopAS, CharTopUsernames, CharTopPasswords, CharFracMalicious}},
	{SliceHTTP80, []Characteristic{CharTopAS, CharTopPayloads, CharFracMalicious}},
	{SliceHTTPAll, []Characteristic{CharTopAS, CharTopPayloads, CharFracMalicious}},
}

// credChars cannot be computed on plain Honeytrap networks (no
// credential capture, SSH maliciousness invisible): Table 7/9's "×".
func credBased(char Characteristic, slice ProtocolSlice) bool {
	if char == CharTopUsernames || char == CharTopPasswords {
		return true
	}
	return char == CharFracMalicious && (slice == SliceSSH22 || slice == SliceTelnet23)
}

// table7Kind is one comparison column of Table 7: a named set of
// region pairs, flagged when its comparisons run on Honeytrap data
// (credential axes not computable).
type table7Kind struct {
	name      string
	pairs     [][2]string
	honeytrap bool
}

// table7Kinds lists Table 7's comparison columns: same-city cloud
// pairs, cloud vs education (Honeytrap fleets), education vs
// education.
func table7Kinds() []table7Kind {
	return []table7Kind{
		{"cloud-cloud", cloud.CloudCloudPairs(), false},
		{"cloud-edu", [][2]string{
			{"stanford:us-west", "aws:ht-us-west"},
			{"stanford:us-west", "google:ht-us-west"},
			{"merit:us-east", "google:ht-us-east"},
			{"merit:us-east", "aws:ht-us-west"},
		}, true},
		{"edu-edu", [][2]string{{"stanford:us-west", "merit:us-east"}}, true},
	}
}

// Table7 compares traffic across network types, each computable
// (kind, slice, characteristic) cell as one batched family.
func (s *Study) Table7() Table7Result { return s.Table7AtK(TopK) }

// Table7AtK is Table 7 with a parameterized top-K width (the sweep
// engine's K axis); Table7AtK(TopK) shares Table7's memo entries.
func (s *Study) Table7AtK(k int) Table7Result {
	res := Table7Result{Year: s.Cfg.Year, K: k}
	kinds := table7Kinds()

	for _, axis := range table7Axes {
		axis := axis
		for _, kind := range kinds {
			kind := kind
			for _, char := range axis.chars {
				char := char
				cell := Table7Cell{Kind: kind.name, Slice: axis.slice, Characteristic: char}
				if kind.honeytrap && credBased(char, axis.slice) {
					cell.NotComputable = true
					res.Cells = append(res.Cells, cell)
					continue
				}
				fr := s.pairwiseFamily("table7:"+kind.name, axis.slice, char, k, func() famJob {
					return regionPairJob(s, kind.pairs, char, func(region string) *View {
						return s.anyRegionGroupView(region, axis.slice)
					})
				})
				cell.Pairs = fr.fam.Comparisons()
				cell.Different = len(fr.fam.Significant())
				cell.AvgPhi = fr.fam.AvgSignificantV()
				res.Cells = append(res.Cells, cell)
			}
		}
	}
	return res
}

// anyRegionGroupView merges every vantage point of a region (any
// collector) with the median filter. The merged view is memoized per
// (region, slice) — Table 7 and Table 10 share them — and per-vantage
// view builds fan out across cores on the first request. Callers must
// treat the result as read-only.
func (s *Study) anyRegionGroupView(region string, slice ProtocolSlice) *View {
	return memoized(&s.views, viewCacheKey{kindRegionAny, region, slice}, func() *View {
		return GroupView(s.vantageViews(s.U.Region(region), slice))
	})
}

// Render formats Table 7.
func (r Table7Result) Render() string {
	title := fmt.Sprintf("Table 7 (%d): differences across network types (× = not computable on Honeytrap data)", r.Year)
	t := newTable(title, "Traffic", "Protocol", "Cloud-Cloud", "CC phi", "Cloud-EDU", "CE phi", "EDU-EDU")
	type key struct {
		slice ProtocolSlice
		char  Characteristic
	}
	cells := map[key]map[string]Table7Cell{}
	var order []key
	for _, c := range r.Cells {
		k := key{c.Slice, c.Characteristic}
		if cells[k] == nil {
			cells[k] = map[string]Table7Cell{}
			order = append(order, k)
		}
		cells[k][c.Kind] = c
	}
	fmtCell := func(c Table7Cell) []string {
		if c.NotComputable {
			return []string{"×", "×"}
		}
		return []string{fmt.Sprintf("%d/%d", c.Different, c.Pairs), fmtPhi(c.AvgPhi, magnitudeLabel(c.AvgPhi))}
	}
	for _, k := range order {
		row := []string{labelAtK(k.char, r.K), k.slice.String()}
		row = append(row, fmtCell(cells[k]["cloud-cloud"])...)
		row = append(row, fmtCell(cells[k]["cloud-edu"])...)
		ee := cells[k]["edu-edu"]
		if ee.NotComputable {
			row = append(row, "×")
		} else {
			row = append(row, fmt.Sprintf("%d/%d", ee.Different, ee.Pairs))
		}
		t.add(row...)
	}
	return t.String()
}

// Table8Row is one port's scanner-overlap measurement (Table 8).
type Table8Row struct {
	Port          uint16
	TelCloudFrac  float64 // |Tel ∩ Cloud| / |Cloud|
	TelEDUFrac    float64 // |Tel ∩ EDU| / |EDU|
	CloudEDUFrac  float64 // |Cloud ∩ EDU| / |Cloud|
	CloudScanners int
	EDUScanners   int
}

// Table8Result reproduces Table 8: scanners that target real services
// avoid telescopes.
type Table8Result struct {
	Rows []Table8Row
}

// Table8Ports are the ports of Table 8, in the paper's order.
var Table8Ports = []uint16{23, 2323, 80, 8080, 21, 2222, 25, 7547, 22, 443}

// Table8 computes per-port source-IP overlaps between the telescope,
// cloud networks, and education networks.
func (s *Study) Table8() Table8Result {
	var res Table8Result
	cloudSrcs := s.networkSources(Table8Ports, netsim.KindCloud, false)
	eduSrcs := s.networkSources(Table8Ports, netsim.KindEducation, false)
	for i, port := range Table8Ports {
		telSrcs := s.Tel.UniqueSources(port)
		res.Rows = append(res.Rows, Table8Row{
			Port:          port,
			TelCloudFrac:  overlapFrac(telSrcs, cloudSrcs[i], cloudSrcs[i]),
			TelEDUFrac:    overlapFrac(telSrcs, eduSrcs[i], eduSrcs[i]),
			CloudEDUFrac:  overlapFrac(cloudSrcs[i], eduSrcs[i], cloudSrcs[i]),
			CloudScanners: len(cloudSrcs[i]),
			EDUScanners:   len(eduSrcs[i]),
		})
	}
	return res
}

// networkSources collects, for each of ports, the (optionally
// malicious-only) source IPs seen on it across every vantage of a
// network kind, excluding the §4.3 experiment hosts. One pass over the
// kind's records fills every port's set; out[i] is ports[i]'s.
func (s *Study) networkSources(ports []uint16, kind netsim.NetworkKind, maliciousOnly bool) []map[wire.Addr]struct{} {
	out := make([]map[wire.Addr]struct{}, len(ports))
	for i := range out {
		out[i] = map[wire.Addr]struct{}{}
	}
	for vi, t := range s.U.Targets() {
		if t.Kind != kind || strings.HasPrefix(t.Region, "stanford:leak") {
			continue
		}
		for _, ri := range s.byVantage[vi] {
			if maliciousOnly && !s.malicious(int(ri)) {
				continue
			}
			if i := slices.Index(ports, s.blk.Port[ri]); i >= 0 {
				out[i][s.blk.Src[ri]] = struct{}{}
			}
		}
	}
	return out
}

// overlapFrac returns |a ∩ b| / |denom|.
func overlapFrac(a, b, denom map[wire.Addr]struct{}) float64 {
	if len(denom) == 0 {
		return 0
	}
	n := 0
	small, large := a, b
	if len(b) < len(a) {
		small, large = b, a
	}
	for ip := range small {
		if _, ok := large[ip]; ok {
			n++
		}
	}
	return float64(n) / float64(len(denom))
}

// Render formats Table 8.
func (r Table8Result) Render() string {
	t := newTable("Table 8: scanners avoid telescopes — source-IP overlap by port",
		"Port", "|Tel∩Cloud|/|Cloud|", "|Tel∩EDU|/|EDU|", "|Cloud∩EDU|/|Cloud|", "n(Cloud)", "n(EDU)")
	for _, row := range r.Rows {
		t.add(fmt.Sprint(row.Port), fmtPct(row.TelCloudFrac), fmtPct(row.TelEDUFrac),
			fmtPct(row.CloudEDUFrac), fmt.Sprint(row.CloudScanners), fmt.Sprint(row.EDUScanners))
	}
	return t.String()
}

// Table9Row is one port's attacker-overlap measurement (Table 9).
type Table9Row struct {
	Port          uint16
	TelCloudFrac  float64
	TelEDUFrac    float64
	EDUComputable bool // false renders the paper's "×"
	CloudAttacker int
}

// Table9Result reproduces Table 9: attackers (malicious sources)
// targeting SSH-assigned ports avoid telescopes.
type Table9Result struct {
	Rows []Table9Row
}

// Table9Ports are the ports of Table 9.
var Table9Ports = []uint16{23, 2323, 80, 8080, 2222, 22}

// table9EDUPorts are the Table 9 ports whose EDU cells are computable:
// HTTP, where maliciousness shows in payloads rather than credentials.
var table9EDUPorts = []uint16{80, 8080}

// Table9 computes per-port malicious-source overlaps with the
// telescope. Credential-based maliciousness is invisible on plain
// Honeytrap EDU networks, so those cells are marked not-computable.
func (s *Study) Table9() Table9Result {
	var res Table9Result
	cloudMal := s.networkSources(Table9Ports, netsim.KindCloud, true)
	eduMal := s.networkSources(table9EDUPorts, netsim.KindEducation, true)
	for i, port := range Table9Ports {
		telSrcs := s.Tel.UniqueSources(port)
		row := Table9Row{
			Port:          port,
			TelCloudFrac:  overlapFrac(telSrcs, cloudMal[i], cloudMal[i]),
			CloudAttacker: len(cloudMal[i]),
		}
		if j := slices.Index(table9EDUPorts, port); j >= 0 {
			row.TelEDUFrac = overlapFrac(telSrcs, eduMal[j], eduMal[j])
			row.EDUComputable = true
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Render formats Table 9.
func (r Table9Result) Render() string {
	t := newTable("Table 9: attackers targeting SSH-assigned ports avoid telescopes (malicious source overlap)",
		"Port", "|Tel∩Mal.Cloud|/|Mal.Cloud|", "|Tel∩Mal.EDU|/|Mal.EDU|", "n(Mal.Cloud)")
	for _, row := range r.Rows {
		edu := "×"
		if row.EDUComputable {
			edu = fmtPct(row.TelEDUFrac)
		}
		t.add(fmt.Sprint(row.Port), fmtPct(row.TelCloudFrac), edu, fmt.Sprint(row.CloudAttacker))
	}
	return t.String()
}

// Table10Cell is one (network-kind, slice) comparison of telescope
// scanning ASes against service networks (Table 10).
type Table10Cell struct {
	Kind      string // "telescope-edu" or "telescope-cloud"
	Slice     ProtocolSlice
	Networks  int
	Different int
	AvgPhi    float64
}

// Table10Result reproduces Table 10 (and Table 15 on the 2022 config).
type Table10Result struct {
	Year  int
	K     int // top-K width the families compared
	Cells []Table10Cell
}

// table10Kind is one network-kind column of Table 10.
type table10Kind struct {
	name    string
	regions []string
}

// table10Kinds lists the service networks compared against the
// telescope: the education networks and the US Honeytrap cloud
// deployments (keeping geography fixed).
func table10Kinds() []table10Kind {
	return []table10Kind{
		{"telescope-edu", []string{"stanford:us-west", "merit:us-east"}},
		{"telescope-cloud", []string{"aws:ht-us-west", "google:ht-us-west", "google:ht-us-east"}},
	}
}

// table10Slices are Table 10's protocol slices with the matching
// telescope AS-table port (0 = all ports).
var table10Slices = []struct {
	slice ProtocolSlice
	port  uint16
}{
	{SliceSSH22, 22},
	{SliceTelnet23, 23},
	{SliceHTTP80, 80},
	{SliceAnyAll, 0},
}

// table10Job builds one Table 10 family: the telescope's AS table is
// side 0 and each service network compares against it, so the
// family's pairs share one interned dictionary and one ranked
// telescope top-K.
func (s *Study) table10Job(kind table10Kind, slice ProtocolSlice, port uint16) famJob {
	telAS := s.Tel.ASFrequencies(port)
	if port == 0 {
		telAS = s.Tel.ASFrequenciesAll()
	}
	job := famJob{sides: []famSide{{sum: stats.Summarize(telAS)}}}
	for i, region := range kind.regions {
		view := s.anyRegionGroupView(region, slice)
		job.sides = append(job.sides, s.viewSide(view, CharTopAS))
		job.pairs = append(job.pairs, [2]int{0, i + 1})
		job.labels = append(job.labels, "tel vs "+region)
	}
	return job
}

// Table10 compares the top scanning ASes of the telescope against
// each education and cloud service network, one batched family per
// (kind, slice).
func (s *Study) Table10() Table10Result { return s.Table10AtK(TopK) }

// Table10AtK is Table 10 with a parameterized top-K width (the sweep
// engine's K axis); Table10AtK(TopK) shares Table10's memo entries.
func (s *Study) Table10AtK(k int) Table10Result {
	res := Table10Result{Year: s.Cfg.Year, K: k}
	for _, sl := range table10Slices {
		sl := sl
		for _, kind := range table10Kinds() {
			kind := kind
			fr := s.pairwiseFamily("table10:"+kind.name, sl.slice, CharTopAS, k, func() famJob {
				return s.table10Job(kind, sl.slice, sl.port)
			})
			res.Cells = append(res.Cells, Table10Cell{
				Kind:      kind.name,
				Slice:     sl.slice,
				Networks:  fr.fam.Comparisons(),
				Different: len(fr.fam.Significant()),
				AvgPhi:    fr.fam.AvgSignificantV(),
			})
		}
	}
	return res
}

// Render formats Table 10.
func (r Table10Result) Render() string {
	title := fmt.Sprintf("Table 10 (%d): different scanners target telescopes (top-%d AS comparisons)", r.Year, r.K)
	t := newTable(title, "Protocol", "Tel-EDU dif", "Tel-EDU phi", "Tel-Cloud dif", "Tel-Cloud phi")
	type row struct{ edu, cloud Table10Cell }
	rows := map[ProtocolSlice]*row{}
	var order []ProtocolSlice
	for _, c := range r.Cells {
		rw, ok := rows[c.Slice]
		if !ok {
			rw = &row{}
			rows[c.Slice] = rw
			order = append(order, c.Slice)
		}
		if c.Kind == "telescope-edu" {
			rw.edu = c
		} else {
			rw.cloud = c
		}
	}
	for _, sl := range order {
		rw := rows[sl]
		t.add(sl.String(),
			fmt.Sprintf("%d/%d", rw.edu.Different, rw.edu.Networks),
			fmtPhi(rw.edu.AvgPhi, magnitudeLabel(rw.edu.AvgPhi)),
			fmt.Sprintf("%d/%d", rw.cloud.Different, rw.cloud.Networks),
			fmtPhi(rw.cloud.AvgPhi, magnitudeLabel(rw.cloud.AvgPhi)))
	}
	return t.String()
}
