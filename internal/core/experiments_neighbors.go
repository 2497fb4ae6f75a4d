package core

import (
	"fmt"
	"strings"
)

// Table2Cell is one (slice, characteristic) cell of Table 2: the share
// of neighborhoods whose identical services receive significantly
// different traffic, and the average effect size among the
// significantly-different pairs.
type Table2Cell struct {
	Slice                  ProtocolSlice
	Characteristic         Characteristic
	Neighborhoods          int     // neighborhoods with testable pairs (the n)
	DifferentNeighborhoods int     // neighborhoods with ≥1 significant pair
	FractionDifferent      float64 // DifferentNeighborhoods / Neighborhoods
	AvgPhi                 float64 // mean Cramér's V over significant pairs
	AvgMagnitude           string
}

// Table2Result reproduces Table 2 (and Table 12 when run on the 2020
// configuration): attacker discrimination between neighboring
// services.
type Table2Result struct {
	Year  int
	K     int // top-K width the families compared
	Cells []Table2Cell
}

// neighborhoodSlices lists the (slice, characteristics) groups of
// Table 2.
var neighborhoodSlices = []struct {
	slice ProtocolSlice
	chars []Characteristic
}{
	{SliceSSH22, []Characteristic{CharTopAS, CharFracMalicious, CharTopUsernames, CharTopPasswords}},
	{SliceTelnet23, []Characteristic{CharTopAS, CharFracMalicious, CharTopUsernames, CharTopPasswords}},
	{SliceHTTP80, []Characteristic{CharTopAS, CharFracMalicious, CharTopPayloads}},
	{SliceHTTPAll, []Characteristic{CharTopAS, CharFracMalicious, CharTopPayloads}},
}

// Table2 compares every pair of neighboring GreyNoise honeypots (same
// region, same network) on every §3.3 characteristic. Each (slice,
// characteristic) family runs through the batched comparison engine
// (family.go) in canonical region order.
func (s *Study) Table2() Table2Result { return s.Table2AtK(TopK) }

// Table2AtK is Table 2 with the top-K width as a parameter — the
// K-axis of the sweep engine. Families are memoized per K, and the
// per-(view, characteristic) ranked summaries are shared across every
// K, so sweeping K re-ranks nothing. Table2AtK(TopK) is exactly
// Table2 (same memo entries).
func (s *Study) Table2AtK(k int) Table2Result {
	res := Table2Result{Year: s.Cfg.Year, K: k}
	for _, group := range neighborhoodSlices {
		nbs := s.greyNoiseNeighborhoods(group.slice)
		pairs, labels, refs := neighborhoodPairs(nbs)
		for _, char := range group.chars {
			cell := Table2Cell{Slice: group.slice, Characteristic: char}
			fr := s.pairwiseFamily("neighborhood", group.slice, char, k, func() famJob {
				return famJob{sides: s.neighborhoodSides(nbs, char), pairs: pairs, labels: labels}
			})
			m := fr.fam.Comparisons()
			diffRegions := map[string]bool{}
			testableRegions := map[string]bool{}
			var phiSum float64
			var phiN int
			for idx, p := range fr.fam.Pairs {
				if !p.OK {
					continue
				}
				testableRegions[refs[idx]] = true
				if p.Result.Significant(Alpha, m) {
					diffRegions[refs[idx]] = true
					phiSum += p.Result.CramersV
					phiN++
				}
			}
			cell.Neighborhoods = len(testableRegions)
			cell.DifferentNeighborhoods = len(diffRegions)
			if cell.Neighborhoods > 0 {
				cell.FractionDifferent = float64(cell.DifferentNeighborhoods) / float64(cell.Neighborhoods)
			}
			if phiN > 0 {
				cell.AvgPhi = phiSum / float64(phiN)
				cell.AvgMagnitude = magnitudeLabel(cell.AvgPhi)
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res
}

// neighborhood is one GreyNoise region's per-honeypot views.
type neighborhood struct {
	region string
	views  []*View
}

// greyNoiseNeighborhoods builds the per-honeypot views of every
// GreyNoise region for one slice, keeping only honeypots with traffic
// in the slice and regions with at least one comparable pair, in
// canonical universe region order.
func (s *Study) greyNoiseNeighborhoods(slice ProtocolSlice) []neighborhood {
	var out []neighborhood
	for _, region := range s.U.Regions() {
		if strings.HasPrefix(region, "stanford:leak") {
			continue
		}
		targets := s.U.Region(region)
		var views []*View
		for _, t := range targets {
			if t.Collector.String() != "greynoise" {
				continue
			}
			v := s.VantageView(t.ID, slice)
			if v.Total > 0 {
				views = append(views, v)
			}
		}
		if len(views) >= 2 {
			out = append(out, neighborhood{region, views})
		}
	}
	return out
}

// neighborhoodPairs enumerates every within-region honeypot pair in
// canonical order, returning side-index pairs (into the flattened
// view list), labels, and the owning region per pair.
func neighborhoodPairs(nbs []neighborhood) (pairs [][2]int, labels, refs []string) {
	base := 0
	for _, nb := range nbs {
		for i := 0; i < len(nb.views); i++ {
			for j := i + 1; j < len(nb.views); j++ {
				pairs = append(pairs, [2]int{base + i, base + j})
				labels = append(labels, fmt.Sprintf("%s #%d vs #%d", nb.region, i, j))
				refs = append(refs, nb.region)
			}
		}
		base += len(nb.views)
	}
	return pairs, labels, refs
}

// neighborhoodSides flattens the neighborhoods' views into family
// sides, in the order neighborhoodPairs indexes them.
func (s *Study) neighborhoodSides(nbs []neighborhood, char Characteristic) []famSide {
	var views []*View
	for _, nb := range nbs {
		views = append(views, nb.views...)
	}
	return s.viewSides(views, char)
}

// magnitudeLabel buckets an average φ of a 2×k comparison for display;
// individual pair magnitudes are dof-aware (stats.Magnitude), but the
// table-level average uses the df*=1 scale as the paper's color coding
// does.
func magnitudeLabel(phi float64) string {
	switch {
	case phi >= 0.5:
		return "large"
	case phi >= 0.3:
		return "medium"
	case phi >= 0.1:
		return "small"
	default:
		return "none"
	}
}

// Render formats the result as Table 2's layout.
func (r Table2Result) Render() string {
	title := fmt.Sprintf("Table 2 (%d): attackers target neighboring services differently", r.Year)
	t := newTable(title, "Protocol", "Characteristic", "n", "% Neighborhoods different", "Avg phi")
	for _, c := range r.Cells {
		t.add(c.Slice.String(), labelAtK(c.Characteristic, r.K),
			fmt.Sprint(c.Neighborhoods), fmtPct(c.FractionDifferent),
			fmtPhi(c.AvgPhi, c.AvgMagnitude))
	}
	return t.String()
}
