package core

import (
	"fmt"
	"strings"

	"cloudwatch/internal/netsim"
)

// geoLabel renders a region's geography as the paper's tables do:
// "US-CA", "AP-SG", "EU-DE", "CA-TOR".
func geoLabel(g netsim.Geo) string {
	switch {
	case g.Country == "US":
		return "US-" + g.Sub
	case g.Continent == "APAC":
		return "AP-" + g.Country
	case g.Continent == "EU":
		return "EU-" + g.Country
	default:
		return g.Continent + "-" + g.Country
	}
}

// Table4Cell is one (provider, slice, characteristic) cell of Table 4:
// the region deviating most from its network siblings.
type Table4Cell struct {
	Provider         string
	Slice            ProtocolSlice
	Characteristic   Characteristic
	MostDiffRegion   string // geo label of the most-different region ("-" if none)
	AvgPhi           float64
	SignificantPairs int
}

// Table4Result reproduces Table 4 (and Table 16 on the 2020 config).
type Table4Result struct {
	Year  int
	K     int // top-K width the families compared
	Cells []Table4Cell
}

var table4Axes = []struct {
	slice ProtocolSlice
	chars []Characteristic
}{
	{SliceSSH22, []Characteristic{CharTopAS, CharTopUsernames, CharFracMalicious}},
	{SliceTelnet23, []Characteristic{CharTopAS, CharTopUsernames, CharTopPasswords, CharFracMalicious}},
	{SliceHTTP80, []Characteristic{CharTopAS, CharTopPayloads}},
	{SliceHTTPAll, []Characteristic{CharTopAS, CharTopPayloads, CharFracMalicious}},
}

// Table4 finds, per provider and characteristic, the geographic region
// whose traffic deviates most from the provider's other regions. Each
// provider's pair set is a contiguous slice of the shared same-network
// geography family (geoRegionFamily) — Table 5's pair set — so after
// either table runs, the other's comparisons are cache hits; the
// per-pair chi-squared results are independent of family composition
// (family_test proves batched == naive per pair), and the Bonferroni m
// is re-derived from the provider's own testable pairs, keeping the
// output byte-identical to the per-provider families this replaced.
func (s *Study) Table4() Table4Result { return s.Table4AtK(TopK) }

// Table4AtK is Table 4 with a parameterized top-K width (the sweep
// engine's K axis); Table4AtK(TopK) shares Table4's memo entries.
func (s *Study) Table4AtK(k int) Table4Result {
	res := Table4Result{Year: s.Cfg.Year, K: k}
	for _, provider := range []string{"aws", "google", "linode"} {
		for _, axis := range table4Axes {
			for _, char := range axis.chars {
				pairs, fr := s.geoRegionFamily(axis.slice, char, k)
				var idxs []int
				for idx, p := range pairs {
					if p.provider == provider {
						idxs = append(idxs, idx)
					}
				}
				// Bonferroni m over this provider's testable pairs only.
				m := 0
				for _, idx := range idxs {
					if fr.fam.Pairs[idx].OK {
						m++
					}
				}
				counts := map[string]int{}
				phiSum, phiN := 0.0, 0
				for _, idx := range idxs {
					p := fr.fam.Pairs[idx]
					if !p.OK || !p.Result.Significant(Alpha, m) {
						continue
					}
					counts[pairs[idx].a]++
					counts[pairs[idx].b]++
					phiSum += p.Result.CramersV
					phiN++
				}
				cell := Table4Cell{
					Provider: provider, Slice: axis.slice, Characteristic: char,
					MostDiffRegion: "-", SignificantPairs: phiN,
				}
				best, bestN := "", 0
				for region, n := range counts {
					if n > bestN || (n == bestN && region < best) {
						best, bestN = region, n
					}
				}
				if bestN > 0 {
					cell.MostDiffRegion = geoLabel(s.regionGeo(best))
					cell.AvgPhi = phiSum / float64(phiN)
				}
				res.Cells = append(res.Cells, cell)
			}
		}
	}
	return res
}

// geoRegionFamily returns the memoized same-network geography family
// for (slice, char): every same-provider region pair (geoRegionPairs)
// in canonical order, compared over the GreyNoise median group views.
// Table 4 and Table 5 share its (family, slice, characteristic, K)
// memo entries; each table subsets the pair list and re-derives its
// own Bonferroni m, which keeps both outputs byte-identical to the
// separate families this replaced (per-pair results are independent
// of family composition).
func (s *Study) geoRegionFamily(slice ProtocolSlice, char Characteristic, k int) ([]geoPair, *familyResult) {
	pairs := s.geoRegionPairs()
	fr := s.pairwiseFamily("georegions", slice, char, k, func() famJob {
		regionPairs := make([][2]string, len(pairs))
		for i, p := range pairs {
			regionPairs[i] = [2]string{p.a, p.b}
		}
		return regionPairJob(s, regionPairs, char, func(region string) *View {
			return s.regionGroupView(region, slice)
		})
	})
	return pairs, fr
}

// regionGroupView merges the GreyNoise views of one region with the
// §4.4 median filter. The merged view is memoized per (region, slice)
// — Table 4, Table 5, and the ablations share them — and per-vantage
// view builds fan out across cores on the first request. Callers must
// treat the result as read-only.
func (s *Study) regionGroupView(region string, slice ProtocolSlice) *View {
	return memoized(&s.views, viewCacheKey{kindRegionGreyNoise, region, slice}, func() *View {
		var targets []*netsim.Target
		for _, t := range s.U.Region(region) {
			if t.Collector != netsim.CollectGreyNoise {
				continue
			}
			targets = append(targets, t)
		}
		return GroupView(s.vantageViews(targets, slice))
	})
}

func (s *Study) regionGeo(region string) netsim.Geo {
	targets := s.U.Region(region)
	if len(targets) == 0 {
		return netsim.Geo{}
	}
	return targets[0].Geo
}

// Render formats Table 4.
func (r Table4Result) Render() string {
	title := fmt.Sprintf("Table 4 (%d): geographic regions with most different traffic patterns", r.Year)
	t := newTable(title, "Traffic", "Protocol", "AWS most-dif", "AWS phi", "Google most-dif", "Google phi", "Linode most-dif", "Linode phi")
	type key struct {
		slice ProtocolSlice
		char  Characteristic
	}
	cells := map[key]map[string]Table4Cell{}
	var order []key
	for _, c := range r.Cells {
		k := key{c.Slice, c.Characteristic}
		if cells[k] == nil {
			cells[k] = map[string]Table4Cell{}
			order = append(order, k)
		}
		cells[k][c.Provider] = c
	}
	for _, k := range order {
		row := []string{labelAtK(k.char, r.K), k.slice.String()}
		for _, p := range []string{"aws", "google", "linode"} {
			if c, ok := cells[k][p]; ok {
				row = append(row, c.MostDiffRegion, fmtPhi(c.AvgPhi, magnitudeLabel(c.AvgPhi)))
			} else {
				row = append(row, "-", "-")
			}
		}
		t.add(row...)
	}
	return t.String()
}

// Table5Cell is one (slice, characteristic, geo-group) cell of Table 5:
// the share of same-network region pairs with *similar* traffic.
type Table5Cell struct {
	Slice           ProtocolSlice
	Characteristic  Characteristic
	GeoGroup        string // "US", "EU", "APAC", "Intercontinental"
	Pairs           int
	SimilarFraction float64
}

// Table5Result reproduces Table 5 (and Table 13 on the 2020 config).
type Table5Result struct {
	Year  int
	K     int // top-K width the families compared
	Cells []Table5Cell
}

var table5Axes = []struct {
	slice ProtocolSlice
	chars []Characteristic
}{
	{SliceSSH22, []Characteristic{CharTopAS, CharFracMalicious, CharTopUsernames, CharTopPasswords}},
	{SliceTelnet23, []Characteristic{CharTopAS, CharFracMalicious, CharTopUsernames, CharTopPasswords}},
	{SliceHTTP80, []Characteristic{CharTopAS, CharFracMalicious, CharTopPayloads}},
	{SliceHTTPAll, []Characteristic{CharTopAS, CharFracMalicious, CharTopPayloads}},
}

// geoPair is one same-network region pair of the shared geography
// family: its provider, and its Table 5 geography group ("" for pairs
// Table 5 excludes — same non-grouped continent, e.g. both NA outside
// the US).
type geoPair struct {
	a, b     string
	provider string
	group    string
}

// geoRegionPairs enumerates every same-network pair of regions in
// canonical order (provider order, universe region order), annotated
// with the Table 5 geography group: both-US, both-EU, both-APAC,
// intercontinental, or "" when Table 5 drops the pair. Table 4 reads
// per-provider subsets, Table 5 the grouped subset, of the one shared
// comparison family built over this list. The list is derived from
// the immutable universe, so it is memoized per study (both tables
// consult it once per slice × characteristic). Callers must treat it
// as read-only.
func (s *Study) geoRegionPairs() []geoPair {
	s.geoPairsOnce.Do(func() { s.geoPairs = s.buildGeoRegionPairs() })
	return s.geoPairs
}

func (s *Study) buildGeoRegionPairs() []geoPair {
	var pairs []geoPair
	for _, provider := range []string{"aws", "google", "linode", "azure"} {
		var regions []string
		for _, region := range s.U.Regions() {
			if strings.HasPrefix(region, provider+":") {
				regions = append(regions, region)
			}
		}
		for i := 0; i < len(regions); i++ {
			for j := i + 1; j < len(regions); j++ {
				ga, gb := s.regionGeo(regions[i]), s.regionGeo(regions[j])
				group := ""
				switch {
				case ga.Country == "US" && gb.Country == "US":
					group = "US"
				case ga.Continent == "EU" && gb.Continent == "EU":
					group = "EU"
				case ga.Continent == "APAC" && gb.Continent == "APAC":
					group = "APAC"
				case ga.Continent != gb.Continent:
					group = "Intercontinental"
				}
				pairs = append(pairs, geoPair{regions[i], regions[j], provider, group})
			}
		}
	}
	return pairs
}

// Table5 compares every same-network pair of regions, grouped by
// geography, each (slice, characteristic) as one batched family —
// the shared geoRegionFamily Table 4 subsets.
func (s *Study) Table5() Table5Result { return s.Table5AtK(TopK) }

// Table5AtK is Table 5 with a parameterized top-K width (the sweep
// engine's K axis); Table5AtK(TopK) shares Table5's memo entries.
func (s *Study) Table5AtK(k int) Table5Result {
	res := Table5Result{Year: s.Cfg.Year, K: k}
	for _, axis := range table5Axes {
		for _, char := range axis.chars {
			pairs, fr := s.geoRegionFamily(axis.slice, char, k)
			// Bonferroni m over Table 5's own (geography-grouped)
			// testable pairs; the shared family also carries pairs only
			// Table 4 reads.
			m := 0
			for idx, pr := range fr.fam.Pairs {
				if pr.OK && pairs[idx].group != "" {
					m++
				}
			}
			similar := map[string]int{}
			total := map[string]int{}
			for idx, pr := range fr.fam.Pairs {
				if !pr.OK || pairs[idx].group == "" {
					continue
				}
				total[pairs[idx].group]++
				if !pr.Result.Significant(Alpha, m) {
					similar[pairs[idx].group]++
				}
			}
			for _, g := range []string{"US", "EU", "APAC", "Intercontinental"} {
				cell := Table5Cell{Slice: axis.slice, Characteristic: char, GeoGroup: g, Pairs: total[g]}
				if total[g] > 0 {
					cell.SimilarFraction = float64(similar[g]) / float64(total[g])
				}
				res.Cells = append(res.Cells, cell)
			}
		}
	}
	return res
}

// Render formats Table 5.
func (r Table5Result) Render() string {
	title := fmt.Sprintf("Table 5 (%d): %% similar pairs of regions in same network, by geography", r.Year)
	t := newTable(title, "Protocol", "Characteristic", "US", "EU", "APAC", "Intercontinental")
	type key struct {
		slice ProtocolSlice
		char  Characteristic
	}
	cells := map[key]map[string]Table5Cell{}
	var order []key
	for _, c := range r.Cells {
		k := key{c.Slice, c.Characteristic}
		if cells[k] == nil {
			cells[k] = map[string]Table5Cell{}
			order = append(order, k)
		}
		cells[k][c.GeoGroup] = c
	}
	for _, k := range order {
		row := []string{k.slice.String(), labelAtK(k.char, r.K)}
		for _, g := range []string{"US", "EU", "APAC", "Intercontinental"} {
			c := cells[k][g]
			if c.Pairs == 0 {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%s (n=%d)", fmtPct(c.SimilarFraction), c.Pairs))
			}
		}
		t.add(row...)
	}
	return t.String()
}
