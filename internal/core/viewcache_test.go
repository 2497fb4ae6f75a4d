package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"cloudwatch/internal/fingerprint"
	"cloudwatch/internal/netsim"
)

// allSlices lists every comparison slice.
var allSlices = []ProtocolSlice{
	SliceSSH22, SliceSSH2222, SliceTelnet23, SliceTelnet2323,
	SliceHTTP80, SliceHTTPAll, SliceAnyAll,
}

// sliceMatches is the row-oriented slice membership test: port slices
// test the record's port, the HTTP-all slice fingerprints the payload
// bytes. The oracle for Study.sliceMatch.
func sliceMatches(p ProtocolSlice, rec netsim.Record) bool {
	switch p {
	case SliceSSH22:
		return rec.Port == 22
	case SliceSSH2222:
		return rec.Port == 2222
	case SliceTelnet23:
		return rec.Port == 23
	case SliceTelnet2323:
		return rec.Port == 2323
	case SliceHTTP80:
		return rec.Port == 80
	case SliceHTTPAll:
		// Credential-only records are never HTTP.
		return len(rec.Payload) > 0 && fingerprint.Identify(rec.Payload) == fingerprint.HTTP
	case SliceAnyAll:
		return true
	default:
		return false
	}
}

// addRecord folds one row-oriented record into v, one count per
// record and key, deriving the AS and payload keys from the record
// itself. malicious is the §3.2 verdict of the record.
func addRecord(v *View, rec netsim.Record, malicious bool) {
	if !sliceMatches(v.Slice, rec) {
		return
	}
	v.Total++
	if as, ok := netsim.LookupAS(rec.ASN); ok {
		v.AS.Add(as.Key(), 1)
	} else {
		v.AS.Add(fmt.Sprintf("AS%d", rec.ASN), 1)
	}
	for _, c := range rec.Creds {
		v.Usernames.Add(c.Username, 1)
		v.Passwords.Add(c.Password, 1)
	}
	if len(rec.Payload) > 0 {
		v.Payloads.Add(payloadKey(rec.Payload), 1)
	}
	hour := netsim.HourOf(rec.T)
	v.Hourly[hour]++
	if malicious {
		v.Malicious++
		v.MalHourly[hour]++
	} else {
		v.Benign++
	}
}

// freshVantageView computes a vantage view the pre-index way — raw
// record iteration through addRecord and recordMalicious — bypassing
// both the derived index columns and the view cache. The reference the
// cached path must match exactly.
func freshVantageView(s *Study, id string, slice ProtocolSlice) *View {
	v := NewView(slice)
	for _, rec := range vantageRecords(s, id) {
		addRecord(v, rec, recordMalicious(s, rec))
	}
	return v
}

// freshGroupView recomputes a region group view from fresh vantage
// views, mirroring regionGroupView/anyRegionGroupView without caches.
func freshGroupView(s *Study, region string, slice ProtocolSlice, greyNoiseOnly bool) *View {
	var views []*View
	for _, t := range s.U.Region(region) {
		if greyNoiseOnly && t.Collector != netsim.CollectGreyNoise {
			continue
		}
		views = append(views, freshVantageView(s, t.ID, slice))
	}
	return GroupView(views)
}

// TestVantageViewCachedEqualsFresh is the central cache guarantee:
// for every vantage and all seven slices, the cached columnar view
// deep-equals the row-oriented oracle. The full week must put records
// in every slice, the rarely used SSH/2222 and TEL/2323 included; a
// study cut to its first ten minutes leaves vantages without records;
// an unknown vantage id gives an empty view.
func TestVantageViewCachedEqualsFresh(t *testing.T) {
	cfg := testConfig(42, 2021)
	cfg.WindowSec = 600
	short, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Study{runTestStudy(t, 42, 2021), short} {
		perSlice := map[ProtocolSlice]float64{}
		empty := 0
		for vi, tgt := range s.U.Targets() {
			if len(s.byVantage[vi]) == 0 {
				empty++
			}
			for _, slice := range allSlices {
				got := s.VantageView(tgt.ID, slice)
				want := freshVantageView(s, tgt.ID, slice)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("window %d: vantage %s slice %s: cached view differs from fresh computation\n got %+v\nwant %+v",
						s.Cfg.WindowSec, tgt.ID, slice, got, want)
				}
				perSlice[slice] += got.Total
			}
		}
		for _, slice := range allSlices {
			if got, want := s.VantageView("no-such-vantage", slice), NewView(slice); !reflect.DeepEqual(got, want) {
				t.Errorf("window %d: unknown vantage, slice %s: got %+v, want an empty view", s.Cfg.WindowSec, slice, got)
			}
		}
		t.Logf("window %d: %d records, %d of %d vantages without records, per-slice totals %v",
			s.Cfg.WindowSec, s.NumRecords(), empty, len(s.U.Targets()), perSlice)
		if s == short {
			if empty == 0 {
				t.Error("no vantage without records in the short window; the empty-view case is not covered")
			}
			continue
		}
		for _, slice := range allSlices {
			if perSlice[slice] == 0 {
				t.Errorf("slice %s: no records in any vantage view; the comparison covers nothing", slice)
			}
		}
	}
}

// TestVantageViewCacheReturnsSameInstance checks repeat requests hit
// the memo rather than rebuilding.
func TestVantageViewCacheReturnsSameInstance(t *testing.T) {
	s := runTestStudy(t, 42, 2021)
	id := s.U.Targets()[0].ID
	a := s.VantageView(id, SliceAnyAll)
	b := s.VantageView(id, SliceAnyAll)
	if a != b {
		t.Error("VantageView rebuilt a cached (vantage, slice) view")
	}
	if c := s.VantageView(id, SliceSSH22); c == a {
		t.Error("distinct slices shared one cache slot")
	}
}

// TestGroupViewCachedEqualsFresh checks both group-view families
// (GreyNoise-only and any-collector) against cache-free recomputation
// across every region and slice the tables use.
func TestGroupViewCachedEqualsFresh(t *testing.T) {
	s := runTestStudy(t, 42, 2021)
	for _, slice := range []ProtocolSlice{SliceSSH22, SliceTelnet23, SliceHTTP80, SliceHTTPAll} {
		for _, region := range s.U.Regions() {
			if got, want := s.regionGroupView(region, slice), freshGroupView(s, region, slice, true); !reflect.DeepEqual(got, want) {
				t.Fatalf("regionGroupView(%s, %s) differs from fresh computation", region, slice)
			}
			if got, want := s.anyRegionGroupView(region, slice), freshGroupView(s, region, slice, false); !reflect.DeepEqual(got, want) {
				t.Fatalf("anyRegionGroupView(%s, %s) differs from fresh computation", region, slice)
			}
		}
	}
}

// TestDerivedColumnsMatchDirect checks each derived column — all
// materialized by the assembler itself before Run returns — against
// direct per-record derivation.
func TestDerivedColumnsMatchDirect(t *testing.T) {
	s := runTestStudy(t, 42, 2021)
	for i := 0; i < s.NumRecords(); i++ {
		rec := recordAt(s, i)
		if got, want := s.mal[i], recordMalicious(s, rec); got != want {
			t.Fatalf("record %d: mal column = %v, want %v", i, got, want)
		}
		if got, want := s.blk.Hour(i), netsim.HourOf(rec.T); got != want {
			t.Fatalf("record %d: hour column = %d, want %d", i, got, want)
		}
		if !rec.T.Equal(s.blk.Time(i)) {
			t.Fatalf("record %d: time column reconstructs %v, want %v", i, s.blk.Time(i), rec.T)
		}
		wantKey := fmt.Sprintf("AS%d", rec.ASN)
		if as, ok := netsim.LookupAS(rec.ASN); ok {
			wantKey = as.Key()
		}
		if got := netsim.ASKeyOf(rec.ASN); got != wantKey {
			t.Fatalf("record %d: AS key = %q, want %q", i, got, wantKey)
		}
		if len(rec.Payload) > 0 {
			if got, want := s.recPayKey(i), payloadKey(rec.Payload); got != want {
				t.Fatalf("record %d: payKey column = %q, want %q", i, got, want)
			}
		} else if s.recPayKey(i) != "" {
			t.Fatalf("record %d: payloadless record has payKey %q", i, s.recPayKey(i))
		}
	}
}

// TestViewCacheConcurrentExperiments hammers the cached read path the
// way the experiment drivers do — concurrent table builds plus direct
// view requests across slices — and relies on -race to catch unsound
// sharing.
func TestViewCacheConcurrentExperiments(t *testing.T) {
	s := runTestStudy(t, 42, 2021)
	var wg sync.WaitGroup
	run := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	for i := 0; i < 2; i++ {
		run(func() { _ = s.Table2() })
		run(func() { _ = s.Table4() })
		run(func() { _ = s.Table5() })
		run(func() { _ = s.Table7() })
		run(func() { _ = s.Table8() })
		run(func() { _ = s.Table9() })
		run(func() { _ = s.Table11() })
		run(func() { _ = s.Figure1() })
		run(func() {
			for _, slice := range allSlices {
				for _, tgt := range s.U.Targets() {
					_ = s.VantageView(tgt.ID, slice)
				}
			}
		})
	}
	wg.Wait()

	// After the storm, cached results still match fresh computation.
	id := s.U.Targets()[0].ID
	if !reflect.DeepEqual(s.VantageView(id, SliceAnyAll), freshVantageView(s, id, SliceAnyAll)) {
		t.Error("cached view corrupted by concurrent experiment fan-out")
	}
}

// TestTelescopeSeriesCached checks the memoized Figure 1 series
// matches a direct collector query and is returned without rebuild.
func TestTelescopeSeriesCached(t *testing.T) {
	s := runTestStudy(t, 42, 2021)
	for _, port := range []uint16{22, 445, 80, 17128} {
		got := s.telescopeSeries(port)
		want := s.Tel.PerAddressSeries(s.U, port)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("port %d: cached series differs from PerAddressSeries", port)
		}
		if len(got) > 0 && &got[0] != &s.telescopeSeries(port)[0] {
			t.Fatalf("port %d: series rebuilt on second request", port)
		}
	}
}
