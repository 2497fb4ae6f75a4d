package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"cloudwatch/internal/netsim"
)

// allSlices lists every comparison slice.
var allSlices = []ProtocolSlice{
	SliceSSH22, SliceSSH2222, SliceTelnet23, SliceTelnet2323,
	SliceHTTP80, SliceHTTPAll, SliceAnyAll,
}

// freshVantageView computes a vantage view the pre-index way — raw
// record iteration through View.Add and recordMalicious — bypassing
// both the derived index columns and the view cache. The reference the
// cached path must match exactly.
func freshVantageView(s *Study, id string, slice ProtocolSlice) *View {
	v := NewView(slice)
	for _, rec := range vantageRecords(s, id) {
		v.Add(rec, recordMalicious(s, rec))
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
// for every vantage and slice, the cached columnar view deep-equals
// the freshly-computed one.
func TestVantageViewCachedEqualsFresh(t *testing.T) {
	s := runTestStudy(t, 42, 2021)
	for _, slice := range allSlices {
		for _, tgt := range s.U.Targets() {
			got := s.VantageView(tgt.ID, slice)
			want := freshVantageView(s, tgt.ID, slice)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("vantage %s slice %s: cached view differs from fresh computation\n got %+v\nwant %+v",
					tgt.ID, slice, got, want)
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
