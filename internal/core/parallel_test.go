package core

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"

	"cloudwatch/internal/netsim"
)

// runTestStudyWorkers runs the scaled-down test study with an explicit
// worker count.
func runTestStudyWorkers(t *testing.T, seed int64, workers int) *Study {
	t.Helper()
	cfg := testConfig(seed, 2021)
	cfg.Workers = workers
	s, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func recordsEqual(a, b netsim.Record) bool {
	if a.Vantage != b.Vantage || !a.T.Equal(b.T) || a.Src != b.Src ||
		a.ASN != b.ASN || a.Port != b.Port || a.Transport != b.Transport ||
		a.Handshake != b.Handshake {
		return false
	}
	if !bytes.Equal(a.Payload, b.Payload) {
		return false
	}
	if len(a.Creds) != len(b.Creds) {
		return false
	}
	for i := range a.Creds {
		if a.Creds[i] != b.Creds[i] {
			return false
		}
	}
	return true
}

// recordAt reconstructs record i of a study as a row-oriented
// netsim.Record, resolving its interned vantage id.
func recordAt(s *Study, i int) netsim.Record {
	return s.blk.Record(i, s.U.Targets()[s.blk.Vantage[i]].ID)
}

// vantageRecords reconstructs the records of one vantage point, in
// arrival order.
func vantageRecords(s *Study, id string) []netsim.Record {
	idxs := s.vantageIdxs(id)
	out := make([]netsim.Record, len(idxs))
	for i, ri := range idxs {
		out[i] = s.blk.Record(int(ri), id)
	}
	return out
}

// recordMalicious applies the §3.2 definition to a reconstructed
// record: login attempts are malicious, payloadless records benign,
// and payloads take the study's frozen per-payload verdict.
func recordMalicious(s *Study, rec netsim.Record) bool {
	if len(rec.Creds) > 0 {
		return true
	}
	return rec.Pay != 0 && s.malByPay[rec.Pay] == 1
}

// assertStudiesIdentical compares everything the analysis pipeline
// consumes: the full record sequence, the per-vantage indexes, and the
// telescope counters.
func assertStudiesIdentical(t *testing.T, want, got *Study, label string) {
	t.Helper()
	if want.NumRecords() != got.NumRecords() {
		t.Fatalf("%s: record counts differ: %d vs %d", label, want.NumRecords(), got.NumRecords())
	}
	for i := 0; i < want.NumRecords(); i++ {
		if w, g := recordAt(want, i), recordAt(got, i); !recordsEqual(w, g) {
			t.Fatalf("%s: record %d differs:\n  want %+v\n  got  %+v", label, i, w, g)
		}
	}

	for vi, tgt := range want.U.Targets() {
		wi, gi := want.byVantage[vi], got.byVantage[vi]
		if len(wi) != len(gi) {
			t.Fatalf("%s: vantage %s index lengths differ: %d vs %d", label, tgt.ID, len(wi), len(gi))
		}
		for j := range wi {
			if wi[j] != gi[j] {
				t.Fatalf("%s: vantage %s index %d = %d, want %d", label, tgt.ID, j, gi[j], wi[j])
			}
		}
	}
	assertCollectorsEqual(t, want, got, label)
}

// assertStudiesEquivalent is assertStudiesIdentical for studies whose
// records are laid out in a different order — a multi-epoch chain
// appends epoch-major, a one-epoch Run actor-major. It compares the
// record multisets with each record's verdict, the per-vantage
// record counts, and the collectors.
func assertStudiesEquivalent(t *testing.T, want, got *Study, label string) {
	t.Helper()
	w, g := sortedRecords(want), sortedRecords(got)
	if len(w) != len(g) {
		t.Fatalf("%s: record counts differ: %d vs %d", label, len(w), len(g))
	}
	for i := range w {
		if !recordsEqual(w[i].rec, g[i].rec) || w[i].mal != g[i].mal {
			t.Fatalf("%s: sorted record %d differs:\n  want %+v (mal %v)\n  got  %+v (mal %v)",
				label, i, w[i].rec, w[i].mal, g[i].rec, g[i].mal)
		}
	}
	for vi, tgt := range want.U.Targets() {
		if wn, gn := len(want.byVantage[vi]), len(got.byVantage[vi]); wn != gn {
			t.Fatalf("%s: vantage %s has %d records, want %d", label, tgt.ID, gn, wn)
		}
	}
	assertCollectorsEqual(t, want, got, label)
}

// sortedRecords returns a study's records with their verdicts in a
// canonical order keyed on every field.
func sortedRecords(s *Study) []refRecord {
	out := make([]refRecord, s.NumRecords())
	keys := make([]string, len(out))
	for i := range out {
		out[i] = refRecord{recordAt(s, i), s.malicious(i)}
		r := out[i].rec
		keys[i] = fmt.Sprintf("%s|%d|%d|%d|%d|%d|%q|%v", r.Vantage, r.T.UnixNano(), r.Src, r.ASN, r.Port, r.Transport, r.Payload, r.Creds)
	}
	idx := make([]int, len(out))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	sorted := make([]refRecord, len(out))
	for i, j := range idx {
		sorted[i] = out[j]
	}
	return sorted
}

// assertCollectorsEqual compares the telescope state.
func assertCollectorsEqual(t *testing.T, want, got *Study, label string) {
	t.Helper()
	if want.Tel.Packets() != got.Tel.Packets() {
		t.Errorf("%s: telescope packets = %d, want %d", label, got.Tel.Packets(), want.Tel.Packets())
	}
	for _, port := range want.Tel.WatchedPorts() {
		if w, g := want.Tel.UniqueSourceCount(port), got.Tel.UniqueSourceCount(port); w != g {
			t.Errorf("%s: port %d unique srcs = %d, want %d", label, port, g, w)
		}
	}
	wAll, gAll := want.Tel.ASFrequenciesAll(), got.Tel.ASFrequenciesAll()
	if len(wAll) != len(gAll) {
		t.Errorf("%s: telescope AS table sizes differ: %d vs %d", label, len(wAll), len(gAll))
	}
	for k, v := range wAll {
		if gAll[k] != v {
			t.Errorf("%s: telescope AS %q = %v, want %v", label, k, gAll[k], v)
		}
	}
}

// TestStudyParallelDeterministic is the central guarantee of the
// sharded pipeline: the same seed produces byte-identical studies at
// every worker count.
func TestStudyParallelDeterministic(t *testing.T) {
	serial := runTestStudyWorkers(t, 7, 1)
	if serial.NumRecords() == 0 {
		t.Fatal("serial study collected nothing")
	}
	counts := []int{4, runtime.GOMAXPROCS(0)}
	for _, workers := range counts {
		par := runTestStudyWorkers(t, 7, workers)
		assertStudiesIdentical(t, serial, par, "workers="+strconv.Itoa(workers))
	}
}

// TestStudyDefaultWorkersMatchSerial covers the default path
// (Workers=0 → GOMAXPROCS).
func TestStudyDefaultWorkersMatchSerial(t *testing.T) {
	serial := runTestStudyWorkers(t, 11, 1)
	auto := runTestStudyWorkers(t, 11, 0)
	assertStudiesIdentical(t, serial, auto, "workers=auto")
}

// TestStudyMoreWorkersThanActors exercises the clamp when the
// population is smaller than the requested worker count.
func TestStudyMoreWorkersThanActors(t *testing.T) {
	serial := runTestStudyWorkers(t, 3, 1)
	over := runTestStudyWorkers(t, 3, 10_000)
	assertStudiesIdentical(t, serial, over, "workers=10000")
}

// renderAllAnalyses runs every cached analysis path — all tables, the
// figure, and both ablations — and concatenates the rendered output.
func renderAllAnalyses(s *Study) string {
	return s.Table1().Render() + s.Table2().Render() + s.Table3().Render() +
		s.Table4().Render() + s.Table5().Render() + s.Table6().Render() +
		s.Table7().Render() + s.Table8().Render() + s.Table9().Render() +
		s.Table10().Render() + s.Table11().Render() + s.Figure1().Render() +
		s.AblationTopK().Render() + s.AblationMedianFilter().Render()
}

// TestParallelTablesMatchSerial spot-checks that downstream experiment
// drivers see identical inputs: the rendered neighborhood table is the
// same whichever pipeline built the study.
func TestParallelTablesMatchSerial(t *testing.T) {
	serial := runTestStudyWorkers(t, 7, 1)
	par := runTestStudyWorkers(t, 7, 4)
	if w, g := serial.Table2().Render(), par.Table2().Render(); w != g {
		t.Errorf("Table2 differs between worker counts:\nserial:\n%s\nparallel:\n%s", w, g)
	}
}

// TestCachedAnalysesDeterministicAcrossWorkers extends the byte-
// identical guarantee to the cached analysis layer: every table,
// figure, and ablation renders identically at Workers 1, 4, and
// GOMAXPROCS, and re-rendering from the warm cache reproduces the
// first (cold) render exactly.
func TestCachedAnalysesDeterministicAcrossWorkers(t *testing.T) {
	serial := runTestStudyWorkers(t, 7, 1)
	want := renderAllAnalyses(serial)
	if again := renderAllAnalyses(serial); again != want {
		t.Fatal("warm-cache re-render differs from cold render on the same study")
	}
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		par := runTestStudyWorkers(t, 7, workers)
		if got := renderAllAnalyses(par); got != want {
			t.Fatalf("analyses differ between Workers=1 and Workers=%d", workers)
		}
	}
}

// TestConcurrentViewBuilding hammers the read side from many
// goroutines: VantageView and the fanned-out region view builds share
// the study's verdict column and view cache and must be race-free
// after Run.
func TestConcurrentViewBuilding(t *testing.T) {
	s := runTestStudy(t, 42, 2021)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, region := range s.U.Regions() {
				s.vantageViews(s.U.Region(region), SliceHTTP80)
				for _, tgt := range s.U.Region(region) {
					s.VantageView(tgt.ID, SliceAnyAll)
				}
			}
		}()
	}
	wg.Wait()
}
