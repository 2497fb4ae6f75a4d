package stream

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloudwatch/internal/core"
	"cloudwatch/internal/obs"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	eng := newTestEngine(t, 3)
	srv := NewServer(eng)
	srv.SetLogger(nil) // keep request metrics, silence per-request log lines
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func getJSON(t *testing.T, url string, wantStatus int, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
}

func TestServerStatusAndIngest(t *testing.T) {
	_, ts := newTestServer(t)

	var st statusResponse
	getJSON(t, ts.URL+"/v1/status", http.StatusOK, &st)
	if st.Epochs != 3 || st.Ingested != 0 || len(st.EpochList) != 3 {
		t.Fatalf("status = %+v", st)
	}
	if len(st.Experiments) != 12 || st.Experiments[0] != "table1" {
		t.Fatalf("experiments = %v", st.Experiments)
	}

	// POST /v1/ingest advances one epoch at a time, then reports done.
	for want := 1; want <= 3; want++ {
		resp, err := http.Post(ts.URL+"/v1/ingest", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		var ing ingestResponse
		if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if ing.Done || ing.Prefix != want {
			t.Fatalf("ingest #%d = %+v", want, ing)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/ingest", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var ing ingestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !ing.Done {
		t.Fatalf("fourth ingest should report done, got %+v", ing)
	}
}

func TestServerSnapshotRenderAndCache(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.Engine().IngestAll(); err != nil {
		t.Fatal(err)
	}

	var first, second snapshotResponse
	getJSON(t, ts.URL+"/v1/snapshot/2/table2", http.StatusOK, &first)
	if first.Cached || first.Output == "" || !strings.Contains(first.Output, "Table 2") {
		t.Fatalf("first render = %+v", first)
	}
	getJSON(t, ts.URL+"/v1/snapshot/2/table2", http.StatusOK, &second)
	if !second.Cached || second.Output != first.Output {
		t.Fatal("second request should be a cache hit with identical output")
	}

	// The served output equals a direct snapshot render.
	snap, err := srv.Engine().Snapshot(2)
	if err != nil {
		t.Fatal(err)
	}
	if want := snap.Table2().Render(); first.Output != want {
		t.Fatal("served output differs from direct render")
	}

	// Unknown experiments 404 and list the valid names.
	var e errorResponse
	getJSON(t, ts.URL+"/v1/snapshot/2/table99", http.StatusNotFound, &e)
	if !strings.Contains(e.Error, "figure1") {
		t.Fatalf("error should list valid experiments: %q", e.Error)
	}
	// Un-ingested and absurd prefixes fail cleanly.
	getJSON(t, ts.URL+"/v1/snapshot/9/table2", http.StatusNotFound, &e)
	getJSON(t, ts.URL+"/v1/snapshot/x/table2", http.StatusBadRequest, &e)
}

// TestServerRenderCacheFollowsEngineSwap replaces a server's engine
// with another seed's study: a render cached from the old engine must
// not answer for the new one, so the response equals a fresh server's.
func TestServerRenderCacheFollowsEngineSwap(t *testing.T) {
	srv, ts := newTestServer(t)
	if _, _, err := srv.Engine().IngestNext(); err != nil {
		t.Fatal(err)
	}
	var old snapshotResponse
	getJSON(t, ts.URL+"/v1/snapshot/1/table1", http.StatusOK, &old)

	other, err := New(Config{Study: testStudyConfig(7, 2021), Epochs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := other.IngestNext(); err != nil {
		t.Fatal(err)
	}
	srv.SetEngine(other)
	var got snapshotResponse
	getJSON(t, ts.URL+"/v1/snapshot/1/table1", http.StatusOK, &got)

	fresh := NewServer(other)
	fresh.SetLogger(nil)
	fts := httptest.NewServer(fresh.Handler())
	defer fts.Close()
	var want snapshotResponse
	getJSON(t, fts.URL+"/v1/snapshot/1/table1", http.StatusOK, &want)
	if got != want {
		t.Fatalf("after SetEngine the server answers %+v\nwant a fresh server's %+v", got, want)
	}
	if got.Output == old.Output {
		t.Fatal("seeds 42 and 7 render the same table1; the check proves nothing")
	}
}

func TestServerSweep(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.Engine().IngestAll(); err != nil {
		t.Fatal(err)
	}
	var res SweepResult
	getJSON(t, ts.URL+"/v1/sweep?tables=table2&kmin=1&kmax=3&prefixes=1,3", http.StatusOK, &res)
	if want := 2 * 3; res.Renders != want {
		t.Fatalf("sweep renders = %d, want %d", res.Renders, want)
	}

	// Server-level sweep defaults (the CLI's -sweep-* flags) seed
	// requests; query parameters override them individually.
	srv.SetSweepDefaults(SweepRequest{Tables: []string{"table5"}, KMin: 2, KMax: 4, Prefixes: []int{1}})
	getJSON(t, ts.URL+"/v1/sweep", http.StatusOK, &res)
	if res.Renders != 3 || res.Cells[0].Table != "table5" || res.Cells[0].K != 2 {
		t.Fatalf("default-seeded sweep = %d renders, first cell %+v", res.Renders, res.Cells[0])
	}
	getJSON(t, ts.URL+"/v1/sweep?kmax=2&prefixes=1,2", http.StatusOK, &res)
	if res.Renders != 2*1 { // K=2..2 x prefixes {1,2} x table5
		t.Fatalf("override sweep renders = %d, want 2", res.Renders)
	}
	var e errorResponse
	getJSON(t, ts.URL+"/v1/sweep?tables=bogus", http.StatusBadRequest, &e)
	if !strings.Contains(e.Error, "table2") {
		t.Fatalf("sweep error should list valid tables: %q", e.Error)
	}
	getJSON(t, ts.URL+"/v1/sweep?kmin=x", http.StatusBadRequest, &e)
}

// TestServerSweepTablesParsing checks /v1/sweep parses the tables
// parameter like the CLI's -sweep-tables flag: whitespace around parts
// is trimmed, empty parts are skipped, and a list of only empty parts
// falls back to the configured defaults.
func TestServerSweepTablesParsing(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.Engine().IngestAll(); err != nil {
		t.Fatal(err)
	}

	var res SweepResult
	q := url.Values{"tables": {" table2, table5 ,"}, "kmin": {"1"}, "kmax": {"1"}, "prefixes": {"1"}}
	getJSON(t, ts.URL+"/v1/sweep?"+q.Encode(), http.StatusOK, &res)
	if res.Renders != 2 {
		t.Fatalf("padded tables list rendered %d cells, want 2", res.Renders)
	}
	seen := map[string]bool{}
	for _, cell := range res.Cells {
		seen[cell.Table] = true
	}
	if !seen["table2"] || !seen["table5"] {
		t.Fatalf("padded tables list rendered %v, want table2 and table5", seen)
	}

	// Only-empty parts behave like an absent parameter: the server
	// defaults win.
	srv.SetSweepDefaults(SweepRequest{Tables: []string{"table7"}, KMin: 1, KMax: 1, Prefixes: []int{1}})
	q = url.Values{"tables": {" , ,"}}
	getJSON(t, ts.URL+"/v1/sweep?"+q.Encode(), http.StatusOK, &res)
	if res.Renders != 1 || res.Cells[0].Table != "table7" {
		t.Fatalf("empty tables list = %d renders of %q, want the table7 default",
			res.Renders, res.Cells[0].Table)
	}

	// A padded-but-bogus part still fails with the valid names.
	var e errorResponse
	q = url.Values{"tables": {" table2, bogus "}}
	getJSON(t, ts.URL+"/v1/sweep?"+q.Encode(), http.StatusBadRequest, &e)
	if !strings.Contains(e.Error, "bogus") || !strings.Contains(e.Error, "table10") {
		t.Fatalf("bad-table error should name the part and the valid tables: %q", e.Error)
	}
}

// TestServerSweepCollapsesDuplicateTables checks that a table named
// more than once renders once per (prefix, K): repeats are dropped and
// the remaining tables keep their first-occurrence order.
func TestServerSweepCollapsesDuplicateTables(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.Engine().IngestAll(); err != nil {
		t.Fatal(err)
	}
	var res SweepResult
	before := stageCounts()[obs.StageTableRender]
	getJSON(t, ts.URL+"/v1/sweep?tables=table2,table2,table2&kmin=1&kmax=1&prefixes=1", http.StatusOK, &res)
	if n := stageCounts()[obs.StageTableRender] - before; res.Renders != 1 || len(res.Cells) != 1 || n != 1 {
		t.Fatalf("tables=table2,table2,table2: %d cells, %d renders reported, %d table_render spans; want 1 each",
			len(res.Cells), res.Renders, n)
	}

	before = stageCounts()[obs.StageTableRender]
	getJSON(t, ts.URL+"/v1/sweep?tables=table5,table2,table5,table2&kmin=1&kmax=2&prefixes=1,2", http.StatusOK, &res)
	if n := stageCounts()[obs.StageTableRender] - before; res.Renders != 2*2*2 || n != 2*2*2 {
		t.Fatalf("two tables named twice over 2 prefixes x 2 K: %d renders, %d spans; want 8", res.Renders, n)
	}
	for i, cell := range res.Cells {
		if want := []string{"table5", "table2"}[i%2]; cell.Table != want {
			t.Fatalf("cell %d is %s, want %s: first-occurrence order lost", i, cell.Table, want)
		}
	}
}

// TestServerSweepBoundsK checks that an absurd kmax is refused up front
// with the bound named, before any table renders.
func TestServerSweepBoundsK(t *testing.T) {
	srv, ts := newTestServer(t)
	if _, _, err := srv.Engine().IngestNext(); err != nil {
		t.Fatal(err)
	}
	before := stageCounts()[obs.StageTableRender]
	var e errorResponse
	getJSON(t, ts.URL+"/v1/sweep?kmax=1000000000", http.StatusBadRequest, &e)
	if want := fmt.Sprintf("k_max <= %d", MaxSweepK); !strings.Contains(e.Error, want) {
		t.Fatalf("error %q does not name the bound (%s)", e.Error, want)
	}
	if n := stageCounts()[obs.StageTableRender] - before; n != 0 {
		t.Fatalf("refused sweep rendered %d tables", n)
	}
	getJSON(t, ts.URL+fmt.Sprintf("/v1/sweep?tables=table2&kmin=%d&kmax=%d", MaxSweepK, MaxSweepK), http.StatusOK, nil)
}

// TestServerSnapshotSingleflight fires concurrent requests at one cold
// (prefix, experiment) key: exactly one must render, exactly one must
// report cached=false, and everyone must get the same output.
func TestServerSnapshotSingleflight(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.Engine().IngestAll(); err != nil {
		t.Fatal(err)
	}
	var renders int32
	inner := srv.render
	srv.render = func(s *core.Study, experiment string) (string, bool) {
		atomic.AddInt32(&renders, 1)
		time.Sleep(25 * time.Millisecond) // hold the cold window open
		return inner(s, experiment)
	}

	const n = 8
	resps := make([]snapshotResponse, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/snapshot/2/table5")
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			errs[i] = json.NewDecoder(resp.Body).Decode(&resps[i])
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := atomic.LoadInt32(&renders); got != 1 {
		t.Fatalf("concurrent cold requests rendered %d times, want exactly 1", got)
	}
	cold := 0
	for i, r := range resps {
		if !r.Cached {
			cold++
		}
		if r.Output == "" || r.Output != resps[0].Output {
			t.Fatalf("request %d output diverges", i)
		}
	}
	if cold != 1 {
		t.Fatalf("%d responses report cached=false, want exactly 1", cold)
	}

	// The key is now warm: one more request is a cache hit with no new
	// render.
	var warm snapshotResponse
	getJSON(t, ts.URL+"/v1/snapshot/2/table5", http.StatusOK, &warm)
	if !warm.Cached || warm.Output != resps[0].Output || atomic.LoadInt32(&renders) != 1 {
		t.Fatal("warm request should hit the cache without rendering")
	}
}

// TestServerSnapshotErrorPrecedence checks a request wrong in both
// dimensions gets the unknown-experiment answer: experiment validity is
// decided before the engine is asked for the snapshot.
func TestServerSnapshotErrorPrecedence(t *testing.T) {
	_, ts := newTestServer(t) // nothing ingested

	var e errorResponse
	getJSON(t, ts.URL+"/v1/snapshot/2/tableX", http.StatusNotFound, &e)
	if !strings.Contains(e.Error, "unknown experiment") || !strings.Contains(e.Error, "figure1") {
		t.Fatalf("unknown experiment on an un-ingested prefix should win and list valid names: %q", e.Error)
	}
	// With a valid experiment the prefix error surfaces.
	getJSON(t, ts.URL+"/v1/snapshot/2/table2", http.StatusNotFound, &e)
	if !strings.Contains(e.Error, "not ingested") {
		t.Fatalf("valid experiment on an un-ingested prefix should report ingestion state: %q", e.Error)
	}
}
