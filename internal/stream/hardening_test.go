package stream

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloudwatch/internal/core"
	"cloudwatch/internal/memo"
	"cloudwatch/internal/store"
)

// TestServerDeferredEngineAttachment drives the boot sequence the CLI
// uses: listener up first, engine attached later. Liveness answers
// immediately, readiness and the API flip from 503 exactly when the
// engine lands and the first epoch ingests.
func TestServerDeferredEngineAttachment(t *testing.T) {
	srv := NewServer(nil)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	getJSON(t, ts.URL+"/healthz", http.StatusOK, nil)
	getJSON(t, ts.URL+"/readyz", http.StatusServiceUnavailable, nil)
	getJSON(t, ts.URL+"/v1/status", http.StatusServiceUnavailable, nil)
	getJSON(t, ts.URL+"/v1/snapshot/1/table2", http.StatusServiceUnavailable, nil)

	eng := newTestEngine(t, 3)
	srv.SetEngine(eng)
	getJSON(t, ts.URL+"/v1/status", http.StatusOK, nil)
	getJSON(t, ts.URL+"/readyz", http.StatusServiceUnavailable, nil) // attached but nothing ingested

	if _, _, err := eng.IngestNext(); err != nil {
		t.Fatal(err)
	}
	var ready struct {
		Status    string `json:"status"`
		Ingested  int    `json:"ingested"`
		Recovered bool   `json:"recovered"`
	}
	getJSON(t, ts.URL+"/readyz", http.StatusOK, &ready)
	if ready.Status != "ready" || ready.Ingested != 1 || ready.Recovered {
		t.Fatalf("readyz = %+v", ready)
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK, nil)
}

// TestServerRenderPanicReleasesWaiters is the singleflight-hang
// satellite: a panicking render must release every request waiting on
// it, drop the cache entry, and answer 500 to the renderer AND every
// waiter — then a later request re-renders successfully.
func TestServerRenderPanicReleasesWaiters(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.Engine().IngestAll(); err != nil {
		t.Fatal(err)
	}
	inner := srv.render
	var renders, panics int32
	srv.render = func(s *core.Study, experiment string) (string, bool) {
		if atomic.AddInt32(&renders, 1) == 1 {
			atomic.AddInt32(&panics, 1)
			time.Sleep(25 * time.Millisecond) // let waiters pile onto the entry
			panic("injected render panic")
		}
		return inner(s, experiment)
	}

	const n = 6
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/snapshot/2/table2")
			if err != nil {
				codes[i] = -1
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusInternalServerError {
				var e struct {
					Error string `json:"error"`
				}
				if json.NewDecoder(resp.Body).Decode(&e) != nil || e.Error == "" {
					codes[i] = -2 // 500 without a JSON error body
					return
				}
			}
			codes[i] = resp.StatusCode
		}(i)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("waiters hung on a panicked render")
	}
	// The panicking flight answers 500; waiters that joined it answer
	// 500 too; stragglers that arrived after eviction may have
	// re-rendered successfully (render #2 onward succeeds).
	for i, code := range codes {
		if code != http.StatusInternalServerError && code != http.StatusOK {
			t.Fatalf("request %d: code %d", i, code)
		}
	}
	if atomic.LoadInt32(&panics) != 1 {
		t.Fatalf("panic hook fired %d times", panics)
	}

	// The entry was dropped: the key renders again and serves fine.
	before := atomic.LoadInt32(&renders)
	var resp snapshotResponse
	getJSON(t, ts.URL+"/v1/snapshot/2/table2", http.StatusOK, &resp)
	if resp.Output == "" {
		t.Fatal("re-render after panic produced no output")
	}
	if atomic.LoadInt32(&renders) == before && !resp.Cached {
		t.Fatal("cold response without a render")
	}
}

// TestServerPanicMiddlewareJSON checks the recovery middleware's
// contract: a panic escaping a handler produces a JSON 500 on a live
// connection, not a dropped one.
func TestServerPanicMiddlewareJSON(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.Engine().IngestAll(); err != nil {
		t.Fatal(err)
	}
	srv.render = func(s *core.Study, experiment string) (string, bool) { panic("boom") }
	resp, err := http.Get(ts.URL + "/v1/snapshot/1/table2")
	if err != nil {
		t.Fatalf("connection dropped instead of JSON 500: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type %q", ct)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("error body: %q, %v", e.Error, err)
	}
}

// TestServerRenderCacheLRU is the bounded-cache satellite: with a cap
// of 2, touching a third key evicts the least-recently-used one, and
// the evicted key re-renders (cached=false) on its next request.
func TestServerRenderCacheLRU(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.Engine().IngestAll(); err != nil {
		t.Fatal(err)
	}
	srv.renders = memo.NewLRU[renderKey, string](2, mRenderEvictions, mRenderEntries)
	var renders int32
	inner := srv.render
	srv.render = func(s *core.Study, experiment string) (string, bool) {
		atomic.AddInt32(&renders, 1)
		return inner(s, experiment)
	}

	get := func(path string) snapshotResponse {
		t.Helper()
		var resp snapshotResponse
		getJSON(t, ts.URL+path, http.StatusOK, &resp)
		return resp
	}

	a := get("/v1/snapshot/1/table2") // cache: A
	if a.Cached {
		t.Fatal("first A render reported cached")
	}
	get("/v1/snapshot/2/table2")                              // cache: B A
	if again := get("/v1/snapshot/1/table2"); !again.Cached { // cache: A B
		t.Fatal("A evicted prematurely")
	}
	get("/v1/snapshot/3/table2") // cache: C A — evicts B (LRU), not A
	if got := atomic.LoadInt32(&renders); got != 3 {
		t.Fatalf("%d renders after 3 distinct keys, want 3", got)
	}
	if again := get("/v1/snapshot/1/table2"); !again.Cached {
		t.Fatal("A evicted despite being recently used")
	}
	if b := get("/v1/snapshot/2/table2"); b.Cached {
		t.Fatal("B served from cache after eviction")
	}
	if got := atomic.LoadInt32(&renders); got != 4 {
		t.Fatalf("%d renders, want 4 (B re-rendered once)", got)
	}
}

// TestServerIngestPersistFailureIs500 is the error-propagation
// satellite at the HTTP layer: when the store cannot persist the
// ingest cursor, POST /v1/ingest answers non-200 with the error, and
// a retry after the fault clears succeeds.
func TestServerIngestPersistFailureIs500(t *testing.T) {
	fsys := store.NewMemFS()
	st, err := store.Open(fsys, "study")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(Config{Study: testStudyConfig(42, 2021), Epochs: 2}, st)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	post := func(wantStatus int) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("POST /v1/ingest = %d, want %d", resp.StatusCode, wantStatus)
		}
	}
	post(http.StatusOK)

	fsys.SyncHook = func(string) error { return fmt.Errorf("disk full") }
	post(http.StatusInternalServerError)
	fsys.SyncHook = nil

	// The failed POST still ingested in memory (epoch 2 of 2), so the
	// retry reports done without error.
	var resp ingestResponse
	r, err := http.Post(ts.URL+"/v1/ingest", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("retry = %d", r.StatusCode)
	}
	if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Done || resp.Ingested != 2 {
		t.Fatalf("retry response %+v", resp)
	}
}
