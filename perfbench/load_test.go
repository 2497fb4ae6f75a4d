package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLoadChecksRepeatsAndTraces drives load with two closed-loop callers
// against a stub server. The stub answers like the snapshot route: the
// first response to a key says "cached": false, repeats say true, and
// that flag alone must not fail the byte-identity check. One key
// changes its body after a while, and those repeats must count as
// failed ops.
func TestLoadChecksRepeatsAndTraces(t *testing.T) {
	var (
		served atomic.Int64
		mu     sync.Mutex
		seen   = map[string]bool{}
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		cached := seen[r.URL.Path]
		seen[r.URL.Path] = true
		mu.Unlock()
		n := served.Add(1)
		body := r.URL.Path
		if r.URL.Path == "/v1/snapshot/2/table3" && n > 200 {
			body += " drifted"
		}
		fmt.Fprintf(w, "{\n  \"cached\": %v,\n  \"output\": %q\n}\n", cached, body)
	}))
	defer srv.Close()

	keys := snapshotKeys(2)
	client := newClient()
	defer client.CloseIdleConnections()
	var d digests
	tr := newTracer(time.Now())
	res := load(client, srv.URL, 2, &d, tr, counted(2000), func(i int64) key {
		return keys[scheduleKey(9, uint64(i), len(keys))]
	})
	if res.attempted != 2000 {
		t.Fatalf("attempted %d, want 2000", res.attempted)
	}
	// Every op after the drift that asked for the drifting key failed.
	if res.failed == 0 || res.failed > 2000/len(keys)*2 {
		t.Fatalf("failed %d ops; want the drifting key's repeats only", res.failed)
	}
	if got := len(res.lat); got != res.attempted-res.failed {
		t.Fatalf("%d latencies for %d successful ops", got, res.attempted-res.failed)
	}
	if len(res.tracedLat)+len(res.untracedLat) != len(res.lat) || len(res.tracedLat) == 0 || len(res.untracedLat) == 0 {
		t.Fatalf("traced %d + untraced %d ops, want both halves of %d", len(res.tracedLat), len(res.untracedLat), len(res.lat))
	}
	// Odd ops are traced: one root and two children each.
	if got, want := tr.count(), 3*1000; got != want {
		t.Fatalf("%d spans recorded, want %d", got, want)
	}
	for _, s := range tr.summary() {
		if s.SelfMS < 0 || s.SelfMS > s.TotalMS+1e-9 {
			t.Errorf("span %s: self %.3f ms outside [0, total %.3f ms]", s.Name, s.SelfMS, s.TotalMS)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	sp := tr.root("op", 1, true)
	c := sp.child("call")
	c.end()
	sp.end()
	if sp != nil || c != nil {
		t.Fatal("a nil tracer opened spans")
	}
	on := newTracer(time.Now())
	if on.root("op", 0, false) != nil {
		t.Fatal("an op in the untraced half opened a span")
	}
}
