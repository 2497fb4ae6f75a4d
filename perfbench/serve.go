package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cloudwatch/internal/core"
	"cloudwatch/internal/stream"
)

// clients is the closed-loop client count of the serve workloads: one
// caller in this one process, waiting for each reply, over one
// connection. Client and server then take turns on one core between
// them, so a neighbour busy on the machine's other core does not slow
// the measured path.
const clients = 1

// settledEpochs is the serve workload's epoch split: 8 prefixes × 12
// experiments = 96 keys, well under the 256-entry render cache.
const settledEpochs = 8

// key is one (prefix, experiment) snapshot request.
type key struct {
	prefix     int
	experiment string
}

func (k key) path() string { return fmt.Sprintf("/v1/snapshot/%d/%s", k.prefix, k.experiment) }

// snapshotKeys lists every (prefix, experiment) key of an epochs-long
// study, prefix-major.
func snapshotKeys(epochs int) []key {
	var keys []key
	for p := 1; p <= epochs; p++ {
		for _, e := range core.ExperimentNames() {
			keys = append(keys, key{p, e})
		}
	}
	return keys
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// scheduleKey is request i of the seeded request sequence: a key index
// uniform over n keys. It is a pure function of its arguments, so the
// sequence is the same for a given seed however the clients interleave.
func scheduleKey(seed int64, i uint64, n int) int {
	return int(splitmix64(splitmix64(uint64(seed))+i) % uint64(n))
}

// serverProc is one `cloudwatch -serve` process under test.
type serverProc struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
}

var (
	serversMu sync.Mutex
	servers   []*serverProc
)

// startServer launches the server on a free loopback port over a store
// directory. Its output, including one log line per request, goes to
// /dev/null, so nothing the harness does can stall it on a full pipe.
func startServer(bin, dir string, seed int64, epochs int) (*serverProc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	_ = ln.Close() // only reserved a free port for the server to bind

	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		return nil, err
	}
	defer devnull.Close()
	cmd := exec.Command(bin, "-serve", addr, "-epochs", strconv.Itoa(epochs),
		"-seed", strconv.FormatInt(seed, 10), "-store", dir)
	cmd.Stdout, cmd.Stderr = devnull, devnull
	// One P, as in the harness: the server's work stays on one core.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &serverProc{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status does not matter; stop sent the signal
		close(s.done)
	}()
	serversMu.Lock()
	servers = append(servers, s)
	serversMu.Unlock()
	return s, nil
}

func (s *serverProc) pid() int { return s.cmd.Process.Pid }

// waitReady polls /readyz until every epoch is ingested.
func (s *serverProc) waitReady(client *http.Client, epochs int) error {
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return errors.New("server exited before becoming ready")
		default:
		}
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			var ready struct {
				Ingested int `json:"ingested"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&ready)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && derr == nil && ready.Ingested == epochs {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("server not ready within 120s")
}

// stop shuts the server down gracefully (SIGTERM), killing it if it has
// not exited within ten seconds, and waits for it to end.
func (s *serverProc) stop() {
	select {
	case <-s.done:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited; done tells
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// stopAllServers stops every server this process started.
func stopAllServers() {
	serversMu.Lock()
	defer serversMu.Unlock()
	for _, s := range servers {
		s.stop()
	}
	servers = nil
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
	}
}

// get fetches a URL and reads the whole body.
func get(client *http.Client, url string) ([]byte, int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// digests remembers the first response to every key; every repeat must
// be byte-identical to it. The response's "cached" flag legitimately
// differs between the first render and later hits, so it is normalized
// before hashing.
type digests struct {
	mu    sync.Mutex
	first map[key][sha256.Size]byte
}

var (
	cachedFalse = []byte(`"cached": false`)
	cachedTrue  = []byte(`"cached": true`)
)

func (d *digests) check(k key, body []byte) bool {
	h := sha256.Sum256(bytes.Replace(body, cachedFalse, cachedTrue, 1))
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.first == nil {
		d.first = map[key][sha256.Size]byte{}
	}
	prev, seen := d.first[k]
	if !seen {
		d.first[k] = h
		return true
	}
	return prev == h
}

// loadResult is what one closed-loop pass of requests yields.
type loadResult struct {
	lat, tracedLat, untracedLat []float64
	attempted, failed           int
	elapsed                     float64
}

// load drives the server closed-loop with n callers. next hands
// out request indices; keyOf maps an index to its key, and ok=false
// from next ends a caller. Latency runs from sending the request to
// reading the last body byte; the output check runs outside it.
func load(client *http.Client, base string, n int, d *digests, tr *tracer, next func() (int64, bool), keyOf func(int64) key) loadResult {
	var (
		mu  sync.Mutex
		res loadResult
		wg  sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat, traced, untraced []float64
			attempted, failed := 0, 0
			for {
				i, ok := next()
				if !ok {
					break
				}
				k := keyOf(i)
				on := i%2 == 1
				sp := tr.root("serve.request", i, on)
				rt := sp.child("http.GET " + k.experiment)
				t := time.Now()
				body, status, err := get(client, base+k.path())
				ms := msSince(t)
				rt.end()
				ck := sp.child("check.digest")
				good := err == nil && status == http.StatusOK && d.check(k, body)
				ck.end()
				sp.end()
				attempted++
				if !good {
					failed++
					continue
				}
				lat = append(lat, ms)
				if on {
					traced = append(traced, ms)
				} else {
					untraced = append(untraced, ms)
				}
			}
			mu.Lock()
			res.lat = append(res.lat, lat...)
			res.tracedLat = append(res.tracedLat, traced...)
			res.untracedLat = append(res.untracedLat, untraced...)
			res.attempted += attempted
			res.failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start).Seconds()
	return res
}

// counted hands out indices 0..n-1, then stops.
func counted(n int64) func() (int64, bool) {
	var i atomic.Int64
	return func() (int64, bool) {
		v := i.Add(1) - 1
		return v, v < n
	}
}

// until hands out indices until the deadline passes.
func until(deadline time.Time) func() (int64, bool) {
	var i atomic.Int64
	return func() (int64, bool) {
		if !time.Now().Before(deadline) {
			return 0, false
		}
		return i.Add(1) - 1, true
	}
}

// runSettled measures GET /v1/snapshot/{p}/{exp} against a
// `cloudwatch -serve -epochs 8` process opened on a warm store,
// closed-loop with one client, keys uniform over every (prefix,
// experiment). Set-up ends with one pass over every key, so every timed
// request hits the render cache.
func runSettled(e *env) (*measurement, error) {
	m := &measurement{layer: map[string]float64{}}
	client := newClient()
	defer client.CloseIdleConnections()
	keys := snapshotKeys(settledEpochs)
	dir := filepath.Join(e.work, "store")
	var d digests

	// The store is made warm first: one server generates the study,
	// persists it, and ingests every epoch. This precedes set-up.
	sp := e.tr.root("prepare.warm_store", -1, true)
	srv, err := startServer(e.server, dir, e.seed, settledEpochs)
	if err != nil {
		return nil, err
	}
	if err := srv.waitReady(client, settledEpochs); err != nil {
		return nil, err
	}
	srv.stop()
	sp.end()
	m.notes = append(m.notes, "store medium: "+fsMedium(dir))

	// Set-up: recovered cold start until /readyz shows every epoch,
	// then one warm-up pass over every key.
	for k := 0; k < setupRepeats; k++ {
		if k > 0 {
			srv.stop()
		}
		t := time.Now()
		sp := e.tr.root("setup.recovered_start", -1, true)
		if srv, err = startServer(e.server, dir, e.seed, settledEpochs); err != nil {
			return nil, err
		}
		if err := srv.waitReady(client, settledEpochs); err != nil {
			return nil, err
		}
		sp.end()
		w := load(client, srv.base, clients, &d, nil, counted(int64(len(keys))), func(i int64) key { return keys[i] })
		m.attempted += w.attempted
		m.failed += w.failed
		m.setups = append(m.setups, time.Since(t).Seconds())
	}
	defer srv.stop()

	keyOf := func(i int64) key { return keys[scheduleKey(e.seed, uint64(i), len(keys))] }
	w := load(client, srv.base, clients, &d, nil, until(time.Now().Add(settleTime)), keyOf)
	m.attempted += w.attempted
	m.failed += w.failed

	before, err := scrapeCounters(client, srv.base)
	if err != nil {
		return nil, err
	}
	cpu0, err := cpuSeconds(srv.pid())
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	r := load(client, srv.base, clients, &d, e.tr, until(deadline), keyOf)
	cpu1, err := cpuSeconds(srv.pid())
	if err != nil {
		return nil, err
	}
	if m.rssMB, err = peakRSSMB(srv.pid()); err != nil {
		return nil, err
	}
	after, err := scrapeCounters(client, srv.base)
	if err != nil {
		return nil, err
	}
	m.lat, m.tracedLat, m.untracedLat = r.lat, r.tracedLat, r.untracedLat
	m.elapsed, m.cpu = r.elapsed, cpu1-cpu0
	m.attempted += r.attempted
	m.failed += r.failed
	if r.failed > 0 {
		m.notes = append(m.notes, fmt.Sprintf("%d timed requests failed or differed from the key's first response", r.failed))
	}
	m.notes = append(m.notes, fmt.Sprintf("%d keys, %d clients; render cache hits %.0f of %.0f, snapshot LRU hits %.0f of %.0f",
		len(keys), clients,
		delta(before, after, "stream_render_cache_hits_total"),
		delta(before, after, "stream_render_cache_hits_total")+delta(before, after, "stream_render_cache_misses_total"),
		delta(before, after, "stream_snapshot_lru_hits_total"),
		delta(before, after, "stream_snapshot_lru_hits_total")+delta(before, after, "stream_snapshot_lru_misses_total")))

	// Output check: the tip and prefix-1 renders must match
	// core.RenderExperiment on an in-process engine of the same seed.
	ck := e.tr.root("check.against_in_process", -1, true)
	bad, n, err := checkAgainstEngine(client, srv.base, e.seed, settledEpochs)
	ck.end()
	if err != nil {
		return nil, err
	}
	m.attempted += n
	m.failed += len(bad)
	m.notes = append(m.notes, fmt.Sprintf("check: %d of %d tip/prefix-1 responses differ from in-process renders", len(bad), n))
	for _, p := range bad {
		m.notes = append(m.notes, "check failed: "+p)
	}

	if e.trace {
		cacheRatios(m.layer, before, after)
		if err := layerProbe(e, m, settledEpochs); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// checkAgainstEngine fetches every experiment at the tip and at prefix
// 1 and compares each output with an in-process render. The in-process
// engine renders each prefix while it is the tip, i.e. as assembled by
// the incremental chain that ingest publishes.
func checkAgainstEngine(client *http.Client, base string, seed int64, epochs int) (bad []string, n int, err error) {
	eng, err := stream.New(stream.Config{Study: studyConfig(seed), Epochs: epochs})
	if err != nil {
		return nil, 0, err
	}
	want := map[key]string{}
	renderTip := func() error {
		p := eng.Ingested()
		snap, err := eng.Snapshot(p)
		if err != nil {
			return err
		}
		for _, name := range core.ExperimentNames() {
			want[key{p, name}], _ = core.RenderExperiment(snap, name)
		}
		return nil
	}
	if _, _, err := eng.IngestNext(); err != nil {
		return nil, 0, err
	}
	if err := renderTip(); err != nil {
		return nil, 0, err
	}
	if err := eng.IngestAll(); err != nil {
		return nil, 0, err
	}
	if err := renderTip(); err != nil {
		return nil, 0, err
	}
	for _, p := range []int{epochs, 1} {
		for _, name := range core.ExperimentNames() {
			k := key{p, name}
			body, status, err := get(client, base+k.path())
			var resp struct {
				Output string `json:"output"`
			}
			n++
			if err != nil || status != http.StatusOK || json.Unmarshal(body, &resp) != nil || resp.Output != want[k] {
				bad = append(bad, k.path())
			}
		}
	}
	return bad, n, nil
}
