package memo

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloudwatch/internal/obs"
)

// value returns a build that yields v and counts its runs.
func value(v int, runs *atomic.Int32) func() (int, error) {
	return func() (int, error) {
		runs.Add(1)
		return v, nil
	}
}

func mustGet(t *testing.T, c *Cache[int, int], key int, want Outcome) int {
	t.Helper()
	v, how, err := c.Get(key, func() (int, error) { return key * 10, nil })
	if err != nil || how != want {
		t.Fatalf("Get(%d) = %v, %v; want outcome %v", key, how, err, want)
	}
	return v
}

// TestLRURecencyAndEviction pins the bounded cache's policy: touching
// an entry (Get or Put) makes it most recent, and inserting past the
// capacity evicts the least recently used entry, counted and gauged.
func TestLRURecencyAndEviction(t *testing.T) {
	const capacity = 4
	var evictions obs.Counter
	var entries obs.Gauge
	c := NewLRU[int, int](capacity, &evictions, &entries)
	for k := 1; k <= capacity; k++ {
		mustGet(t, c, k, Built)
	}
	mustGet(t, c, 1, Hit)   // 1 is now most recent
	c.Put(2, 20)            // so is 2; 3 is the oldest
	mustGet(t, c, 5, Built) // evicts 3
	if evictions.Value() != 1 || entries.Value() != capacity || c.Len() != capacity {
		t.Fatalf("evictions %d, entries gauge %d, len %d; want 1, %d, %d",
			evictions.Value(), entries.Value(), c.Len(), capacity, capacity)
	}
	for _, k := range []int{1, 2, 4, 5} {
		mustGet(t, c, k, Hit)
	}
	mustGet(t, c, 3, Built) // evicts 1, the least recent after the loop
	mustGet(t, c, 2, Hit)
	mustGet(t, c, 1, Built)
	if evictions.Value() != 3 || c.Cap() != capacity {
		t.Fatalf("evictions %d, cap %d; want 3, %d", evictions.Value(), c.Cap(), capacity)
	}
}

// TestPutReplacesInPlace: putting a resident key replaces its value
// without growing the cache or evicting anything.
func TestPutReplacesInPlace(t *testing.T) {
	var evictions obs.Counter
	c := NewLRU[int, int](2, &evictions, new(obs.Gauge))
	c.Put(1, 1)
	c.Put(2, 2)
	c.Put(1, 100)
	if v := mustGet(t, c, 1, Hit); v != 100 {
		t.Fatalf("Get(1) = %d after re-put, want 100", v)
	}
	if c.Len() != 2 || evictions.Value() != 0 {
		t.Fatalf("len %d, evictions %d after re-put; want 2, 0", c.Len(), evictions.Value())
	}
	mustGet(t, c, 2, Hit)
}

// TestZeroValueUnbounded: the zero Cache is ready to use, keeps every
// key, and reports capacity 0.
func TestZeroValueUnbounded(t *testing.T) {
	var c Cache[int, int]
	var runs atomic.Int32
	for k := 0; k < 1000; k++ {
		if _, how, _ := c.Get(k, value(k, &runs)); how != Built {
			t.Fatalf("first Get(%d) outcome %v", k, how)
		}
	}
	c.Put(1000, 1000)
	for k := 0; k <= 1000; k++ {
		if v, how, _ := c.Get(k, value(-1, &runs)); how != Hit || v != k {
			t.Fatalf("Get(%d) = %d, %v; want %d, Hit", k, v, how, k)
		}
	}
	if runs.Load() != 1000 || c.Len() != 1001 || c.Cap() != 0 {
		t.Fatalf("runs %d, len %d, cap %d", runs.Load(), c.Len(), c.Cap())
	}
}

// queueDelay gives goroutines time to block on an in-flight build, so
// the joined path is what runs. The assertions hold whichever way the
// scheduler goes: a late caller finds the settled value (or, after a
// failure, builds its own).
const queueDelay = 20 * time.Millisecond

// TestSingleflight: concurrent Gets of one key run one build; the rest
// join it and all see its value.
func TestSingleflight(t *testing.T) {
	for _, c := range []*Cache[int, int]{new(Cache[int, int]), NewLRU[int, int](1, new(obs.Counter), new(obs.Gauge))} {
		const n = 16
		var runs atomic.Int32
		started, release := make(chan struct{}), make(chan struct{})
		build := func() (int, error) {
			if runs.Add(1) == 1 {
				close(started)
			}
			<-release
			return 7, nil
		}
		var wg sync.WaitGroup
		outcomes := make([]Outcome, n)
		get := func(i int) {
			defer wg.Done()
			v, how, err := c.Get(1, build)
			if v != 7 || err != nil {
				t.Errorf("Get = %d, %v", v, err)
			}
			outcomes[i] = how
		}
		wg.Add(n)
		go get(0)
		<-started
		for i := 1; i < n; i++ {
			go get(i)
		}
		time.Sleep(queueDelay)
		close(release)
		wg.Wait()
		built := 0
		for _, how := range outcomes {
			if how == Built {
				built++
			}
		}
		if runs.Load() != 1 || built != 1 {
			t.Fatalf("%d builds, %d Built outcomes; want 1, 1", runs.Load(), built)
		}
		if _, how, _ := c.Get(1, build); how != Hit {
			t.Fatalf("settled Get outcome %v, want Hit", how)
		}
	}
}

// TestFailedBuildNotKept: a build that errors or panics releases its
// joined callers with an error and leaves the key empty, so the next
// Get builds again.
func TestFailedBuildNotKept(t *testing.T) {
	boom := errors.New("boom")
	fail := map[string]func() (int, error){
		"error": func() (int, error) { return 0, boom },
		"panic": func() (int, error) { panic("boom") },
	}
	wantErr := map[string]error{"error": boom, "panic": ErrBuildPanicked}
	for name, failing := range fail {
		t.Run(name, func(t *testing.T) {
			var entries obs.Gauge
			c := NewLRU[int, int](4, new(obs.Counter), &entries)
			started, release := make(chan struct{}), make(chan struct{})
			panicked := make(chan any, 1)
			go func() {
				defer func() { panicked <- recover() }()
				_, how, err := c.Get(1, func() (int, error) {
					close(started)
					<-release
					return failing()
				})
				if how != Built || !errors.Is(err, boom) {
					t.Errorf("failing build returned %v, %v", how, err)
				}
			}()
			<-started
			const n = 4
			var wg sync.WaitGroup
			errs := make([]error, n)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, _, errs[i] = c.Get(1, func() (int, error) { return 1, nil })
				}(i)
			}
			time.Sleep(queueDelay)
			close(release)
			wg.Wait()
			if got, want := <-panicked, map[string]any{"error": nil, "panic": "boom"}[name]; got != want {
				t.Fatalf("building call panicked with %v, want %v", got, want)
			}
			for i, err := range errs {
				// A caller that arrived after the failure rebuilt and succeeded.
				if err != nil && !errors.Is(err, wantErr[name]) {
					t.Fatalf("caller %d error %v, want %v", i, err, wantErr[name])
				}
			}
			if v, how, err := c.Get(1, func() (int, error) { return 5, nil }); err != nil || (how == Built) != (v == 5) {
				t.Fatalf("Get after failure = %d, %v, %v", v, how, err)
			}
			if c.Len() != 1 || entries.Value() != 1 {
				t.Fatalf("len %d, entries gauge %d; want 1, 1", c.Len(), entries.Value())
			}
		})
	}
}

// TestFailedBuildRebuilds: with no concurrency at all, a failing key
// is rebuilt on every Get until a build succeeds.
func TestFailedBuildRebuilds(t *testing.T) {
	var c Cache[string, int]
	var runs int
	for i := 0; i < 3; i++ {
		if _, how, err := c.Get("k", func() (int, error) { runs++; return 0, errors.New("no") }); how != Built || err == nil {
			t.Fatalf("failing Get %d = %v, %v", i, how, err)
		}
	}
	func() {
		defer func() { _ = recover() }()
		c.Get("k", func() (int, error) { runs++; panic("no") })
	}()
	if v, how, err := c.Get("k", func() (int, error) { runs++; return 9, nil }); v != 9 || how != Built || err != nil {
		t.Fatalf("Get after failures = %d, %v, %v", v, how, err)
	}
	if runs != 5 || c.Len() != 1 {
		t.Fatalf("runs %d, len %d; want 5, 1", runs, c.Len())
	}
}

// TestHitDoesNotAllocate guards the serving hot path: a hit on either
// kind of cache allocates nothing.
func TestHitDoesNotAllocate(t *testing.T) {
	for _, c := range []*Cache[int, int]{new(Cache[int, int]), NewLRU[int, int](2, new(obs.Counter), new(obs.Gauge))} {
		c.Put(1, 1)
		key := 1
		build := func() (int, error) { return key, nil }
		if n := testing.AllocsPerRun(100, func() { c.Get(key, build) }); n != 0 {
			t.Fatalf("%v allocs per hit, want 0", n)
		}
	}
}
