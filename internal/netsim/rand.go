// Package netsim provides the deterministic simulated-Internet
// substrate: seeded random streams, the autonomous-system registry,
// the target (vantage-point) model, and the probe/record event types
// that flow from simulated scanners through the collectors into the
// analysis pipeline.
//
// The paper measures live attacker traffic from cloud, education, and
// telescope vantage points; we cannot rent that infrastructure, so the
// traffic is generated by a parameterized actor population
// (internal/scanners) against the same collector and analysis code
// that live traffic would traverse. All randomness flows from a single
// Config.Seed through named sub-streams, making every experiment
// bit-reproducible.
package netsim

import (
	"math/rand"
	"sync"
	"sync/atomic"
)

// streamStates caches the seeded generator state per mixed seed:
// seeding the 607-word lagged Fibonacci state costs ~3k multiplies,
// and the pipeline derives a fresh stream per actor per run, usually
// from a small recurring set of (seed, name) pairs. Clones of a cached
// pristine state draw exactly the sequence a freshly seeded source
// would. The cache is size-capped: workloads sweeping many study
// seeds (each contributing hundreds of distinct mixed seeds) seed
// directly once the cap is reached instead of growing without bound.
var streamStates sync.Map // uint64 (mixed seed) → *lfgSource (pristine, never drawn from)

var streamStateCount atomic.Int64

// streamStateCap bounds streamStates to ~40 MiB (entries are ~4.9 KiB)
// — roomy for the recurring seeds of tests, benchmarks, and CLI runs.
const streamStateCap = 8192

// Stream derives an independent deterministic random stream from a
// base seed and a name. Distinct names yield decorrelated streams, so
// adding an actor never perturbs the traffic of existing actors. The
// draw sequence is bit-identical to rand.New(rand.NewSource(mixed)).
func Stream(seed int64, name string) *rand.Rand {
	src := &lfgSource{}
	fillStreamState(src, mixStream(seed, name))
	return rand.New(src)
}

// mixStream folds a stream name into the base seed: inline FNV-1a
// (identical to hash/fnv New64a over the name bytes, without the
// hasher allocation) decorrelated through SplitMix64.
func mixStream(seed int64, name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return splitmix64(uint64(seed) ^ h)
}

// fillStreamState overwrites dst with the pristine seeded state for a
// mixed seed, from the cache when present (populating it when there is
// room). Every word of dst is written either way, so recycled states
// need no clearing.
func fillStreamState(dst *lfgSource, mixed uint64) {
	if v, ok := streamStates.Load(mixed); ok {
		*dst = *v.(*lfgSource)
		return
	}
	dst.Seed(int64(mixed))
	if streamStateCount.Load() < streamStateCap {
		pristine := &lfgSource{}
		*pristine = *dst
		if _, loaded := streamStates.LoadOrStore(mixed, pristine); !loaded {
			streamStateCount.Add(1)
		}
	}
}

// streamSrcPool recycles the ~4.9 KiB generator states behind pooled
// streams. Generation derives a fresh stream per actor per scan, and
// the state is by far the largest allocation on that path; recycling
// it turns the per-stream cost into one state copy.
var streamSrcPool = sync.Pool{New: func() any { return &lfgSource{} }}

// StreamHandle is a pooled deterministic stream. Rand draws exactly
// the sequence Stream(seed, name) returns; Release returns the
// generator state for reuse. After Release the Rand must not be used —
// callers therefore release only streams whose Rand never escapes
// their own scope.
type StreamHandle struct {
	Rand *rand.Rand
	src  *lfgSource
}

// PooledStream is Stream backed by a recycled generator state. The
// draw sequence is identical; only the allocation behavior differs.
func PooledStream(seed int64, name string) StreamHandle {
	src := streamSrcPool.Get().(*lfgSource)
	fillStreamState(src, mixStream(seed, name))
	return StreamHandle{Rand: rand.New(src), src: src}
}

// Release returns the stream's generator state to the pool. Safe on a
// zero handle; must be called at most once.
func (h StreamHandle) Release() {
	if h.src != nil {
		streamSrcPool.Put(h.src)
	}
}

// splitmix64 is the SplitMix64 finalizer, used to decorrelate the
// seed/name combination.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// PickWeighted returns an index in [0, len(weights)) with probability
// proportional to the weights. Zero or negative total weight picks
// uniformly.
func PickWeighted(rng *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return rng.Intn(len(weights))
	}
	r := rng.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		r -= w
		if r < 0 {
			return i
		}
	}
	return len(weights) - 1
}
