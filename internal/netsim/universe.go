package netsim

import (
	"fmt"
	"sort"
	"sync"

	"cloudwatch/internal/wire"
)

// Universe is the set of monitored addresses an actor population
// scans: every honeypot IP (materialized as a Target) plus the
// telescope address blocks (kept as ranges — the paper's telescope
// spans 475K IPs, far too many to materialize per-address state for).
// It is the simulated stand-in for "the parts of the Internet our
// sensors can see".
type Universe struct {
	// TelescopeBlocks are the darknet ranges; traffic to them reaches
	// the telescope collector, which records first packets only. The
	// slice must not change after the first telescope lookup
	// (InTelescope, TelescopeAddr, TelescopeIndex, TelescopeSize): the
	// lookups share a lazily-built block index.
	TelescopeBlocks []wire.Block

	targets []*Target
	byIP    map[wire.Addr]targetRef
	byID    map[string]targetRef
	regions map[string][]*Target

	telOnce sync.Once
	telIdx  *telescopeIndex

	svcOnce sync.Once
	svc     []*Target // memoized ServiceTargets

	s16Once sync.Once
	s16     []wire.Addr // memoized /16-start telescope addresses
}

// targetRef pairs a target with its interned vantage id — its position
// in the universe's target list. The collection pipeline stores the
// id, not the vantage string, in its record columns.
type targetRef struct {
	t   *Target
	idx int32
}

// telescopeIndex accelerates the per-address telescope lookups from
// O(blocks) linear scans to O(log blocks) binary searches: cumulative
// start offsets in block order (for index→address) and the blocks
// sorted by base address (for address→block).
type telescopeIndex struct {
	starts []int // starts[i] = global index of TelescopeBlocks[i]'s first address
	total  int
	bases  []wire.Addr // block base addresses, ascending
	order  []int       // order[j] = TelescopeBlocks index of bases[j]
}

func (u *Universe) telescopeIndexed() *telescopeIndex {
	u.telOnce.Do(func() {
		idx := &telescopeIndex{
			starts: make([]int, len(u.TelescopeBlocks)),
			order:  make([]int, len(u.TelescopeBlocks)),
			bases:  make([]wire.Addr, len(u.TelescopeBlocks)),
		}
		for i, b := range u.TelescopeBlocks {
			idx.starts[i] = idx.total
			idx.total += b.Size()
			idx.order[i] = i
		}
		sort.Slice(idx.order, func(a, b int) bool {
			return u.TelescopeBlocks[idx.order[a]].Base < u.TelescopeBlocks[idx.order[b]].Base
		})
		for j, i := range idx.order {
			idx.bases[j] = u.TelescopeBlocks[i].Base
		}
		u.telIdx = idx
	})
	return u.telIdx
}

// telescopeBlockOf locates the block containing an address, returning
// its TelescopeBlocks position. Telescope blocks never overlap, so the
// candidate is the block with the largest base ≤ ip.
func (u *Universe) telescopeBlockOf(ip wire.Addr) (int, bool) {
	idx := u.telescopeIndexed()
	j := sort.Search(len(idx.bases), func(k int) bool { return idx.bases[k] > ip }) - 1
	if j < 0 {
		return 0, false
	}
	i := idx.order[j]
	if !u.TelescopeBlocks[i].Contains(ip) {
		return 0, false
	}
	return i, true
}

// NewUniverse builds a universe over the given honeypot targets.
// Target IPs and IDs must be unique.
func NewUniverse(targets []*Target) (*Universe, error) {
	u := &Universe{
		byIP:    make(map[wire.Addr]targetRef, len(targets)),
		byID:    make(map[string]targetRef, len(targets)),
		regions: map[string][]*Target{},
	}
	for _, t := range targets {
		if t.ID == "" {
			return nil, fmt.Errorf("netsim: target %s has empty ID", t.IP)
		}
		if _, dup := u.byIP[t.IP]; dup {
			return nil, fmt.Errorf("netsim: duplicate target IP %s", t.IP)
		}
		if _, dup := u.byID[t.ID]; dup {
			return nil, fmt.Errorf("netsim: duplicate target ID %s", t.ID)
		}
		ref := targetRef{t, int32(len(u.targets))}
		u.byIP[t.IP] = ref
		u.byID[t.ID] = ref
		u.targets = append(u.targets, t)
		u.regions[t.Region] = append(u.regions[t.Region], t)
		t.ports = internPortSet(t.Ports)
	}
	return u, nil
}

// Targets returns every target in insertion order. The slice is
// shared; callers must not mutate it.
func (u *Universe) Targets() []*Target { return u.targets }

// ByIP resolves the target monitoring an address.
func (u *Universe) ByIP(ip wire.Addr) (*Target, bool) {
	ref, ok := u.byIP[ip]
	return ref.t, ok
}

// ByIPIndexed resolves the target monitoring an address together with
// its vantage id (position in Targets()) — the id the record columns
// store in place of the vantage string.
func (u *Universe) ByIPIndexed(ip wire.Addr) (*Target, int32, bool) {
	ref, ok := u.byIP[ip]
	return ref.t, ref.idx, ok
}

// ByID resolves a target by vantage identifier.
func (u *Universe) ByID(id string) (*Target, bool) {
	ref, ok := u.byID[id]
	return ref.t, ok
}

// VantageIndex resolves a vantage identifier to its vantage id —
// the inverse of Targets()[i].ID.
func (u *Universe) VantageIndex(id string) (int32, bool) {
	ref, ok := u.byID[id]
	return ref.idx, ok
}

// Region returns the targets of one region key.
func (u *Universe) Region(key string) []*Target { return u.regions[key] }

// Regions returns all region keys in sorted order.
func (u *Universe) Regions() []string {
	keys := make([]string, 0, len(u.regions))
	for k := range u.regions {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Filter returns targets satisfying pred, in insertion order.
func (u *Universe) Filter(pred func(*Target) bool) []*Target {
	var out []*Target
	for _, t := range u.targets {
		if pred(t) {
			out = append(out, t)
		}
	}
	return out
}

// ServiceTargets returns targets on networks that host real services
// (cloud + education) — the set telescope-avoiding scanners restrict
// themselves to (§5.2). The slice is memoized (every actor walks it);
// callers must not mutate it.
func (u *Universe) ServiceTargets() []*Target {
	u.svcOnce.Do(func() {
		u.svc = u.Filter(func(t *Target) bool { return t.Kind != KindTelescope })
	})
	return u.svc
}

// TelescopeSlash16Starts returns the /16-start addresses within the
// telescope blocks, memoized — structure-biased pickers consult it per
// draw. Callers must not mutate the slice.
func (u *Universe) TelescopeSlash16Starts() []wire.Addr {
	u.s16Once.Do(func() {
		seen := map[wire.Addr]bool{}
		for _, b := range u.TelescopeBlocks {
			start := b.Base & 0xFFFF0000
			// Walk /16 boundaries overlapping the block.
			for a := start; ; a += 1 << 16 {
				if b.Contains(a) && !seen[a] {
					seen[a] = true
					u.s16 = append(u.s16, a)
				}
				if a+1<<16 < a || a+1<<16 > b.Base+wire.Addr(b.Size()) {
					break
				}
			}
		}
	})
	return u.s16
}

// InTelescope reports whether an address lies inside a telescope
// block.
func (u *Universe) InTelescope(ip wire.Addr) bool {
	_, ok := u.telescopeBlockOf(ip)
	return ok
}

// TelescopeSize returns the total number of telescope addresses.
func (u *Universe) TelescopeSize() int {
	return u.telescopeIndexed().total
}

// TelescopeAddr maps a global index in [0, TelescopeSize()) to the
// corresponding telescope address, block by block. It panics when i is
// out of range, mirroring slice indexing.
func (u *Universe) TelescopeAddr(i int) wire.Addr {
	idx := u.telescopeIndexed()
	if i < 0 || i >= idx.total {
		panic(fmt.Sprintf("netsim: telescope index %d out of range", i))
	}
	// Rightmost block whose start offset is ≤ i.
	b := sort.SearchInts(idx.starts, i+1) - 1
	return u.TelescopeBlocks[b].Nth(i - idx.starts[b])
}

// TelescopeIndex maps a telescope address to its global index in
// [0, TelescopeSize()) — the inverse of TelescopeAddr — reporting
// false for addresses outside every telescope block.
func (u *Universe) TelescopeIndex(ip wire.Addr) (int, bool) {
	i, ok := u.telescopeBlockOf(ip)
	if !ok {
		return 0, false
	}
	off, _ := u.TelescopeBlocks[i].Index(ip)
	return u.telescopeIndexed().starts[i] + off, true
}
