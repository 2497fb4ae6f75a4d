package core

import "cloudwatch/internal/memo"

// viewKind distinguishes the cached view families: per-vantage views,
// GreyNoise-only region group views (§4.4 median filter over the
// region's GreyNoise honeypots), and any-collector region group views.
type viewKind uint8

const (
	kindVantage viewKind = iota
	kindRegionGreyNoise
	kindRegionAny
)

// viewCacheKey identifies one memoized view.
type viewCacheKey struct {
	kind  viewKind
	name  string // vantage ID or region key
	slice ProtocolSlice
}

// memoized returns c's value for key, building it at most once via
// build: concurrent callers of one key wait for the first build, while
// distinct keys build in parallel. Analysis builds cannot fail; a
// panicking one leaves the key empty for the next caller, and callers
// that were waiting on it panic with memo.ErrBuildPanicked.
func memoized[K comparable, V any](c *memo.Cache[K, V], key K, build func() V) V {
	v, _, err := c.Get(key, func() (V, error) { return build(), nil })
	if err != nil {
		panic(err)
	}
	return v
}

// telescopeSeries returns the cached per-address unique-scanner series
// of a watched port. The series is immutable once built; callers must
// not modify it.
func (s *Study) telescopeSeries(port uint16) []int {
	return memoized(&s.series, port, func() []int { return s.Tel.PerAddressSeries(s.U, port) })
}
