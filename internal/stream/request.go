package stream

import (
	"fmt"
	"net/url"
	"slices"
	"strconv"
	"strings"

	"cloudwatch/internal/core"
)

// withDefaults fills the fields a request may leave zero: no tables
// means table2 and table5, a zero k_min 1 and a zero k_max 10.
func (r SweepRequest) withDefaults() SweepRequest {
	if len(r.Tables) == 0 {
		r.Tables = []string{"table2", "table5"}
	}
	if r.KMin == 0 {
		r.KMin = 1
	}
	if r.KMax == 0 {
		r.KMax = 10
	}
	return r
}

// validate is the one rule set of a sweep grid, whether it came from
// the CLI, the HTTP API or Engine.Sweep: every table in
// core.SweepTables(), 1 <= k_min <= k_max <= MaxSweepK, and every
// prefix in 1..maxPrefix. Errors enumerate the valid values.
func (r SweepRequest) validate(maxPrefix int) error {
	valid := core.SweepTables()
	for _, tbl := range r.Tables {
		if !slices.Contains(valid, tbl) {
			return fmt.Errorf("unknown sweep table %q; valid: %s", tbl, strings.Join(valid, ", "))
		}
	}
	if r.KMin < 1 || r.KMax < r.KMin || r.KMax > MaxSweepK {
		return fmt.Errorf("invalid K range [%d, %d]; need 1 <= k_min <= k_max <= %d", r.KMin, r.KMax, MaxSweepK)
	}
	for _, p := range r.Prefixes {
		if p < 1 || p > maxPrefix {
			return fmt.Errorf("bad prefix %d; valid: epoch prefixes 1..%d", p, maxPrefix)
		}
	}
	return nil
}

// SplitList reads the comma-list syntax of every sweep list and of the
// CLI's -scenario flag: parts are trimmed and empty parts skipped.
func SplitList(v string) []string {
	var parts []string
	for _, part := range strings.Split(v, ",") {
		if part = strings.TrimSpace(part); part != "" {
			parts = append(parts, part)
		}
	}
	return parts
}

// ParseSweepQuery reads a sweep request in the /v1/sweep query syntax,
// which the CLI's -sweep-* flags share: tables, prefixes and
// scenario(s) are comma lists (SplitList), kmin and kmax integers. An
// absent parameter, or a list of only empty parts, keeps def's
// defaulted value; an explicit kmin=0 or kmax=0 is out of range, not a
// request for the default. The result is validated against maxPrefix;
// its scenarios are left to the engine that would serve them.
func ParseSweepQuery(q url.Values, def SweepRequest, maxPrefix int) (SweepRequest, error) {
	req := def.withDefaults()
	if tables := SplitList(q.Get("tables")); len(tables) > 0 {
		req.Tables = tables
	}
	for _, k := range []struct {
		name string
		dst  *int
	}{{"kmin", &req.KMin}, {"kmax", &req.KMax}} {
		if v := q.Get(k.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return req, fmt.Errorf("bad %s %q: need an integer", k.name, v)
			}
			*k.dst = n
		}
	}
	if parts := SplitList(q.Get("prefixes")); len(parts) > 0 {
		req.Prefixes = nil
		for _, part := range parts {
			p, err := strconv.Atoi(part)
			if err != nil {
				return req, fmt.Errorf("bad prefix %q; valid: comma-separated epoch prefixes 1..%d", part, maxPrefix)
			}
			req.Prefixes = append(req.Prefixes, p)
		}
	}
	if ids := SplitList(q.Get("scenarios") + "," + q.Get("scenario")); len(ids) > 0 {
		req.Scenarios = ids
	}
	return req, req.validate(maxPrefix)
}
