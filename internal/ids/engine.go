package ids

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
)

// Alert is one rule firing on a payload.
type Alert struct {
	SID       int
	Msg       string
	Classtype Classtype
}

// Engine matches payloads against a compiled rule set. Safe for
// concurrent use.
type Engine struct {
	rules []Rule
	bySID map[int]int

	// prefilter caches, per observed (proto, port) destination, the
	// rule indexes whose header can fire there — rules outside the
	// bucket are skipped by Match without per-rule proto/port checks.
	// Traffic concentrates on a handful of destinations, so buckets are
	// few and build once each.
	prefilter sync.Map // bucketKey → []int (rule indexes, ascending)

	// malPrefilter narrows the bucket further to rules with a
	// malicious classtype, so Malicious — the §3.2 verdict computed
	// once per distinct payload — never re-tests classtypes per rule.
	malPrefilter sync.Map // bucketKey → []int
}

// bucketKey identifies one prefilter bucket.
type bucketKey struct {
	proto string
	port  uint16
}

// bucket returns the indexes of rules that can fire on (proto, port),
// in rule order, building and caching the bucket on first use.
func (e *Engine) bucket(proto string, port uint16) []int {
	key := bucketKey{proto, port}
	if c, ok := e.prefilter.Load(key); ok {
		return c.([]int)
	}
	idxs := make([]int, 0, len(e.rules))
	for i, r := range e.rules {
		if r.Proto != "any" && r.Proto != "ip" && r.Proto != proto {
			continue
		}
		if !r.Ports.Contains(port) {
			continue
		}
		idxs = append(idxs, i)
	}
	// Concurrent first calls build identical buckets; keep whichever
	// won the store.
	actual, _ := e.prefilter.LoadOrStore(key, idxs)
	return actual.([]int)
}

// malBucket returns the indexes of malicious-classtype rules that can
// fire on (proto, port), in rule order, derived from the full bucket
// on first use.
func (e *Engine) malBucket(proto string, port uint16) []int {
	key := bucketKey{proto, port}
	if c, ok := e.malPrefilter.Load(key); ok {
		return c.([]int)
	}
	full := e.bucket(proto, port)
	idxs := make([]int, 0, len(full))
	for _, i := range full {
		if MaliciousClasstypes[e.rules[i].Classtype] {
			idxs = append(idxs, i)
		}
	}
	actual, _ := e.malPrefilter.LoadOrStore(key, idxs)
	return actual.([]int)
}

// NewEngine compiles a set of rules. Duplicate SIDs are rejected, as
// Suricata does.
func NewEngine(rules []Rule) (*Engine, error) {
	e := &Engine{bySID: make(map[int]int, len(rules))}
	for _, r := range rules {
		if _, dup := e.bySID[r.SID]; dup {
			return nil, fmt.Errorf("ids: duplicate sid %d", r.SID)
		}
		e.bySID[r.SID] = len(e.rules)
		e.rules = append(e.rules, r)
	}
	return e, nil
}

// ParseRules reads a ruleset (one rule per line, '#' comments) and
// returns the parsed rules.
func ParseRules(r io.Reader) ([]Rule, error) {
	var rules []Rule
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		rule, ok, err := ParseRule(sc.Text())
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if ok {
			rules = append(rules, rule)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ids: reading rules: %w", err)
	}
	return rules, nil
}

// NewEngineFromText compiles rules from their textual form.
func NewEngineFromText(text string) (*Engine, error) {
	rules, err := ParseRules(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	return NewEngine(rules)
}

// Len returns the number of compiled rules.
func (e *Engine) Len() int { return len(e.rules) }

// Match evaluates every rule against a payload destined to (proto,
// port) and returns the alerts in rule order. Only rules in the
// destination's prefilter bucket are evaluated; rules whose header
// cannot fire on (proto, port) are never touched.
func (e *Engine) Match(proto string, port uint16, payload []byte) []Alert {
	var alerts []Alert
	for _, i := range e.bucket(proto, port) {
		r := &e.rules[i]
		if matchContents(r.Contents, payload) {
			alerts = append(alerts, Alert{SID: r.SID, Msg: r.Msg, Classtype: r.Classtype})
		}
	}
	return alerts
}

// Malicious reports whether any alert on the payload carries a
// classtype in MaliciousClasstypes — the paper's §3.2 definition of a
// malicious payload for non-authentication protocols.
func (e *Engine) Malicious(proto string, port uint16, payload []byte) bool {
	// Evaluate only the malicious-classtype rules of the destination's
	// bucket, returning on the first hit — no Alert slice is built.
	for _, i := range e.malBucket(proto, port) {
		if matchContents(e.rules[i].Contents, payload) {
			return true
		}
	}
	return false
}

// matchContents applies the content chain: every non-negated content
// must match (in order, honoring anchors), every negated content must
// not match in its window.
func matchContents(contents []ContentMatch, payload []byte) bool {
	if len(contents) == 0 {
		return false // a rule with no content never fires here
	}
	prevEnd := 0
	for i, cm := range contents {
		start, end := window(cm, i, prevEnd, len(payload))
		idx := -1
		if start <= end && start <= len(payload) {
			region := payload[start:min(end, len(payload))]
			idx = find(region, cm.Pattern, cm.Nocase)
		}
		if cm.Negated {
			if idx >= 0 {
				return false
			}
			continue // negated matches do not move the anchor
		}
		if idx < 0 {
			return false
		}
		prevEnd = start + idx + len(cm.Pattern)
	}
	return true
}

// window computes the [start, end) search window of one content.
func window(cm ContentMatch, idx, prevEnd, payloadLen int) (int, int) {
	start := 0
	end := payloadLen
	if idx == 0 || !cm.Relative {
		start = cm.Offset
		if cm.Depth > 0 {
			end = cm.Offset + cm.Depth
		}
	} else {
		start = prevEnd + cm.Distance
		if cm.Within > 0 {
			end = prevEnd + cm.Distance + cm.Within
		}
	}
	if end > payloadLen {
		end = payloadLen
	}
	if start < 0 {
		start = 0
	}
	return start, end
}

// find locates pattern in region, optionally ASCII case-insensitively,
// returning the index or -1.
func find(region, pattern []byte, nocase bool) int {
	if len(pattern) == 0 || len(pattern) > len(region) {
		return -1
	}
	if !nocase {
		return bytes.Index(region, pattern)
	}
	lp := bytes.ToLower(pattern)
	// Scan with on-the-fly folding to avoid allocating for big payloads
	// beyond one lowercase copy of the pattern.
	for i := 0; i+len(lp) <= len(region); i++ {
		ok := true
		for j := range lp {
			c := region[i+j]
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != lp[j] {
				ok = false
				break
			}
		}
		if ok {
			return i
		}
	}
	return -1
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
