package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"cloudwatch/internal/stats"
)

// Characteristic is one §3.3 comparison axis.
type Characteristic int

// The five characteristics of the paper's tables.
const (
	CharTopAS Characteristic = iota
	CharFracMalicious
	CharTopUsernames
	CharTopPasswords
	CharTopPayloads
)

// String names the characteristic as the tables do.
func (c Characteristic) String() string {
	switch c {
	case CharTopAS:
		return "Top 3 AS"
	case CharFracMalicious:
		return "Frac Malicious"
	case CharTopUsernames:
		return "Top 3 Username"
	case CharTopPasswords:
		return "Top 3 Password"
	case CharTopPayloads:
		return "Top 3 Payloads"
	default:
		return fmt.Sprintf("Characteristic(%d)", int(c))
	}
}

// TopK is the number of most-popular values compared per vantage point
// (§3.3: "we always choose the most popular 3 values ... studying
// top-3 decreases bias").
const TopK = 3

// labelAtK renders a characteristic's table label at an explicit top-K
// width: the paper's fixed "Top 3 ..." names at the default width
// (k == TopK), the actual width otherwise — so a K=5 sweep cell does
// not claim a top-3 statistic.
func labelAtK(c Characteristic, k int) string {
	if k == TopK || c == CharFracMalicious {
		return c.String()
	}
	return strings.Replace(c.String(), "Top 3", "Top "+strconv.Itoa(k), 1)
}

// Alpha is the base significance level before Bonferroni correction.
const Alpha = 0.05

// ErrNoData reports a comparison with too little traffic to test.
var ErrNoData = errors.New("core: not enough traffic to compare")

// compareFracMalicious is the single copy of the CharFracMalicious
// comparison: the 2×2 malicious/benign test with the §3.3 zero-margin
// convention, over each side's (malicious, benign, total) counts.
func compareFracMalicious(aMal, aBen, aTot, bMal, bBen, bTot float64) (stats.ChiSquareResult, error) {
	if aTot == 0 || bTot == 0 {
		return stats.ChiSquareResult{}, ErrNoData
	}
	res, err := stats.CompareBinary(aMal, aBen, bMal, bBen)
	if err != nil {
		// A margin of zero (e.g. no malicious traffic anywhere)
		// means the distributions are indistinguishable.
		if errors.Is(err, stats.ErrZeroMargin) {
			return stats.ChiSquareResult{P: 1, N: int(aTot + bTot)}, nil
		}
		return res, err
	}
	return res, nil
}

// PairResult is one pairwise comparison outcome within a family.
type PairResult struct {
	Label  string // e.g. "aws:ap-singapore:0 vs aws:ap-singapore:1"
	Result stats.ChiSquareResult
	OK     bool // false when the pair had too little data
}

// Family collects the pairwise comparisons of one experiment family
// and applies Bonferroni correction across all of them — "we use a
// p-value of 0.05 and apply Bonferroni correction to accommodate the
// comparisons across all vantage points".
type Family struct {
	Pairs []PairResult
}

// Add appends a comparison to the family.
func (f *Family) Add(label string, res stats.ChiSquareResult, ok bool) {
	f.Pairs = append(f.Pairs, PairResult{Label: label, Result: res, OK: ok})
}

// Comparisons returns the number of testable pairs (the Bonferroni m).
func (f *Family) Comparisons() int {
	n := 0
	for _, p := range f.Pairs {
		if p.OK {
			n++
		}
	}
	return n
}

// Significant returns the pairs that reject the null at Alpha after
// Bonferroni correction over the family.
func (f *Family) Significant() []PairResult {
	m := f.Comparisons()
	var out []PairResult
	for _, p := range f.Pairs {
		if p.OK && p.Result.Significant(Alpha, m) {
			out = append(out, p)
		}
	}
	return out
}

// AvgSignificantV returns the mean Cramér's V over significant pairs
// (the "Avg. φ" columns), or 0 when none are significant.
func (f *Family) AvgSignificantV() float64 {
	sig := f.Significant()
	if len(sig) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range sig {
		sum += p.Result.CramersV
	}
	return sum / float64(len(sig))
}
