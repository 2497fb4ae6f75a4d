package stats

import (
	"errors"
	"fmt"
	"math"
)

// Errors returned by the contingency-table routines.
var (
	ErrTableShape = errors.New("stats: contingency table needs at least 2 rows and 2 columns")
	ErrTableEmpty = errors.New("stats: contingency table has zero total count")
	ErrZeroMargin = errors.New("stats: contingency table has an all-zero row or column")
)

// EffectMagnitude buckets a Cramér's V effect size. The thresholds
// depend on the degrees of freedom (see Magnitude), mirroring the
// paper's note that "identical φ values can represent different effect
// sizes if the degrees of freedom between two tests are different".
type EffectMagnitude int

// Effect-size buckets, ordered by strength.
const (
	EffectNone EffectMagnitude = iota
	EffectSmall
	EffectMedium
	EffectLarge
)

// String returns the lowercase bucket name used in the paper's tables.
func (m EffectMagnitude) String() string {
	switch m {
	case EffectNone:
		return "none"
	case EffectSmall:
		return "small"
	case EffectMedium:
		return "medium"
	case EffectLarge:
		return "large"
	default:
		return fmt.Sprintf("EffectMagnitude(%d)", int(m))
	}
}

// ChiSquareResult holds the outcome of a chi-squared test of
// homogeneity/independence on a contingency table.
type ChiSquareResult struct {
	Statistic float64         // chi-squared statistic
	DF        int             // degrees of freedom (r-1)(c-1)
	P         float64         // upper-tail p-value
	N         int             // total observations
	CramersV  float64         // effect size φ in [0, 1]
	Magnitude EffectMagnitude // dof-aware bucket of CramersV
}

// Significant reports whether the test rejects the null hypothesis at
// significance level alpha after a Bonferroni correction for
// comparisons simultaneous tests. comparisons values below 1 are
// treated as 1 (no correction).
func (r ChiSquareResult) Significant(alpha float64, comparisons int) bool {
	return r.P < Bonferroni(alpha, comparisons)
}

// Bonferroni returns the per-test significance level alpha/m for m
// simultaneous comparisons; m < 1 is treated as 1.
func Bonferroni(alpha float64, m int) float64 {
	if m < 1 {
		m = 1
	}
	return alpha / float64(m)
}

// ChiSquare runs a chi-squared test on an r×c contingency table of
// observed counts. Rows typically correspond to vantage points and
// columns to categorical values (e.g. the union of top-3 scanning
// ASes). All rows must have the same length. Rows or columns whose
// marginal total is zero are rejected with ErrZeroMargin because they
// make expected frequencies zero, which the paper's methodology
// explicitly avoids ("we ... ensure the expected frequency of a
// variable is larger than zero").
func ChiSquare(observed [][]float64) (ChiSquareResult, error) {
	r := len(observed)
	if r < 2 {
		return ChiSquareResult{}, ErrTableShape
	}
	c := len(observed[0])
	if c < 2 {
		return ChiSquareResult{}, ErrTableShape
	}
	rowSum := make([]float64, r)
	colSum := make([]float64, c)
	total := 0.0
	for i, row := range observed {
		if len(row) != c {
			return ChiSquareResult{}, fmt.Errorf("stats: ragged contingency table: row %d has %d columns, want %d", i, len(row), c)
		}
		for j, v := range row {
			if !validCount(v) {
				return ChiSquareResult{}, invalidCountErr(v, i, j)
			}
			rowSum[i] += v
			colSum[j] += v
			total += v
		}
	}
	if total == 0 {
		return ChiSquareResult{}, ErrTableEmpty
	}
	for _, s := range rowSum {
		if s == 0 {
			return ChiSquareResult{}, ErrZeroMargin
		}
	}
	for _, s := range colSum {
		if s == 0 {
			return ChiSquareResult{}, ErrZeroMargin
		}
	}

	stat := 0.0
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			expected := rowSum[i] * colSum[j] / total
			d := observed[i][j] - expected
			stat += d * d / expected
		}
	}
	df := (r - 1) * (c - 1)
	p, err := ChiSquareSurvival(stat, df)
	if err != nil {
		return ChiSquareResult{}, err
	}
	minDim := r
	if c < r {
		minDim = c
	}
	v := math.Sqrt(stat / (total * float64(minDim-1)))
	if v > 1 { // guard against floating-point overshoot
		v = 1
	}
	res := ChiSquareResult{
		Statistic: stat,
		DF:        df,
		P:         p,
		N:         int(math.Round(total)),
		CramersV:  v,
	}
	res.Magnitude = Magnitude(v, minDim-1)
	return res, nil
}

// validCount reports whether v is a legal contingency-table count.
func validCount(v float64) bool {
	return v >= 0 && !math.IsNaN(v) && !math.IsInf(v, 0)
}

func invalidCountErr(v float64, i, j int) error {
	return fmt.Errorf("stats: invalid count %v at (%d,%d)", v, i, j)
}

// finishTwoRowResult completes a 2×c chi-squared test from its
// statistic: the p-value, Cramér's V (minDim-1 = 1 for two rows), and
// the dof-aware magnitude — the same arithmetic ChiSquare performs.
func finishTwoRowResult(stat float64, c int, total float64) (ChiSquareResult, error) {
	df := c - 1
	p, err := ChiSquareSurvival(stat, df)
	if err != nil {
		return ChiSquareResult{}, err
	}
	v := math.Sqrt(stat / total)
	if v > 1 { // guard against floating-point overshoot
		v = 1
	}
	res := ChiSquareResult{
		Statistic: stat,
		DF:        df,
		P:         p,
		N:         int(math.Round(total)),
		CramersV:  v,
	}
	res.Magnitude = Magnitude(v, 1)
	return res, nil
}

// Magnitude classifies a Cramér's V value into small/medium/large
// using Cohen's dof-dependent thresholds, where dfStar is
// min(rows, cols) − 1 of the contingency table. Larger tables need a
// smaller V for the same qualitative strength: the cutoffs are Cohen's
// w thresholds (0.1, 0.3, 0.5) scaled by 1/√dfStar.
func Magnitude(v float64, dfStar int) EffectMagnitude {
	if dfStar < 1 {
		dfStar = 1
	}
	scale := math.Sqrt(float64(dfStar))
	small, medium, large := 0.1/scale, 0.3/scale, 0.5/scale
	switch {
	case v >= large:
		return EffectLarge
	case v >= medium:
		return EffectMedium
	case v >= small:
		return EffectSmall
	default:
		return EffectNone
	}
}
