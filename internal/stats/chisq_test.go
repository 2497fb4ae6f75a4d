package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestChiSquareIdenticalRows(t *testing.T) {
	res, err := ChiSquare([][]float64{{10, 20, 30}, {10, 20, 30}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Statistic > 1e-9 {
		t.Errorf("identical rows should give chi2≈0, got %v", res.Statistic)
	}
	if res.P < 0.999 {
		t.Errorf("identical rows should give p≈1, got %v", res.P)
	}
	if res.CramersV > 1e-6 {
		t.Errorf("identical rows should give V≈0, got %v", res.CramersV)
	}
	if res.Magnitude != EffectNone {
		t.Errorf("magnitude = %v, want none", res.Magnitude)
	}
}

func TestChiSquare2x2KnownValue(t *testing.T) {
	// Classic worked example: chi2 = n(ad-bc)^2 / ((a+b)(c+d)(a+c)(b+d)).
	a, b, c, d := 20.0, 30.0, 30.0, 20.0
	res, err := ChiSquare([][]float64{{a, b}, {c, d}})
	if err != nil {
		t.Fatal(err)
	}
	n := a + b + c + d
	want := n * math.Pow(a*d-b*c, 2) / ((a + b) * (c + d) * (a + c) * (b + d))
	if !almostEqual(res.Statistic, want, 1e-9) {
		t.Errorf("chi2 = %v, want %v", res.Statistic, want)
	}
	if res.DF != 1 {
		t.Errorf("df = %d, want 1", res.DF)
	}
	// For 2x2, V = sqrt(chi2/n) = |phi coefficient|.
	if !almostEqual(res.CramersV, math.Sqrt(want/n), 1e-9) {
		t.Errorf("V = %v, want %v", res.CramersV, math.Sqrt(want/n))
	}
}

func TestChiSquareExtremeDifference(t *testing.T) {
	res, err := ChiSquare([][]float64{{1000, 1}, {1, 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 1e-10 {
		t.Errorf("p = %v, want ≈0", res.P)
	}
	if res.CramersV < 0.9 {
		t.Errorf("V = %v, want ≈1", res.CramersV)
	}
	if res.Magnitude != EffectLarge {
		t.Errorf("magnitude = %v, want large", res.Magnitude)
	}
}

func TestChiSquareErrors(t *testing.T) {
	if _, err := ChiSquare(nil); err != ErrTableShape {
		t.Errorf("nil table: %v, want ErrTableShape", err)
	}
	if _, err := ChiSquare([][]float64{{1, 2}}); err != ErrTableShape {
		t.Errorf("one row: %v, want ErrTableShape", err)
	}
	if _, err := ChiSquare([][]float64{{1}, {2}}); err != ErrTableShape {
		t.Errorf("one column: %v, want ErrTableShape", err)
	}
	if _, err := ChiSquare([][]float64{{0, 0}, {0, 0}}); err != ErrTableEmpty {
		t.Errorf("empty: %v, want ErrTableEmpty", err)
	}
	if _, err := ChiSquare([][]float64{{0, 0}, {1, 2}}); err != ErrZeroMargin {
		t.Errorf("zero row: %v, want ErrZeroMargin", err)
	}
	if _, err := ChiSquare([][]float64{{0, 2}, {0, 2}}); err != ErrZeroMargin {
		t.Errorf("zero column: %v, want ErrZeroMargin", err)
	}
	if _, err := ChiSquare([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged table should error")
	}
	if _, err := ChiSquare([][]float64{{1, -2}, {3, 4}}); err == nil {
		t.Error("negative count should error")
	}
}

func TestChiSquareColumnPermutationInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cols := 2 + rng.Intn(6)
		a := make([]float64, cols)
		b := make([]float64, cols)
		for j := range a {
			a[j] = float64(1 + rng.Intn(200))
			b[j] = float64(1 + rng.Intn(200))
		}
		r1, err := ChiSquare([][]float64{a, b})
		if err != nil {
			return false
		}
		perm := rng.Perm(cols)
		pa := make([]float64, cols)
		pb := make([]float64, cols)
		for j, p := range perm {
			pa[j], pb[j] = a[p], b[p]
		}
		r2, err := ChiSquare([][]float64{pa, pb})
		if err != nil {
			return false
		}
		return almostEqual(r1.Statistic, r2.Statistic, 1e-6) && almostEqual(r1.CramersV, r2.CramersV, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestChiSquareRowSwapInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cols := 2 + rng.Intn(5)
		a := make([]float64, cols)
		b := make([]float64, cols)
		for j := range a {
			a[j] = float64(1 + rng.Intn(100))
			b[j] = float64(1 + rng.Intn(100))
		}
		r1, err1 := ChiSquare([][]float64{a, b})
		r2, err2 := ChiSquare([][]float64{b, a})
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEqual(r1.Statistic, r2.Statistic, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCramersVRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 2 + rng.Intn(3)
		cols := 2 + rng.Intn(5)
		obs := make([][]float64, rows)
		for i := range obs {
			obs[i] = make([]float64, cols)
			for j := range obs[i] {
				obs[i][j] = float64(1 + rng.Intn(500))
			}
		}
		res, err := ChiSquare(obs)
		if err != nil {
			return false
		}
		return res.CramersV >= 0 && res.CramersV <= 1 && res.P >= 0 && res.P <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMagnitudeThresholds(t *testing.T) {
	cases := []struct {
		v      float64
		dfStar int
		want   EffectMagnitude
	}{
		{0.05, 1, EffectNone},
		{0.12, 1, EffectSmall},
		{0.31, 1, EffectMedium},
		{0.50, 1, EffectLarge},
		{0.82, 1, EffectLarge},
		// df*=2: thresholds scale by 1/sqrt(2) ≈ 0.071/0.212/0.354.
		{0.08, 2, EffectSmall},
		{0.25, 2, EffectMedium},
		{0.39, 2, EffectLarge},
		// df*<1 treated as 1.
		{0.2, 0, EffectSmall},
	}
	for _, c := range cases {
		if got := Magnitude(c.v, c.dfStar); got != c.want {
			t.Errorf("Magnitude(%v, %d) = %v, want %v", c.v, c.dfStar, got, c.want)
		}
	}
}

func TestMagnitudeString(t *testing.T) {
	cases := map[EffectMagnitude]string{
		EffectNone:         "none",
		EffectSmall:        "small",
		EffectMedium:       "medium",
		EffectLarge:        "large",
		EffectMagnitude(9): "EffectMagnitude(9)",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestBonferroni(t *testing.T) {
	if got := Bonferroni(0.05, 10); !almostEqual(got, 0.005, 1e-12) {
		t.Errorf("Bonferroni(0.05,10) = %v", got)
	}
	if got := Bonferroni(0.05, 0); got != 0.05 {
		t.Errorf("Bonferroni(0.05,0) = %v, want 0.05", got)
	}
}

func TestSignificantWithBonferroni(t *testing.T) {
	res := ChiSquareResult{P: 0.01}
	if !res.Significant(0.05, 1) {
		t.Error("p=0.01 should be significant at alpha=0.05, m=1")
	}
	if res.Significant(0.05, 10) {
		t.Error("p=0.01 should NOT be significant at alpha=0.05, m=10 (cutoff 0.005)")
	}
}
