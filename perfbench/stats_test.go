package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct {
		q      float64
		v      float64
		beyond int
	}{
		{0.5, 50, 50},
		{0.9, 90, 10},
		{0.99, 99, 1},
		{1, 100, 0},
		{0.001, 1, 99},
	} {
		v, beyond := percentile(append([]float64(nil), xs...), c.q)
		if v != c.v || beyond != c.beyond {
			t.Errorf("p%g = %g with %d beyond; want %g with %d", c.q*100, v, beyond, c.v, c.beyond)
		}
	}
}

func TestPercentileSmallAndEmpty(t *testing.T) {
	if v, b := percentile(nil, 0.9); v != 0 || b != 0 {
		t.Errorf("empty: %g, %d", v, b)
	}
	if v, b := percentile([]float64{7}, 0.9); v != 7 || b != 0 {
		t.Errorf("single: %g, %d", v, b)
	}
	// 35 samples at p60: rank ceil(21) = 21, so 14 lie beyond it.
	xs := make([]float64, 35)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, b := percentile(xs, 0.6); v != 21 || b != 14 {
		t.Errorf("p60 of 1..35 = %g with %d beyond; want 21 with 14", v, b)
	}
}

func TestPercentileBeyondCountsMatchDefinition(t *testing.T) {
	for n := 1; n <= 300; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		for _, q := range []float64{0.5, 0.6, 0.9, 0.99} {
			v, beyond := percentile(xs, q)
			greater := 0
			for _, x := range xs {
				if x > v {
					greater++
				}
			}
			if greater != beyond {
				t.Fatalf("n=%d q=%g: %d samples exceed the percentile, reported %d", n, q, greater, beyond)
			}
			if below := n - beyond; float64(below) < q*float64(n) {
				t.Fatalf("n=%d q=%g: only %d of %d samples at or below the percentile", n, q, below, n)
			}
		}
	}
}

func TestMedianMeanRatio(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %g", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median = %g", m)
	}
	if m := mean([]float64{1, 2, 3, 6}); m != 3 {
		t.Errorf("mean = %g", m)
	}
	if r := ratio(1, 0); r != 0 {
		t.Errorf("ratio over zero = %g", r)
	}
	if r := ratio(1, 4); math.Abs(r-0.25) > 1e-12 {
		t.Errorf("ratio = %g", r)
	}
}
