package core

import (
	"strings"
	"testing"
)

func TestAblationTopK(t *testing.T) {
	s := sharedStudy(t, 2021)
	r := s.AblationTopK(1, 3, 5)
	if len(r.K) != 3 {
		t.Fatalf("K rows = %d", len(r.K))
	}
	// Footnote 2's claim: widening K grows the contingency table and
	// the number of near-zero cells.
	if r.AvgCells[2] <= r.AvgCells[1] {
		t.Errorf("top-5 table width (%v) should exceed top-3 (%v)", r.AvgCells[2], r.AvgCells[1])
	}
	if r.ZeroCells[2] <= r.ZeroCells[1] {
		t.Errorf("top-5 near-zero cells (%v) should exceed top-3 (%v)", r.ZeroCells[2], r.ZeroCells[1])
	}
	if !strings.Contains(r.Render(), "top-K") {
		t.Error("render missing title")
	}
	// Default K set.
	if def := s.AblationTopK(); len(def.K) != 4 {
		t.Errorf("default K rows = %d, want 4", len(def.K))
	}
}

func TestAblationMedianFilter(t *testing.T) {
	s := sharedStudy(t, 2021)
	r := s.AblationMedianFilter()
	if r.Pairs == 0 {
		t.Fatal("no cloud-cloud pairs")
	}
	// §4.4's claim: the median filter finds at most as many (and
	// typically fewer) spurious group differences as naive summing.
	if r.MedianDiff > r.SumDiff {
		t.Errorf("median filter found %d differences vs %d for naive sum — filter should not add differences",
			r.MedianDiff, r.SumDiff)
	}
	if !strings.Contains(r.Render(), "median filter") {
		t.Error("render missing label")
	}
}

func BenchmarkAblationTopK(b *testing.B) {
	s, err := Run(testConfigBench(42))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.AblationTopK()
	}
}

func BenchmarkAblationMedianFilter(b *testing.B) {
	s, err := Run(testConfigBench(42))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.AblationMedianFilter()
	}
}

func testConfigBench(seed int64) Config {
	cfg := DefaultConfig(seed, 2021)
	cfg.Deploy.TelescopeSlash24s = 32
	cfg.Deploy.HoneytrapPerCloud = 16
	cfg.Deploy.HurricaneIPs = 16
	cfg.Scale = 0.4
	return cfg
}
