package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

// The quartiles must match Python's statistics.quantiles(xs, n=4), so
// that spreads computed from the printed values in Python agree.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{16, 8, 4, 2, 1})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v; want 1.5, 12", q1, q3)
	}
	if got := relSpread(xs); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("relSpread = %v, want 1", got)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := percentile(xs, 0.99); ok {
		t.Error("p99 of 999 samples reported with fewer than 10 beyond it")
	}
	xs = append(xs, 1000)
	p, ok := percentile(xs, 0.99)
	if !ok || p != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", p, ok)
	}
	// Below 40 samples a timing is a median alone, whatever the quantile.
	if _, ok := percentile(xs[:39], 0.5); ok {
		t.Error("percentile reported for 39 samples")
	}
	if _, ok := percentile(xs[:40], 0.5); !ok {
		t.Error("median-rank percentile refused for 40 samples")
	}
}

func TestBlockP99(t *testing.T) {
	xs := make([]float64, 3999)
	for i := range xs {
		xs[i] = float64(i%1000 + 1) // every block is 1..1000
	}
	xs[1500] = 1e6 // one outlier does not move a block's p99 far
	if p, ok := blockP99(xs[:999]); ok {
		t.Errorf("block p99 of 999 samples = %v, want none", p)
	}
	// Three whole blocks; the last 999 samples make no block.
	if p, ok := blockP99(xs); !ok || p != 990 {
		t.Errorf("block p99 = %v, %v; want 990, true", p, ok)
	}
}

func TestMaxRelDev(t *testing.T) {
	if got := maxRelDev([]float64{90, 100, 120}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("maxRelDev = %v, want 0.2", got)
	}
}
