package main

import (
	"math"
	"testing"
)

// TestTailLevel checks the percentile rule: the reported tail is the
// highest percentile, at most p99, with at least ten samples beyond it.
func TestTailLevel(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1, 1}, {10, 1}, {20, 1},
		{21, 11.0 / 21}, {24, 14.0 / 24}, {100, 0.9}, {500, 0.98},
		{1000, 0.99}, {5000, 0.99},
	} {
		if got := tailLevel(tc.n); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("tailLevel(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	for n := 2*minBeyond + 1; n <= 3000; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		got := tail(xs)
		beyond := 0
		for _, x := range xs {
			if x > got {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Fatalf("n=%d: tail %v has %d samples beyond it, want >= %d", n, got, beyond, minBeyond)
		}
		if beyond > minBeyond && tailLevel(n) < 0.99 {
			t.Fatalf("n=%d: tail %v leaves %d beyond; a higher percentile would still leave %d", n, got, beyond, minBeyond)
		}
	}
}

func TestQuantileAndMedian(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{{0.1, 1}, {0.5, 5}, {0.55, 6}, {0.99, 10}, {1, 10}} {
		if got := quantile(asc, tc.p); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

func TestGeomean(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{4}, 4},
		{[]float64{1, 4, 16}, 4},
		{[]float64{2, 8}, 4},
		{nil, 0},
	} {
		if got := geomean(tc.xs); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("geomean(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	// Halving any one sample moves the mean by the same factor, whatever
	// that sample's size: a short kernel counts as much as a long one.
	a := geomean([]float64{0.5, 100, 3})
	b := geomean([]float64{0.25, 100, 3})
	c := geomean([]float64{0.5, 50, 3})
	if math.Abs(a/b-a/c) > 1e-9 {
		t.Errorf("geomean weights samples unequally: %v vs %v", a/b, a/c)
	}
}

func TestStepPasses(t *testing.T) {
	step := func(slow, failed int) *stepResult {
		r := &stepResult{latMS: make([]float64, minStepRequests), failed: failed}
		for i := range r.latMS {
			r.latMS[i] = 1
		}
		for i := 0; i < slow; i++ {
			r.latMS[i] = 2 * latencyLimitMS
		}
		return r
	}
	for _, tc := range []struct {
		slow, failed int
		want         bool
	}{{0, 0, true}, {minBeyond, 0, true}, {minBeyond + 1, 0, false}, {0, 1, false}} {
		if got := step(tc.slow, tc.failed).passes(); got != tc.want {
			t.Errorf("%d slow, %d failed: passes = %v, want %v", tc.slow, tc.failed, got, tc.want)
		}
	}
}
