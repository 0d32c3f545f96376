package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending slice: the smallest sample with at least p of all samples at
// or below it.
func quantile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	k := int(math.Ceil(p*float64(len(asc))-1e-9)) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(asc) {
		k = len(asc) - 1
	}
	return asc[k]
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLevel is the percentile reported as the tail of n samples: p99 when
// at least minBeyond samples lie beyond it, else the highest level that
// still leaves minBeyond beyond. When even the median would leave fewer
// (n <= 2*minBeyond) there is no such tail and the maximum stands in.
func tailLevel(n int) float64 {
	if n <= 2*minBeyond {
		return 1
	}
	p := float64(n-minBeyond) / float64(n)
	if p > 0.99 {
		p = 0.99
	}
	return p
}

// tail returns the tailLevel quantile of xs.
func tail(xs []float64) float64 {
	return quantile(sorted(xs), tailLevel(len(xs)))
}

// geomean is the geometric mean of positive samples; it weights a 10%
// change the same whatever the sample's size.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
