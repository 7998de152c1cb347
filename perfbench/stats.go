package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie strictly beyond a percentile for
// the benchmark to report it: p95 needs 200 samples, p99 needs 1000.
const minTail = 10

// ladder is the set of percentiles the benchmark may report, lowest
// first.
var ladder = []float64{0.50, 0.90, 0.95, 0.99, 0.999}

// tailSupported reports whether n samples leave at least minTail samples
// strictly above the q-th percentile (nearest-rank).
func tailSupported(n int, q float64) bool {
	if n <= 0 || q <= 0 || q >= 1 {
		return false
	}
	rank := int(math.Ceil(q * float64(n)))
	return n-rank >= minTail
}

// minSamples is the smallest sample count that supports percentile q.
func minSamples(q float64) int {
	n := 1
	for !tailSupported(n, q) {
		n++
	}
	return n
}

// highestSupported returns the highest ladder percentile that n samples
// support, and false when not even the median is supported.
func highestSupported(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, q := range ladder {
		if tailSupported(n, q) {
			best, ok = q, true
		}
	}
	return best, ok
}

// percentile returns the nearest-rank q-th percentile of samples. It
// refuses (returns an error) when fewer than minTail samples lie beyond
// it, because such a tail is one or two outliers, not a measurement.
func percentile(samples []float64, q float64) (float64, error) {
	if !tailSupported(len(samples), q) {
		return 0, fmt.Errorf("p%g of %d samples has fewer than %d samples beyond it (need %d)",
			q*100, len(samples), minTail, minSamples(q))
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	return s[rank-1], nil
}

// median is the 50th percentile without the tail requirement, for small
// sets of repeated measurements (setup times, per-demand ratios).
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean is the arithmetic mean (0 for none).
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// geomean is the geometric mean of positive values (0 for none).
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
