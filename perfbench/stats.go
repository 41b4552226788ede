package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the sample guard: a percentile is reported only when at
// least this many samples lie beyond it.
const minBeyond = 10

// needSamples is the smallest sample count that supports percentile q.
func needSamples(q float64) int {
	return int(math.Ceil(float64(minBeyond)/(1-q) - 1e-9))
}

// Percentile returns the q-quantile of xs (linear interpolation between
// closest ranks) or an error when fewer than minBeyond samples lie
// beyond it.
func Percentile(xs []float64, q float64) (float64, error) {
	if len(xs) < needSamples(q) {
		return 0, fmt.Errorf("p%g needs %d samples, have %d", 100*q, needSamples(q), len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo], nil
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo]), nil
}

// Median is the 0.5-quantile without the sample guard, for small sets
// of repeated measurements (set-up times, drift probes).
func Median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
