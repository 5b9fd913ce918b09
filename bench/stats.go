package main

import (
	"sort"
	"time"

	"rslpa/internal/metrics"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: fewer and the value is one or two outliers, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of an ascending-sorted
// sample and whether at least minBeyond samples lie beyond it. An
// unsupported percentile is still returned (the contract line needs a
// number) but result files record it as null.
func percentile(sorted []float64, q float64) (v float64, supported bool) {
	if len(sorted) == 0 {
		return 0, false
	}
	v = metrics.Quantile(sorted, q)
	// Nearest-rank index of the q-quantile, as metrics.Quantile picks it.
	idx := sort.SearchFloat64s(sorted, v)
	for idx+1 < len(sorted) && sorted[idx+1] == v {
		idx++
	}
	return v, len(sorted)-1-idx >= minBeyond
}

// millis converts durations to ascending-sorted milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return metrics.Quantile(s, 0.5)
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
