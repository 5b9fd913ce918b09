// Package metrics provides the small measurement helpers the experiment
// harness uses: summary statistics over repeated runs and nearest-rank
// quantiles.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
	Median    float64
}

// Summarize computes summary statistics. An empty sample yields a zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs)}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.Median = sorted[len(sorted)/2]
	if len(sorted)%2 == 0 {
		s.Median = (sorted[len(sorted)/2-1] + sorted[len(sorted)/2]) / 2
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}

// String formats the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4f std=%.4f min=%.4f med=%.4f max=%.4f",
		s.N, s.Mean, s.Std, s.Min, s.Median, s.Max)
}

// Quantile returns the nearest-rank q-quantile of an ascending-sorted
// sample: the element at index ⌈q·n⌉−1, clamped to [0, n−1]. Nearest-rank
// always returns an observed value (no interpolation) and, unlike the naive
// xs[n*q] index (which degenerates to the max for every n < 1/(1−q)), its
// median of [1,2] is 1 and its p90 of ten elements is the 9th, not the 10th.
// The zero value of E is returned for an empty sample; sorted order is the
// caller's responsibility.
func Quantile[E ~int | ~int64 | ~float64](sorted []E, q float64) E {
	n := len(sorted)
	if n == 0 {
		var zero E
		return zero
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}
