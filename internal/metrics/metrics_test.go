package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{4.5})
	if s.N != 1 || s.Mean != 4.5 || s.Std != 0 || s.Median != 4.5 || s.Min != 4.5 || s.Max != 4.5 {
		t.Fatalf("single summary: %+v", s)
	}
}

func TestSummarizeKnownValues(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Mean != 5 {
		t.Fatalf("mean %v", s.Mean)
	}
	// Sample std of this classic dataset is sqrt(32/7).
	if want := math.Sqrt(32.0 / 7.0); math.Abs(s.Std-want) > 1e-12 {
		t.Fatalf("std %v want %v", s.Std, want)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max %v/%v", s.Min, s.Max)
	}
	if s.Median != 4.5 {
		t.Fatalf("median %v", s.Median)
	}
}

func TestSummarizeOddMedian(t *testing.T) {
	s := Summarize([]float64{9, 1, 5})
	if s.Median != 5 {
		t.Fatalf("median %v", s.Median)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		q    float64
		want int64
	}{
		{0, 10},      // clamped to the first rank
		{0.05, 10},   // ceil(0.5)−1 = 0
		{0.10, 10},   // ceil(1)−1 = 0
		{0.50, 50},   // ceil(5)−1 = 4: the classic nearest-rank median
		{0.55, 60},   // ceil(5.5)−1 = 5
		{0.99, 100},  // ceil(9.9)−1 = 9
		{0.901, 100}, // anything past rank 9 lands on the last element
		{0.90, 90},   // ceil(9)−1 = 8 — NOT the max, unlike xs[n*99/100]
		{1.0, 100},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); got != c.want {
			t.Errorf("Quantile(q=%v) = %d, want %d", c.q, got, c.want)
		}
	}
}

func TestQuantileSmallSamples(t *testing.T) {
	if got := Quantile([]int64(nil), 0.99); got != 0 {
		t.Fatalf("empty sample: %d", got)
	}
	if got := Quantile([]float64{7.5}, 0.99); got != 7.5 {
		t.Fatalf("singleton: %v", got)
	}
	// The bug this helper replaces: idx = n*99/100 is n−1 (the max) for
	// every n < 100. Nearest-rank p50 of [1,2] must be 1, not 2.
	if got := Quantile([]int{1, 2}, 0.5); got != 1 {
		t.Fatalf("p50 of two elements: %d", got)
	}
	if got := Quantile([]int{1, 2}, 0.99); got != 2 {
		t.Fatalf("p99 of two elements: %d", got)
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	out := s.String()
	if !strings.Contains(out, "n=3") || !strings.Contains(out, "mean=2.0000") {
		t.Fatalf("String: %q", out)
	}
}
