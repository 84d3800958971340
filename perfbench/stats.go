package main

import (
	"math"
	"sort"
)

// summary is the distribution of one metric over a set's passes.
type summary struct {
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

// summarize returns the median and quartiles of xs. The quartiles follow
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so a
// spread computed here matches one computed from the same samples there.
func summarize(xs []float64) summary {
	s := summary{N: len(xs), Samples: append([]float64(nil), xs...)}
	if len(xs) == 0 {
		s.Median, s.Q1, s.Q3 = math.NaN(), math.NaN(), math.NaN()
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = median(sorted)
	s.Q1, s.Q3 = quartiles(sorted)
	return s
}

// median returns the median of sorted data, averaging the middle pair.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles returns the first and third quartile of sorted data by the
// exclusive method: position i·(n+1)/4, clamped to the data, linearly
// interpolated. One sample is its own quartiles.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	if n == 1 {
		return sorted[0], sorted[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return q(1), q(3)
}

// scaled returns s with every value multiplied by f > 0.
func (s summary) scaled(f float64) summary {
	out := s
	out.Median, out.Q1, out.Q3 = f*s.Median, f*s.Q1, f*s.Q3
	out.Samples = make([]float64, len(s.Samples))
	for i, x := range s.Samples {
		out.Samples[i] = f * x
	}
	return out
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return math.Inf(1)
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// worseBy is how much worse b's median is than a's, as a share of a's:
// positive when b is worse in the metric's direction, negative when
// better.
func worseBy(a, b summary, better string) float64 {
	d := (b.Median - a.Median) / math.Abs(a.Median)
	if better == "higher" {
		return -d
	}
	return d
}

// verdict compares set b against set a on one metric. It is
// "unresolved" when either set's spread exceeds the bound, since a move
// inside the noise says nothing; otherwise "worse" or "better" when the
// medians differ by more than the bound, and "same" when they do not.
func verdict(a, b summary, m metricSpec) string {
	if a.spread() > m.Bound || b.spread() > m.Bound {
		return "unresolved"
	}
	switch w := worseBy(a, b, m.Better); {
	case w > m.Bound:
		return "worse"
	case w < -m.Bound:
		return "better"
	}
	return "same"
}
