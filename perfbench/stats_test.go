package main

import (
	"math"
	"testing"
)

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// Expected values are statistics.median(xs) and
	// statistics.quantiles(xs, n=4)[0] and [2] from Python 3.11.
	for _, tc := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75},
		{[]float64{7}, 7, 7, 7},
	} {
		s := summarize(tc.xs)
		if s.Median != tc.med || s.Q1 != tc.q1 || s.Q3 != tc.q3 || s.N != len(tc.xs) {
			t.Errorf("summarize(%v) = median %g q1 %g q3 %g n %d, want %g %g %g %d",
				tc.xs, s.Median, s.Q1, s.Q3, s.N, tc.med, tc.q1, tc.q3, len(tc.xs))
		}
	}
	if s := summarize(nil); !math.IsNaN(s.Median) {
		t.Errorf("summarize(nil).Median = %g, want NaN", s.Median)
	}
}

func TestSpreadAndVerdict(t *testing.T) {
	wall := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.10}
	rate := metricSpec{Name: "events_per_s", Better: "higher", Bound: 0.10}
	tight := func(m float64) summary { return summary{Median: m, Q1: 0.99 * m, Q3: 1.01 * m} }
	if got := tight(2).spread(); math.Abs(got-0.02) > 1e-12 {
		t.Errorf("spread = %g, want 0.02", got)
	}
	for _, tc := range []struct {
		m    metricSpec
		a, b summary
		want string
	}{
		{wall, tight(1), tight(1.05), "same"},
		{wall, tight(1), tight(1.2), "worse"},
		{wall, tight(1), tight(0.8), "better"},
		{rate, tight(1), tight(1.2), "better"},
		{rate, tight(1), tight(0.8), "worse"},
		{wall, summary{Median: 1, Q1: 0.8, Q3: 1.2}, tight(1.5), "unresolved"},
		{wall, tight(1), summary{Median: 1.5, Q1: 1, Q3: 2}, "unresolved"},
	} {
		if got := verdict(tc.a, tc.b, tc.m); got != tc.want {
			t.Errorf("verdict(%s, %g -> %g) = %s, want %s", tc.m.Name, tc.a.Median, tc.b.Median, got, tc.want)
		}
	}
	raw := summarize([]float64{1, 2, 3})
	if s := hostScaled(metricSpec{Unit: "s"}, raw, 2); s.Median != 4 || s.Q3 != 6 || s.Samples[0] != 2 || raw.Median != 2 {
		t.Errorf("seconds scaled by 2: %+v (raw %+v)", s, raw)
	}
	if s := hostScaled(metricSpec{Unit: "1/s"}, raw, 2); s.Median != 1 || s.Q1 != 0.5 {
		t.Errorf("rate scaled by 2: %+v", s)
	}
	if s := hostScaled(metricSpec{Unit: "MiB"}, raw, 2); s.Median != 2 {
		t.Errorf("MiB scaled: %+v", s)
	}
	if got := worseBy(tight(1), tight(1.1), "lower"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("worseBy lower = %g, want 0.1", got)
	}
	if got := worseBy(tight(1), tight(1.1), "higher"); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("worseBy higher = %g, want -0.1", got)
	}
}
