// Package metrics provides the small statistics toolkit the simulator
// and the experiment harness share: integer histograms (message hop
// distributions, Table 3), running summaries (Welford mean/variance),
// and time series (the utilization-versus-time plots).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Hist is a histogram over small non-negative integers (e.g. hop counts).
// The zero value is ready to use.
//
//simlint:mergeable
type Hist struct {
	counts []int64
	total  int64
	sum    int64
}

// Add increments the bucket for v (v must be >= 0).
func (h *Hist) Add(v int) {
	if v < 0 {
		panic("metrics: negative histogram value")
	}
	for v >= len(h.counts) {
		h.counts = append(h.counts, 0)
	}
	h.counts[v]++
	h.total++
	h.sum += int64(v)
}

// Merge folds another histogram's observations into h (bucket counts
// add), leaving o untouched. The result equals having Added both
// streams into one histogram, in any order — the per-shard statistics
// of a sharded run merge with this.
func (h *Hist) Merge(o *Hist) {
	for v, c := range o.counts {
		if c == 0 {
			continue
		}
		for v >= len(h.counts) {
			h.counts = append(h.counts, 0)
		}
		h.counts[v] += c
	}
	h.total += o.total
	h.sum += o.sum
}

// Count returns the number of observations in bucket v.
func (h *Hist) Count(v int) int64 {
	if v < 0 || v >= len(h.counts) {
		return 0
	}
	return h.counts[v]
}

// Total returns the number of observations.
func (h *Hist) Total() int64 { return h.total }

// Max returns the largest observed value (-1 when empty).
func (h *Hist) Max() int {
	for v := len(h.counts) - 1; v >= 0; v-- {
		if h.counts[v] > 0 {
			return v
		}
	}
	return -1
}

// Mean returns the average observed value (0 when empty).
func (h *Hist) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Percentile returns the smallest value v such that at least p (0..1) of
// the observations are <= v. Empty histograms return 0.
func (h *Hist) Percentile(p float64) int {
	if h.total == 0 {
		return 0
	}
	need := int64(math.Ceil(p * float64(h.total)))
	if need < 1 {
		need = 1
	}
	var cum int64
	for v, c := range h.counts {
		cum += c
		if cum >= need {
			return v
		}
	}
	return len(h.counts) - 1
}

// Counts returns a copy of the bucket counts from 0 to Max.
func (h *Hist) Counts() []int64 {
	m := h.Max()
	out := make([]int64, m+1)
	copy(out, h.counts[:m+1])
	return out
}

// String renders "v:count" pairs, e.g. "0:4068 1:2372 … mean=0.92".
func (h *Hist) String() string {
	var b strings.Builder
	for v, c := range h.counts {
		if c > 0 {
			fmt.Fprintf(&b, "%d:%d ", v, c)
		}
	}
	fmt.Fprintf(&b, "mean=%.2f", h.Mean())
	return b.String()
}

// Summary accumulates a stream of float64 observations with Welford's
// online algorithm. The zero value is ready to use.
//
//simlint:mergeable
type Summary struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// Merge folds another summary into s using Chan et al.'s parallel
// variance combination, leaving o untouched. Counts, means, min and max
// combine exactly; m2 combines up to float rounding (the same rounding
// a different Add order exhibits).
func (s *Summary) Merge(o *Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *o
		return
	}
	n := s.n + o.n
	d := o.mean - s.mean
	s.m2 += o.m2 + d*d*float64(s.n)*float64(o.n)/float64(n)
	s.mean += d * float64(o.n) / float64(n)
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.n = n
}

// N returns the observation count.
func (s *Summary) N() int64 { return s.n }

// Mean returns the running mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the sample variance (0 for fewer than 2 observations).
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the sample standard deviation.
func (s *Summary) Stddev() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation (0 when empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 when empty).
func (s *Summary) Max() float64 { return s.max }

// String implements fmt.Stringer.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f", s.n, s.Mean(), s.Stddev(), s.min, s.max)
}

// Sample accumulates a latency-style distribution (sojourn times). By
// default it retains every observation so exact order statistics can be
// computed afterwards — right when tail percentiles matter and the
// observation count per run is modest. For unbounded streams (100k-job
// arrival runs), Bound caps memory: past the cap the sample collapses
// into a streaming log-linear histogram whose percentiles carry ~3%
// relative error while mean, min, max and count stay exact. The zero
// value is ready to use (exact mode).
//
//simlint:mergeable
type Sample struct {
	xs     []float64
	sorted bool     //simlint:nomerge folded via Add replay in Merge, which resets it per observation
	limit  int      //simlint:nomerge bound config: the destination sample's bound governs the merged stream
	h      *logHist // non-nil once collapsed
}

// Bound caps the sample at limit raw observations (limit must be
// positive). If the cap is already exceeded the sample collapses
// immediately. Bounded samples answer Percentile approximately (~3%
// relative error, non-negative observations only); N, Mean, Min and Max
// remain exact.
func (s *Sample) Bound(limit int) {
	if limit <= 0 {
		panic("metrics: Sample.Bound needs a positive limit")
	}
	s.limit = limit
	if len(s.xs) > limit {
		s.collapse()
	}
}

// Bounded reports whether the sample has collapsed to streaming form.
func (s *Sample) Bounded() bool { return s.h != nil }

func (s *Sample) collapse() {
	s.h = newLogHist()
	for _, x := range s.xs {
		s.h.add(x)
	}
	s.xs, s.sorted = nil, false
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	if s.h != nil {
		s.h.add(x)
		return
	}
	s.xs = append(s.xs, x)
	s.sorted = false
	if s.limit > 0 && len(s.xs) > s.limit {
		s.collapse()
	}
}

// Merge folds another sample's observations into s, leaving o
// untouched. Exact-mode inputs replay observation by observation (so
// bounds still trigger as if the values had been Added directly);
// a collapsed input forces s to collapse too and the histograms merge
// bucket-exactly.
func (s *Sample) Merge(o *Sample) {
	if o.h != nil {
		if s.h == nil {
			s.collapse()
		}
		s.h.merge(o.h)
		return
	}
	for _, x := range o.xs {
		s.Add(x)
	}
}

// N returns the observation count.
func (s *Sample) N() int {
	if s.h != nil {
		return int(s.h.n)
	}
	return len(s.xs)
}

// Mean returns the arithmetic mean (exact in both modes). Empty samples
// return NaN — "no data" must not read as a perfect zero in latency
// reports.
func (s *Sample) Mean() float64 {
	if s.h != nil {
		return s.h.mean()
	}
	if len(s.xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Percentile returns the p-quantile (p in [0,1]) by the nearest-rank
// method: the smallest observation such that at least p of the data is
// <= it. Empty samples return NaN. Bounded samples answer from the
// streaming histogram (~3% relative error).
func (s *Sample) Percentile(p float64) float64 {
	if s.h != nil {
		return s.h.percentile(p)
	}
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.sort()
	rank := int(math.Ceil(p*float64(len(s.xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s.xs) {
		rank = len(s.xs) - 1
	}
	return s.xs[rank]
}

// Min returns the smallest observation (NaN when empty).
func (s *Sample) Min() float64 {
	if s.h != nil {
		return s.h.min()
	}
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.sort()
	return s.xs[0]
}

// Max returns the largest observation (NaN when empty).
func (s *Sample) Max() float64 {
	if s.h != nil {
		return s.h.max()
	}
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.sort()
	return s.xs[len(s.xs)-1]
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// String renders the five-number-ish summary used in run reports.
func (s *Sample) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%.0f p99=%.0f max=%.0f",
		s.N(), s.Mean(), s.Percentile(0.50), s.Percentile(0.99), s.Max())
}

// Point is one sample of a time series.
type Point struct {
	T float64
	V float64
}

// Series is an append-only time series. By default every sample is
// retained; Bound caps memory for month-long virtual runs (the
// time-series analogue of Sample.Bound).
type Series struct {
	Label  string
	Points []Point

	thin Thinning[Point]
}

// Bound caps the series at limit retained points; see Thinning.Bound.
// A retained point keeps its original windowed value: a bounded series
// is a subsample of the exact one, not a re-aggregation, so per-window
// figures (utilization %, windowed p99) stay individually exact while
// the time resolution halves per doubling.
func (s *Series) Bound(limit int) { s.Points = s.thin.Bound(s.Points, limit) }

// Bounded reports whether the series has dropped samples to stay under
// its bound.
func (s *Series) Bounded() bool { return s.thin.Bounded() }

// Add appends a sample (or, past a bound, every stride-th sample).
func (s *Series) Add(t, v float64) {
	if s.thin.Keep() {
		s.Points = s.thin.Push(s.Points, Point{t, v})
	}
}

// Thinning bounds an append-only slice of T — Series points, the load
// monitor's frames — by halving and stride doubling. It holds the bound
// and the stride; the owner holds the slice and passes it through.
type Thinning[T any] struct {
	limit  int // 0 = retain everything
	stride int // record every stride-th offered item (1 = all)
	skip   int // items dropped since the last recorded one
}

// Bound caps items at limit retained entries (limit must be >= 2) and
// returns them, thinned at once if already over the cap. Past the cap,
// every other retained item is dropped and the stride between future
// recordings doubles, so arbitrarily long runs keep at most limit
// roughly uniformly spaced items. Bound(0) restores the default —
// retain every item from here on — and limit 1 (or negative) panics.
func (th *Thinning[T]) Bound(items []T, limit int) []T {
	if limit == 0 {
		th.limit, th.stride, th.skip = 0, 1, 0
		return items
	}
	if limit < 2 {
		panic("metrics: Bound needs limit 0 (exact) or >= 2")
	}
	th.limit = limit
	if th.stride == 0 {
		th.stride = 1
	}
	for len(items) > th.limit {
		items = th.halve(items)
	}
	return items
}

// Bounded reports whether items have been dropped to stay under the
// bound.
func (th *Thinning[T]) Bounded() bool { return th.stride > 1 }

// Keep reports whether the next offered item is recorded: past a bound,
// only every stride-th one is.
func (th *Thinning[T]) Keep() bool {
	if th.stride > 1 {
		if th.skip++; th.skip < th.stride {
			return false
		}
		th.skip = 0
	}
	return true
}

// Push appends a kept item to items, thinning past the bound.
func (th *Thinning[T]) Push(items []T, v T) []T {
	items = append(items, v)
	if th.limit > 0 && len(items) > th.limit {
		items = th.halve(items)
	}
	return items
}

// halve keeps every other item and doubles the recording stride.
func (th *Thinning[T]) halve(items []T) []T {
	kept := items[:0]
	for i := 0; i < len(items); i += 2 {
		kept = append(kept, items[i])
	}
	// Zero the dropped tail so anything it references is collectable.
	clear(items[len(kept):])
	th.stride *= 2
	th.skip = 0
	return kept
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Points) }

// MaxV returns the largest sample value (0 when empty).
func (s *Series) MaxV() float64 {
	m := 0.0
	for _, p := range s.Points {
		if p.V > m {
			m = p.V
		}
	}
	return m
}

// At returns the interpolated value at time t (nearest-neighbor for
// out-of-range queries). Series must be sorted by T, which Add preserves
// when samples arrive in time order.
func (s *Series) At(t float64) float64 {
	n := len(s.Points)
	if n == 0 {
		return 0
	}
	i := sort.Search(n, func(i int) bool { return s.Points[i].T >= t })
	if i == 0 {
		return s.Points[0].V
	}
	if i == n {
		return s.Points[n-1].V
	}
	a, b := s.Points[i-1], s.Points[i]
	if b.T == a.T {
		return b.V
	}
	frac := (t - a.T) / (b.T - a.T)
	return a.V + frac*(b.V-a.V)
}

// Mean returns the unweighted mean of the sample values.
func (s *Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.Points {
		sum += p.V
	}
	return sum / float64(len(s.Points))
}

// Ratio returns a/b guarding against a zero denominator (returns 0).
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// JainIndex returns Jain's fairness index (Σx)²/(n·Σx²) for
// non-negative values: 1.0 when all values are equal (perfectly even
// load), approaching 1/n when one element holds everything. Returns 1
// for empty or all-zero input (nothing to be unfair about).
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}
