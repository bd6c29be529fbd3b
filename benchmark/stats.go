package main

import (
	"math"
	"math/bits"
	"sort"
)

// median returns the median of xs (0 for an empty slice); xs is not
// reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rankOf is the 1-based nearest-rank index of the p-th percentile among
// n samples.
func rankOf(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentileOf returns the nearest-rank p-th percentile of xs.
func percentileOf(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankOf(p, len(s))-1]
}

// reportPercentiles are the tail percentiles a timing may be reported at.
var reportPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie beyond a reported percentile:
// fewer and the percentile is set by a handful of outliers.
const minBeyond = 10

// hiPercentile picks the highest reporting percentile that still has at
// least minBeyond of the n samples beyond it. ok is false when even the
// median has fewer (n < 20); the caller then reports the median alone.
func hiPercentile(n int) (p float64, ok bool) {
	for i := len(reportPercentiles) - 1; i >= 0; i-- {
		p := reportPercentiles[i]
		if n-rankOf(p, n) >= minBeyond {
			return p, true
		}
	}
	return 50, false
}

// tailOf returns the highest reporting percentile xs supports and its
// value, falling back to the median when there are too few samples.
func tailOf(xs []float64) (pct, value float64) {
	p, ok := hiPercentile(len(xs))
	if !ok || p == 50 {
		return 50, median(xs)
	}
	return p, percentileOf(xs, p)
}

// selfNs is a span's self time: its duration minus its children's,
// clamped at zero (children measured on another clock read, or
// overlapping each other, can sum past the parent).
func selfNs(dur int64, children ...int64) int64 {
	for _, c := range children {
		dur -= c
	}
	if dur < 0 {
		return 0
	}
	return dur
}

// histSubBits is latHist's resolution: 2^histSubBits buckets per octave,
// so a bucket spans at most 0.1 % of its value.
const histSubBits = 10

// latHist pools operation latencies (nanoseconds) across iterations in
// constant memory. Each bucket remembers the largest sample it received
// and percentile reads return that sample, so a reported percentile is
// always a latency that was measured — exact whenever the bucket holding
// the order statistic received one distinct value (every simulated point
// mass), and within 0.1 % otherwise.
type latHist struct {
	counts []uint64
	maxs   []int64
	n      uint64
}

// histBucket maps a non-negative value to its bucket; the mapping is
// monotone, so bucket order is value order.
func histBucket(v int64) int {
	u := uint64(v)
	if u < 1<<(histSubBits+1) {
		return int(u)
	}
	e := bits.Len64(u) - 1
	shift := uint(e - histSubBits)
	mantissa := int(u>>shift) & (1<<histSubBits - 1)
	return (int(shift)+1)<<histSubBits | mantissa
}

func (h *latHist) add(v int64) {
	if v < 0 {
		v = 0
	}
	b := histBucket(v)
	if b >= len(h.counts) {
		h.counts = append(h.counts, make([]uint64, b+1-len(h.counts))...)
		h.maxs = append(h.maxs, make([]int64, b+1-len(h.maxs))...)
	}
	h.counts[b]++
	if v > h.maxs[b] {
		h.maxs[b] = v
	}
	h.n++
}

// reset empties the histogram, keeping its buckets.
func (h *latHist) reset() {
	clear(h.counts)
	clear(h.maxs)
	h.n = 0
}

// percentile returns the nearest-rank p-th percentile (0 when empty).
func (h *latHist) percentile(p float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			return h.maxs[b]
		}
	}
	return h.maxs[len(h.maxs)-1]
}
