package workload

import (
	"math"
	"math/bits"
	"slices"

	"timebounds/internal/model"
	"timebounds/internal/spec"
)

// OnlineStats is a constant-memory streaming summary of a latency
// distribution: exact count/min/max/sum (so Mean matches the batch fold in
// SummarizeSamples bit for bit), Welford's M2 for variance, and a
// fixed-size log-bucketed quantile sketch.
//
// The sketch is an HDR-style histogram: values below 2^(sketchSubBits+1)
// ns land in exact unit buckets; larger values share one bucket per
// 2^-sketchSubBits relative slice of their octave. Percentile reads return
// the inclusive upper edge of the bucket holding the requested order
// statistic, so a sketched percentile never underestimates the exact one
// and overestimates it by at most a factor of 2^-sketchSubBits (≈ 0.8%).
// The bucket count is bounded by the value range alone — ≤ ~7.5k buckets
// for the full int64 nanosecond range — never by the number of
// observations, which is what lets a streaming consumer aggregate
// million-run grids without retaining histories.
type OnlineStats struct {
	count int64
	sum   int64
	min   model.Time
	max   model.Time
	mean  float64 // Welford running mean (float; Mean() uses sum/count)
	m2    float64 // Welford sum of squared deviations
	// sketch maps bucket index → observation count. Sparse: only buckets
	// that ever received an observation exist.
	sketch map[uint32]int64
}

// sketchSubBits is the sketch's per-octave resolution: 2^sketchSubBits
// buckets per power of two, giving ≤ 2^-sketchSubBits (≈ 0.78%) relative
// quantile error. Values below 2^(sketchSubBits+1) are exact.
const sketchSubBits = 7

// NewOnlineStats returns an empty streaming summary.
func NewOnlineStats() *OnlineStats {
	return &OnlineStats{sketch: make(map[uint32]int64)}
}

// Observe folds one latency into the summary. Negative values are clamped
// to zero (latencies and sojourns are non-negative by construction).
//
//tb:hotpath
func (s *OnlineStats) Observe(v model.Time) {
	if v < 0 {
		v = 0
	}
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.count++
	s.sum += int64(v)
	delta := float64(v) - s.mean
	s.mean += delta / float64(s.count)
	s.m2 += delta * (float64(v) - s.mean)
	if s.sketch == nil {
		s.sketch = make(map[uint32]int64)
	}
	s.sketch[bucketOf(v)]++
}

// Merge folds another summary into s (for combining per-worker or
// per-point summaries). Variance merging uses Chan et al.'s parallel
// update; sketches merge bucket-wise, so quantile error does not grow.
//
//tb:hotpath
func (s *OnlineStats) Merge(o *OnlineStats) {
	if o == nil || o.count == 0 {
		return
	}
	if s.count == 0 {
		*s = OnlineStats{count: o.count, sum: o.sum, min: o.min, max: o.max, mean: o.mean, m2: o.m2,
			sketch: make(map[uint32]int64, len(o.sketch))}
		for b, c := range o.sketch {
			s.sketch[b] = c
		}
		return
	}
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	delta := o.mean - s.mean
	total := s.count + o.count
	s.m2 += o.m2 + delta*delta*float64(s.count)*float64(o.count)/float64(total)
	s.mean += delta * float64(o.count) / float64(total)
	s.count = total
	s.sum += o.sum
	for b, c := range o.sketch {
		s.sketch[b] += c
	}
}

// Count returns the number of observations.
func (s *OnlineStats) Count() int { return int(s.count) }

// Min returns the smallest observation (0 when empty).
func (s *OnlineStats) Min() model.Time {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation (0 when empty).
func (s *OnlineStats) Max() model.Time { return s.max }

// Mean returns the truncating integer mean, the same sum/count fold
// SummarizeSamples uses (0 when empty).
func (s *OnlineStats) Mean() model.Time {
	if s.count == 0 {
		return 0
	}
	return model.Time(s.sum / s.count)
}

// StdDev returns the population standard deviation (0 when empty).
func (s *OnlineStats) StdDev() model.Time {
	if s.count == 0 {
		return 0
	}
	return model.Time(math.Sqrt(s.m2 / float64(s.count)))
}

// Percentile returns the p-th percentile from the sketch, using the same
// order-statistic index SummarizeSamples uses — idx = (count·p+p)/100,
// clamped — so a sketched P99 is comparable to an exact Stats.P99: equal
// below 2^(sketchSubBits+1) ns, otherwise within +2^-sketchSubBits
// relative (the sketch rounds up to its bucket edge, never down).
func (s *OnlineStats) Percentile(p int) model.Time {
	if s.count == 0 {
		return 0
	}
	idx := (s.count*int64(p) + int64(p)) / 100
	if idx >= s.count {
		idx = s.count - 1
	}
	buckets := make([]uint32, 0, len(s.sketch))
	for b := range s.sketch {
		buckets = append(buckets, b)
	}
	// Bucket indexes order by magnitude, so a sorted scan visits
	// observations in nondecreasing value order.
	slices.Sort(buckets)
	var seen int64
	for _, b := range buckets {
		seen += s.sketch[b]
		if seen > idx {
			v := bucketUpper(b)
			// The sketch cannot beat the exact extremes it tracks.
			if v > s.max {
				v = s.max
			}
			if v < s.min {
				v = s.min
			}
			return v
		}
	}
	return s.max
}

// P50 returns the sketched median.
func (s *OnlineStats) P50() model.Time { return s.Percentile(50) }

// P99 returns the sketched 99th percentile.
func (s *OnlineStats) P99() model.Time { return s.Percentile(99) }

// Stats snapshots the summary into the batch Stats shape: count, min, max
// and mean are exact; P99 comes from the sketch (see Percentile for the
// error bound).
func (s *OnlineStats) Stats(kind spec.OpKind) Stats {
	return Stats{
		Kind:  kind,
		Count: s.Count(),
		Min:   s.Min(),
		Max:   s.Max(),
		Mean:  s.Mean(),
		P99:   s.P99(),
	}
}

// bucketOf maps a non-negative value to its sketch bucket. Values below
// 2^(sketchSubBits+1) map to themselves (exact); a larger value with
// floor(log2) = e keeps its top sketchSubBits mantissa bits:
//
//	index = (e - sketchSubBits + 1) << sketchSubBits | mantissaTopBits
//
// which is monotone in the value, so bucket order is value order.
func bucketOf(v model.Time) uint32 {
	u := uint64(v)
	if u < 1<<(sketchSubBits+1) {
		return uint32(u)
	}
	e := uint32(bits.Len64(u)) - 1 // floor(log2 u) ≥ sketchSubBits+1
	shift := e - sketchSubBits
	mantissa := uint32(u>>shift) & (1<<sketchSubBits - 1)
	return (shift+1)<<sketchSubBits | mantissa
}

// bucketUpper returns the largest value mapping to the bucket — the
// inclusive upper edge Percentile reports.
func bucketUpper(b uint32) model.Time {
	if b < 1<<(sketchSubBits+1) {
		return model.Time(b)
	}
	shift := b>>sketchSubBits - 1
	mantissa := uint64(1<<sketchSubBits | b&(1<<sketchSubBits-1))
	return model.Time((mantissa+1)<<shift - 1)
}
