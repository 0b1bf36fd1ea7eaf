package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// DefaultDurationBounds are the upper bucket bounds, in seconds, used for
// latency and chunk-age histograms: exponential-ish coverage from 25µs
// (a cheap restriction on one row chunk) to 30s (a stalled pipeline), with
// an implicit +Inf overflow bucket.
var DefaultDurationBounds = []float64{
	25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10, 30,
}

// Histogram is a fixed-bucket histogram safe for concurrent recording
// without locks: every bucket is an atomic counter and the sum accumulates
// via a compare-and-swap loop on the float bits. Observations are
// float64s; bucket bounds are inclusive upper bounds (Prometheus `le`
// semantics), with one implicit +Inf overflow bucket.
//
// A nil *Histogram is valid and records nothing, so zero-value Stats
// instances stay usable.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the observation sum
}

// NewHistogram builds a histogram with the given ascending upper bounds.
// Bounds are copied; an empty slice yields a single +Inf bucket.
func NewHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// NewDurationHistogram builds a histogram over DefaultDurationBounds
// (seconds).
func NewDurationHistogram() *Histogram { return NewHistogram(DefaultDurationBounds) }

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose bound is >= v (le semantics).
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		new := floatBits(floatFromBits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Snapshot captures the histogram state. The per-bucket reads are
// individually atomic but not mutually consistent under concurrent
// recording; for monitoring that skew is harmless (and self-corrects on
// the next scrape).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    floatFromBits(h.sumBits.Load()),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	// Bounds are the inclusive upper bounds; Counts has one extra entry
	// for the +Inf overflow bucket. Counts are per-bucket, not cumulative.
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// inside the bucket containing the target rank, the standard
// fixed-bucket estimator. Observations in the overflow bucket report the
// largest finite bound. Returns 0 for an empty snapshot.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Counts) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(s.Bounds) {
			// Overflow bucket: no finite upper bound to interpolate to.
			if len(s.Bounds) == 0 {
				return 0
			}
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		return lo + (hi-lo)*((rank-prev)/float64(c))
	}
	return s.Bounds[len(s.Bounds)-1]
}
