// Package imagealg provides the pixel- and frame-level image functions the
// GeoStreams value transforms apply (§3.2): point-wise maps, the
// frame-buffered scaling transforms the paper names (linear contrast
// stretch, histogram equalization, Gaussian stretch), and convolution
// kernels for neighborhood operations.
package imagealg

import (
	"fmt"
	"math"
)

// Histogram is a fixed-range, fixed-bin-count histogram over scalar pixel
// values. NaN values are ignored; out-of-range values clamp into the edge
// bins, which matches the behaviour of typical remote-sensing stretch
// pipelines.
type Histogram struct {
	Min, Max float64
	Counts   []int64
	N        int64
}

// NewHistogram creates a histogram over [min, max] with the given number
// of bins.
func NewHistogram(min, max float64, bins int) (*Histogram, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("imagealg: histogram needs positive bin count, got %d", bins)
	}
	if !(min < max) {
		return nil, fmt.Errorf("imagealg: histogram range [%g, %g] invalid", min, max)
	}
	return &Histogram{Min: min, Max: max, Counts: make([]int64, bins)}, nil
}

// binOf maps a value to its bin index, clamping to the edges.
func (h *Histogram) binOf(v float64) int {
	f := (v - h.Min) / (h.Max - h.Min)
	b := int(f * float64(len(h.Counts)))
	if b < 0 {
		b = 0
	}
	if b >= len(h.Counts) {
		b = len(h.Counts) - 1
	}
	return b
}

// Add records a value; NaN is ignored.
func (h *Histogram) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.Counts[h.binOf(v)]++
	h.N++
}

// Merge folds another histogram's counts into h. Both must have the same
// range and bin count (the engine's parallel fitting always merges shard
// partials built from one NewHistogram configuration); mismatched shapes
// return an error.
func (h *Histogram) Merge(o *Histogram) error {
	if o == nil {
		return nil
	}
	if len(o.Counts) != len(h.Counts) || o.Min != h.Min || o.Max != h.Max {
		return fmt.Errorf("imagealg: merging histogram [%g, %g]/%d into [%g, %g]/%d",
			o.Min, o.Max, len(o.Counts), h.Min, h.Max, len(h.Counts))
	}
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.N += o.N
	return nil
}

// CDF returns the empirical cumulative distribution evaluated at the upper
// edge of each bin, as fractions in [0, 1]. An empty histogram returns all
// zeros.
func (h *Histogram) CDF() []float64 {
	out := make([]float64, len(h.Counts))
	if h.N == 0 {
		return out
	}
	var run int64
	for i, c := range h.Counts {
		run += c
		out[i] = float64(run) / float64(h.N)
	}
	return out
}

// Moments accumulates the count and extremes of all values recorded
// (exactly, not through the binning); the linear stretch fits to them.
type Moments struct {
	N        int64
	Min, Max float64
}

// NewMoments returns an empty accumulator.
func NewMoments() *Moments {
	return &Moments{Min: math.Inf(1), Max: math.Inf(-1)}
}

// Add records a value; NaN is ignored.
func (m *Moments) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	m.N++
	if v < m.Min {
		m.Min = v
	}
	if v > m.Max {
		m.Max = v
	}
}

// Merge folds another accumulator into m.
func (m *Moments) Merge(o *Moments) {
	if o == nil || o.N == 0 {
		return
	}
	m.N += o.N
	if o.Min < m.Min {
		m.Min = o.Min
	}
	if o.Max > m.Max {
		m.Max = o.Max
	}
}
