package imagealg

import "math"

// BlockFunc is the contiguous-block twin of PixelFunc: it applies a
// point-wise transform to every element of src, writing results into dst
// (len(dst) == len(src); dst == src aliasing is allowed and is the common
// case for multi-stage in-place application). A block twin MUST be
// bit-identical to its PixelFunc applied element-by-element — the engine
// freely substitutes one for the other, and the bit-identity property
// tests in internal/query assert the equivalence end to end.
//
// The point of the twin is dispatch cost, not different math: a PixelFunc
// costs one indirect closure call per pixel, while a BlockFunc amortizes
// one call over a whole shard and gives the compiler a tight countable
// loop (bounds-check-eliminated, registerized) over a flat []float64 slab.
type BlockFunc func(dst, src []float64)

// BlockOf lifts any PixelFunc into a BlockFunc by applying it
// element-by-element. Bit-identical by construction; used as the fallback
// when no specialized twin exists.
func BlockOf(f PixelFunc) BlockFunc {
	return func(dst, src []float64) {
		for i, v := range src {
			dst[i] = f(v)
		}
	}
}

// ScaleBlock is the block twin of Scale: f(v) = a·v + b.
func ScaleBlock(a, b float64) BlockFunc {
	return func(dst, src []float64) {
		for i, v := range src {
			dst[i] = a*v + b
		}
	}
}

// ClampBlock is the block twin of Clamp. NaN compares false against both
// bounds, so it passes through exactly as in the scalar form.
func ClampBlock(lo, hi float64) BlockFunc {
	return func(dst, src []float64) {
		for i, v := range src {
			if v < lo {
				v = lo
			}
			if v > hi {
				v = hi
			}
			dst[i] = v
		}
	}
}

// GammaBlock is the block twin of Gamma, with the span validity check
// hoisted out of the loop.
func GammaBlock(gamma, inMin, inMax float64) BlockFunc {
	span := inMax - inMin
	inv := 1 / gamma
	return func(dst, src []float64) {
		if span <= 0 {
			if len(dst) > 0 && &dst[0] != &src[0] {
				copy(dst, src)
			}
			return
		}
		for i, v := range src {
			if math.IsNaN(v) {
				dst[i] = v
				continue
			}
			f := (v - inMin) / span
			if f < 0 {
				f = 0
			}
			if f > 1 {
				f = 1
			}
			dst[i] = inMin + span*math.Pow(f, inv)
		}
	}
}

// ThresholdBlock is the block twin of Threshold. A NaN input compares
// false against t and must stay NaN, matching the scalar form's explicit
// pass-through.
func ThresholdBlock(t, lo, hi float64) BlockFunc {
	return func(dst, src []float64) {
		for i, v := range src {
			switch {
			case math.IsNaN(v):
				dst[i] = v
			case v >= t:
				dst[i] = hi
			default:
				dst[i] = lo
			}
		}
	}
}

// FitLinearStretchBlocks is FitLinearStretch returning both the scalar
// transfer function and its block twin (used by the Stretch operator's
// frame replay).
func FitLinearStretchBlocks(m *Moments, outMin, outMax float64) (PixelFunc, BlockFunc, error) {
	fn, err := FitLinearStretch(m, outMin, outMax)
	if err != nil {
		return nil, nil, err
	}
	if m.N == 0 || m.Max <= m.Min {
		mid := (outMin + outMax) / 2
		return fn, func(dst, src []float64) {
			for i, v := range src {
				if math.IsNaN(v) {
					dst[i] = v
					continue
				}
				dst[i] = mid
			}
		}, nil
	}
	a := (outMax - outMin) / (m.Max - m.Min)
	inMin := m.Min
	return fn, func(dst, src []float64) {
		for i, v := range src {
			if math.IsNaN(v) {
				dst[i] = v
				continue
			}
			o := outMin + (v-inMin)*a
			if o < outMin {
				o = outMin
			}
			if o > outMax {
				o = outMax
			}
			dst[i] = o
		}
	}, nil
}

// FitEqualizationBlocks is FitEqualization plus a block twin. The transfer
// is bin-lookup-bound, so the twin is the generic element loop — the win
// here is only the amortized dispatch.
func FitEqualizationBlocks(h *Histogram, outMin, outMax float64) (PixelFunc, BlockFunc, error) {
	fn, err := FitEqualization(h, outMin, outMax)
	if err != nil {
		return nil, nil, err
	}
	return fn, BlockOf(fn), nil
}

// FitGaussianStretchBlocks is FitGaussianStretch plus a block twin.
func FitGaussianStretchBlocks(h *Histogram, targetMean, targetStd float64) (PixelFunc, BlockFunc, error) {
	fn, err := FitGaussianStretch(h, targetMean, targetStd)
	if err != nil {
		return nil, nil, err
	}
	return fn, BlockOf(fn), nil
}
