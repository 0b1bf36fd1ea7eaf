package imagealg

import (
	"fmt"
	"math"
)

// PixelFunc is a point-wise value transform f_val : V → W (Definition 8).
type PixelFunc func(float64) float64

// Scale returns f(v) = a·v + b.
func Scale(a, b float64) PixelFunc {
	return func(v float64) float64 { return a*v + b }
}

// Clamp limits values to [lo, hi]; NaN passes through.
func Clamp(lo, hi float64) PixelFunc {
	return func(v float64) float64 {
		if math.IsNaN(v) {
			return v
		}
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
}

// Gamma applies gamma correction on a normalized domain: values are mapped
// from [inMin, inMax] to [0,1], raised to 1/gamma, and mapped back.
func Gamma(gamma, inMin, inMax float64) PixelFunc {
	span := inMax - inMin
	return func(v float64) float64 {
		if math.IsNaN(v) || span <= 0 {
			return v
		}
		f := (v - inMin) / span
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		return inMin + span*math.Pow(f, 1/gamma)
	}
}

// Threshold maps values to hi when ≥ t, else lo.
func Threshold(t, lo, hi float64) PixelFunc {
	return func(v float64) float64 {
		if math.IsNaN(v) {
			return v
		}
		if v >= t {
			return hi
		}
		return lo
	}
}

// --- Frame-scoped stretches (§3.2) -----------------------------------------
//
// These are the value transforms the paper points out are NOT point-wise:
// "in order to fully utilize the complete range of values in V, point
// values can be scaled. Typical approaches include linear contrast
// stretch, histogram equalization, and Gaussian stretch. [...] information
// about previous point values needs to be maintained [...] this is
// typically done on individual frames of the stream G". The stream
// operator buffers a frame, fits one of these from the frame's values, and
// replays the frame through the fitted PixelFunc.

// FitLinearStretch builds the linear contrast stretch mapping the observed
// [min, max] of the frame onto [outMin, outMax].
func FitLinearStretch(m *Moments, outMin, outMax float64) (PixelFunc, error) {
	if outMax <= outMin {
		return nil, fmt.Errorf("imagealg: stretch output range [%g, %g] invalid", outMin, outMax)
	}
	if m.N == 0 || m.Max <= m.Min {
		// Degenerate frame: constant output midpoint.
		mid := (outMin + outMax) / 2
		return func(v float64) float64 {
			if math.IsNaN(v) {
				return v
			}
			return mid
		}, nil
	}
	a := (outMax - outMin) / (m.Max - m.Min)
	inMin := m.Min
	return func(v float64) float64 {
		if math.IsNaN(v) {
			return v
		}
		o := outMin + (v-inMin)*a
		if o < outMin {
			o = outMin
		}
		if o > outMax {
			o = outMax
		}
		return o
	}, nil
}

// FitEqualization builds the histogram-equalization transfer function: the
// output is the empirical CDF of the frame scaled onto [outMin, outMax],
// which flattens the value distribution.
func FitEqualization(h *Histogram, outMin, outMax float64) (PixelFunc, error) {
	if outMax <= outMin {
		return nil, fmt.Errorf("imagealg: equalization output range [%g, %g] invalid", outMin, outMax)
	}
	cdf := h.CDF()
	span := outMax - outMin
	hist := h
	return func(v float64) float64 {
		if math.IsNaN(v) {
			return v
		}
		if hist.N == 0 {
			return outMin
		}
		return outMin + span*cdf[hist.binOf(v)]
	}, nil
}

// FitGaussianStretch builds the Gaussian (histogram-matching) stretch: a
// value's empirical CDF position is pushed through the inverse normal CDF,
// producing an output whose distribution is approximately Gaussian with
// the given target mean and standard deviation, clamped at ±3σ.
func FitGaussianStretch(h *Histogram, targetMean, targetStd float64) (PixelFunc, error) {
	if targetStd <= 0 {
		return nil, fmt.Errorf("imagealg: gaussian stretch needs positive std, got %g", targetStd)
	}
	cdf := h.CDF()
	hist := h
	return func(v float64) float64 {
		if math.IsNaN(v) {
			return v
		}
		if hist.N == 0 {
			return targetMean
		}
		p := cdf[hist.binOf(v)]
		// Keep strictly inside (0, 1) so the probit is finite.
		const eps = 1e-6
		if p < eps {
			p = eps
		}
		if p > 1-eps {
			p = 1 - eps
		}
		z := probit(p)
		if z < -3 {
			z = -3
		}
		if z > 3 {
			z = 3
		}
		return targetMean + targetStd*z
	}, nil
}

// probit is the inverse standard normal CDF, via the Acklam rational
// approximation (relative error < 1.15e-9 over (0, 1)).
func probit(p float64) float64 {
	const (
		a1 = -3.969683028665376e+01
		a2 = 2.209460984245205e+02
		a3 = -2.759285104469687e+02
		a4 = 1.383577518672690e+02
		a5 = -3.066479806614716e+01
		a6 = 2.506628277459239e+00

		b1 = -5.447609879822406e+01
		b2 = 1.615858368580409e+02
		b3 = -1.556989798598866e+02
		b4 = 6.680131188771972e+01
		b5 = -1.328068155288572e+01

		c1 = -7.784894002430293e-03
		c2 = -3.223964580411365e-01
		c3 = -2.400758277161838e+00
		c4 = -2.549732539343734e+00
		c5 = 4.374664141464968e+00
		c6 = 2.938163982698783e+00

		d1 = 7.784695709041462e-03
		d2 = 3.224671290700398e-01
		d3 = 2.445134137142996e+00
		d4 = 3.754408661907416e+00

		pLow  = 0.02425
		pHigh = 1 - pLow
	)
	switch {
	case p <= 0:
		return math.Inf(-1)
	case p >= 1:
		return math.Inf(1)
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	case p > pHigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a1*r+a2)*r+a3)*r+a4)*r+a5)*r + a6) * q /
			(((((b1*r+b2)*r+b3)*r+b4)*r+b5)*r + 1)
	}
}
