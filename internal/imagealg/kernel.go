package imagealg

import (
	"fmt"
	"math"
)

// Kernel is a convolution kernel for the neighborhood operations the query
// model admits (§1: "perform different types of neighborhood operations
// and spatial transforms on image data"). Kernels are W×H with odd
// dimensions and an implicit center anchor.
type Kernel struct {
	W, H    int
	Weights []float64
}

// NewKernel validates and constructs a kernel.
func NewKernel(w, h int, weights []float64) (Kernel, error) {
	if w <= 0 || h <= 0 || w%2 == 0 || h%2 == 0 {
		return Kernel{}, fmt.Errorf("imagealg: kernel dimensions must be odd and positive, got %dx%d", w, h)
	}
	if len(weights) != w*h {
		return Kernel{}, fmt.Errorf("imagealg: kernel %dx%d needs %d weights, got %d", w, h, w*h, len(weights))
	}
	return Kernel{W: w, H: h, Weights: weights}, nil
}

// Box returns the n×n mean filter.
func Box(n int) (Kernel, error) {
	w := make([]float64, n*n)
	for i := range w {
		w[i] = 1 / float64(n*n)
	}
	return NewKernel(n, n, w)
}

// GaussianKernel returns an n×n Gaussian smoothing kernel with the given
// sigma, normalized to sum 1.
func GaussianKernel(n int, sigma float64) (Kernel, error) {
	if sigma <= 0 {
		return Kernel{}, fmt.Errorf("imagealg: gaussian sigma must be positive, got %g", sigma)
	}
	w := make([]float64, n*n)
	c := n / 2
	var sum float64
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			d2 := float64((x-c)*(x-c) + (y-c)*(y-c))
			v := math.Exp(-d2 / (2 * sigma * sigma))
			w[y*n+x] = v
			sum += v
		}
	}
	for i := range w {
		w[i] /= sum
	}
	return NewKernel(n, n, w)
}

// SobelX and SobelY are the standard 3×3 gradient kernels.
func SobelX() Kernel {
	k, _ := NewKernel(3, 3, []float64{-1, 0, 1, -2, 0, 2, -1, 0, 1})
	return k
}

func SobelY() Kernel {
	k, _ := NewKernel(3, 3, []float64{-1, -2, -1, 0, 0, 0, 1, 2, 1})
	return k
}

// EdgePolicy controls how convolution treats pixels outside the grid.
type EdgePolicy int

const (
	// EdgeClamp replicates the nearest edge pixel.
	EdgeClamp EdgePolicy = iota
	// EdgeZero treats outside pixels as 0.
	EdgeZero
	// EdgeNaN treats outside pixels as missing, producing NaN wherever
	// the kernel footprint leaves the grid.
	EdgeNaN
)

// Convolve applies the kernel to a w×h row-major grid and returns a new
// grid of the same shape. NaN input pixels propagate to every output pixel
// whose footprint covers them.
func Convolve(vals []float64, w, h int, k Kernel, edge EdgePolicy) ([]float64, error) {
	if len(vals) != w*h {
		return nil, fmt.Errorf("imagealg: grid %dx%d needs %d values, got %d", w, h, w*h, len(vals))
	}
	out := make([]float64, len(vals))
	cx, cy := k.W/2, k.H/2
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var acc float64
			bad := false
			for ky := 0; ky < k.H && !bad; ky++ {
				for kx := 0; kx < k.W; kx++ {
					sx, sy := x+kx-cx, y+ky-cy
					var v float64
					switch {
					case sx >= 0 && sx < w && sy >= 0 && sy < h:
						v = vals[sy*w+sx]
					case edge == EdgeClamp:
						if sx < 0 {
							sx = 0
						}
						if sx >= w {
							sx = w - 1
						}
						if sy < 0 {
							sy = 0
						}
						if sy >= h {
							sy = h - 1
						}
						v = vals[sy*w+sx]
					case edge == EdgeZero:
						v = 0
					default: // EdgeNaN
						v = math.NaN()
					}
					acc += v * k.Weights[ky*k.W+kx]
					if math.IsNaN(acc) {
						bad = true
						break
					}
				}
			}
			if bad {
				out[y*w+x] = math.NaN()
			} else {
				out[y*w+x] = acc
			}
		}
	}
	return out, nil
}
