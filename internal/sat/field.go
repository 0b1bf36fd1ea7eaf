// Package sat simulates the remote-sensing instruments the paper's
// prototype consumed live (GOES imagers, airborne cameras, LIDAR). This is
// the documented substitution for the real 20–60 GB/day satellite
// downlink: a deterministic procedural radiance field sampled through the
// same scan geometries, organizations (Fig. 1), and timestamping policies,
// so every operator-level behaviour the paper analyzes is exercised by the
// same code paths real data would take.
package sat

import (
	"math"
)

// hash64 is a 64-bit integer mix (splitmix64 finalizer); the noise
// functions build all randomness from it so fields are reproducible from
// a seed without math/rand state.
func hash64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// latticeNoise returns a deterministic pseudo-random value in [0, 1) for
// an integer lattice corner.
func latticeNoise(seed int64, ix, iy, it int64) float64 {
	h := hash64(uint64(seed)*0x9e3779b97f4a7c15 ^
		uint64(ix)*0xd6e8feb86659fd93 ^
		uint64(iy)*0xa2f9836e4e441529 ^
		uint64(it)*0xc2b2ae3d27d4eb4f)
	return float64(h>>11) / float64(1<<53)
}

// smoothstep is the C¹ fade used for value-noise interpolation.
func smoothstep(t float64) float64 { return t * t * (3 - 2*t) }

// Noise2 is deterministic 2-D value noise in [0, 1): bilinear blending of
// hashed lattice corners with smoothstep fade. `t` varies the field over
// scan sectors (drifting clouds, changing vegetation).
func Noise2(seed int64, x, y float64, t int64) float64 {
	ix, iy := math.Floor(x), math.Floor(y)
	fx, fy := x-ix, y-iy
	i, j := int64(ix), int64(iy)
	u, v := smoothstep(fx), smoothstep(fy)
	n00 := latticeNoise(seed, i, j, t)
	n10 := latticeNoise(seed, i+1, j, t)
	n01 := latticeNoise(seed, i, j+1, t)
	n11 := latticeNoise(seed, i+1, j+1, t)
	return (n00*(1-u)+n10*u)*(1-v) + (n01*(1-u)+n11*u)*v
}

// FBM is fractal Brownian motion: octaves of Noise2 with doubling
// frequency and halving amplitude, normalized to [0, 1).
func FBM(seed int64, x, y float64, t int64, octaves int) float64 {
	if octaves < 1 {
		octaves = 1
	}
	sum, amp, norm := 0.0, 1.0, 0.0
	fx, fy := x, y
	for o := 0; o < octaves; o++ {
		sum += amp * Noise2(seed+int64(o)*101, fx, fy, t)
		norm += amp
		amp /= 2
		fx *= 2
		fy *= 2
	}
	return sum / norm
}

// Field is a deterministic synthetic radiance field over geographic
// coordinates: Sample returns the radiance at (lon°, lat°) during scan
// sector `sector`.
type Field interface {
	Sample(lon, lat float64, sector int64) float64
}

// FieldFunc adapts a function to the Field interface.
type FieldFunc func(lon, lat float64, sector int64) float64

func (f FieldFunc) Sample(lon, lat float64, sector int64) float64 { return f(lon, lat, sector) }

// Scene is a correlated multi-band synthetic Earth scene: a slowly varying
// vegetation-fraction field plus a drifting cloud deck, from which the
// visible and near-infrared radiances are derived with opposite
// vegetation sensitivity — so NDVI computed from the two bands recovers
// the vegetation structure, making the paper's running data product
// meaningful on synthetic data.
type Scene struct {
	Seed int64
	// VegScale is the spatial scale of vegetation features in degrees.
	VegScale float64
	// CloudScale is the spatial scale of clouds in degrees; CloudDrift is
	// their longitudinal motion per sector in degrees.
	CloudScale float64
	CloudDrift float64
	// CloudCover in [0, 1] is the fraction of sky clouded.
	CloudCover float64
	// VMax is the full-scale radiance (GOES imager counts are 10-bit, so
	// 1023 by default).
	VMax float64
}

// DefaultScene returns a plausible western-US scene.
func DefaultScene(seed int64) *Scene {
	return &Scene{
		Seed:       seed,
		VegScale:   2.0,
		CloudScale: 5.0,
		CloudDrift: 0.4,
		CloudCover: 0.3,
		VMax:       1023,
	}
}

// Vegetation returns the vegetation fraction in [0, 1] at a location
// (time-invariant at sector scale).
func (s *Scene) Vegetation(lon, lat float64) float64 {
	return FBM(s.Seed, lon/s.VegScale, lat/s.VegScale, 0, 4)
}

// cloud returns cloud optical fraction in [0, 1] at a location and sector.
func (s *Scene) cloud(lon, lat float64, sector int64) float64 {
	c := FBM(s.Seed+7777, (lon+float64(sector)*s.CloudDrift)/s.CloudScale, lat/s.CloudScale, 0, 3)
	// Threshold into [0,1] coverage with soft edges.
	edge := 1 - s.CloudCover
	if c < edge {
		return 0
	}
	return (c - edge) / (1 - edge)
}

// Band names for the scene's spectral channels.
const (
	BandVIS = "vis"
	BandNIR = "nir"
	BandIR  = "ir"
)

// BandField derives a spectral band from the scene:
//
//	vis: bright over bare soil/clouds, dark over vegetation
//	nir: bright over vegetation and clouds
//	ir:  thermal proxy, anti-correlated with clouds
func (s *Scene) BandField(band string) Field {
	return FieldFunc(func(lon, lat float64, sector int64) float64 {
		veg := s.Vegetation(lon, lat)
		cld := s.cloud(lon, lat, sector)
		tex := 0.05 * Noise2(s.Seed+31, lon*40, lat*40, sector)
		var refl float64
		switch band {
		case BandVIS:
			refl = 0.35 - 0.25*veg
		case BandNIR:
			refl = 0.25 + 0.55*veg
		case BandIR:
			refl = 0.65 - 0.20*veg
		default:
			refl = 0.5
		}
		// Clouds are bright in vis/nir, cold (dark) in ir.
		if band == BandIR {
			refl = refl*(1-cld) + 0.15*cld
		} else {
			refl = refl*(1-cld) + 0.85*cld
		}
		v := (refl + tex) * s.VMax
		if v < 0 {
			v = 0
		}
		if v > s.VMax {
			v = s.VMax
		}
		return v
	})
}
