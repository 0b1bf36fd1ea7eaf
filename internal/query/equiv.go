package query

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"geostreams/internal/geom"
	"geostreams/internal/stream"
)

// This file is the shared core of the algebraic equivalence harness: a
// random plan generator and a bit-exact output fingerprint. The property
// tests here and the shared-execution tests in internal/share compare
// plan variants (naive vs optimized+fused vs shared-trunk) through the
// same Fingerprint, so "equivalent" means the
// same thing everywhere: identical value bits at identical points, and the
// same punctuation sequence.

// RandPlanText generates a random query string over the bands nir/vis: a
// pipeline of random unary operators over a leaf that may itself be a
// binary composition (including commutative forms, so signature
// normalization gets exercised). With allowStretch the plan may gain a
// stretch stage — excluded from optimizer-equivalence runs because pushing
// restrictions below a stretch legitimately changes its fit window (§3
// product semantics), and from shared trunks because that state is
// per-query.
func RandPlanText(rng *rand.Rand, allowStretch bool) string {
	leaf := func() string {
		switch rng.Intn(8) {
		case 0:
			return "nir"
		case 1:
			return "vis"
		case 2:
			return "(nir - vis)"
		case 3:
			return "(nir + vis)"
		case 4:
			return "(nir * vis)"
		case 5:
			return "sup(nir, vis)"
		case 6:
			return "inf(vis, nir)"
		default:
			return "ndvi(nir, vis)"
		}
	}
	q := leaf()
	depth := 1 + rng.Intn(3)
	for i := 0; i < depth; i++ {
		switch rng.Intn(9) {
		case 0:
			q = fmt.Sprintf("rselect(%s, rect(%g, %g, %g, %g))", q,
				-122+rng.Float64(), 36+rng.Float64(),
				-121+rng.Float64(), 37+rng.Float64())
		case 1:
			q = fmt.Sprintf("tselect(%s, interval(0, %d))", q, 1+rng.Intn(3))
		case 2:
			q = fmt.Sprintf("vselect(%s, range(%d, %d))", q, -2000, 2000)
		case 3:
			q = fmt.Sprintf("scale(%s, %g, %g)", q, 0.5+rng.Float64(), rng.Float64()*10)
		case 4:
			q = fmt.Sprintf("clamp(%s, -1000, 1000)", q)
		case 5:
			q = fmt.Sprintf("zoomin(%s, 2)", q)
		case 6:
			q = fmt.Sprintf("zoomout(%s, 2)", q)
		case 7:
			q = fmt.Sprintf("boxfilter(%s, 3)", q)
		case 8:
			q = fmt.Sprintf("gammac(%s, %g, 0, 1000)", q, 1+rng.Float64())
		}
	}
	if allowStretch && rng.Intn(3) == 0 {
		q = fmt.Sprintf("stretch(%s, linear, 0, 255)", q)
	}
	if rng.Intn(2) == 0 {
		q = fmt.Sprintf("rselect(%s, rect(-121.8, 36.2, -120.2, 37.8))", q)
	}
	return q
}

// PointKey identifies a data point by micro-degree-quantized location and
// exact timestamp. Locations are quantized because structurally different
// but equivalent plan shapes (teed vs rebuilt subtrees, shared vs private
// operators) can differ in the last ulp of derived lattice origins; values
// are never quantized.
type PointKey [3]int64

// Key quantizes a point's location into its fingerprint key.
func Key(p geom.Point) PointKey {
	return PointKey{
		int64(math.Round(p.S.X * 1e6)),
		int64(math.Round(p.S.Y * 1e6)),
		int64(p.T),
	}
}

// canonicalNaN collapses every NaN payload to one bit pattern: operators
// may produce differently-payloaded NaNs through algebraically identical
// routes, and IEEE 754 does not order NaN payloads.
var canonicalNaN = math.Float64bits(math.NaN())

// Fingerprint is the bit-exact observable output of one query execution:
// every data point's value bits by location/time, and the ordered
// punctuation (end-of-sector) timestamps. Two executions of equivalent
// plans over the same input must produce equal fingerprints.
type Fingerprint struct {
	Values map[PointKey]uint64
	Punct  []geom.Timestamp
}

// FingerprintChunks folds an execution's collected output chunks into a
// fingerprint.
func FingerprintChunks(chunks []*stream.Chunk) Fingerprint {
	fp := Fingerprint{Values: map[PointKey]uint64{}}
	for _, c := range chunks {
		if c.Kind == stream.KindEndOfSector {
			fp.Punct = append(fp.Punct, c.T)
			continue
		}
		c.ForEachPoint(func(p geom.Point, v float64) {
			bits := math.Float64bits(v)
			if math.IsNaN(v) {
				bits = canonicalNaN
			}
			fp.Values[Key(p)] = bits
		})
	}
	return fp
}

// Diff reports the first discrepancy between two fingerprints, or "" when
// they are bit-identical. `a` and `b` name the two executions in messages.
func (fp Fingerprint) Diff(other Fingerprint, a, b string) string {
	if len(fp.Punct) != len(other.Punct) {
		return fmt.Sprintf("punctuation count: %s has %d, %s has %d",
			a, len(fp.Punct), b, len(other.Punct))
	}
	for i := range fp.Punct {
		if fp.Punct[i] != other.Punct[i] {
			return fmt.Sprintf("punctuation %d: %s at t=%d, %s at t=%d",
				i, a, fp.Punct[i], b, other.Punct[i])
		}
	}
	if len(fp.Values) != len(other.Values) {
		return fmt.Sprintf("point count: %s has %d, %s has %d",
			a, len(fp.Values), b, len(other.Values))
	}
	// Deterministic iteration so a persistent mismatch reports stably.
	keys := make([]PointKey, 0, len(fp.Values))
	for k := range fp.Values {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a[2] != b[2] {
			return a[2] < b[2]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[0] < b[0]
	})
	for _, k := range keys {
		ov, ok := other.Values[k]
		if !ok {
			return fmt.Sprintf("point %v: present in %s, missing in %s", k, a, b)
		}
		if v := fp.Values[k]; v != ov {
			return fmt.Sprintf("point %v: %s=%g (%016x), %s=%g (%016x)",
				k, a, math.Float64frombits(v), v, b, math.Float64frombits(ov), ov)
		}
	}
	return ""
}
