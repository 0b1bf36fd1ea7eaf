// Package valueset implements the value-set side of Image Algebra as used
// by the GeoStreams data model (§2, Definition 2: "a value set V is an
// instance of a homogeneous algebra, that is, a set of values together
// with a set of operands").
//
// The engine's value set is float64, one spectral band per stream (§3.3).
// Two layers live here:
//
//   - Gamma: the γ-operations the composition operator needs
//     (γ ∈ {+, −, ×, ÷, sup, inf}), applied to scalar values.
//   - Set: predicates over scalar values, used by the value restriction
//     operator G|V (§3.1).
//
// Missing data is represented by NaN; every operation propagates NaN, and
// Sets never contain NaN unless they say so explicitly.
package valueset

import (
	"fmt"
	"math"
)

// Gamma identifies one of the binary composition operations of §3.3.
type Gamma int

const (
	Add Gamma = iota
	Sub
	Mul
	Div
	Sup // pointwise supremum (∨)
	Inf // pointwise infimum (∧)
)

func (g Gamma) String() string {
	switch g {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	case Sup:
		return "sup"
	case Inf:
		return "inf"
	}
	return fmt.Sprintf("gamma(%d)", int(g))
}

// Apply evaluates the γ-operation on scalar values. Division by zero and
// any NaN operand yield NaN (missing data propagates).
func (g Gamma) Apply(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.NaN()
	}
	switch g {
	case Add:
		return a + b
	case Sub:
		return a - b
	case Mul:
		return a * b
	case Div:
		if b == 0 {
			return math.NaN()
		}
		return a / b
	case Sup:
		return math.Max(a, b)
	case Inf:
		return math.Min(a, b)
	}
	return math.NaN()
}
