package valueset

import (
	"fmt"
	"math"
	"strings"
)

// Set is a subset V' ⊆ V of scalar point values, the argument of the value
// restriction operator G|V' (§3.1). NaN (missing data) is never a member
// unless the implementation documents otherwise.
type Set interface {
	// Contains reports whether v is in the set.
	Contains(v float64) bool
	// String renders the set in the query-language syntax.
	String() string
}

// Range is the closed interval [Min, Max].
type Range struct {
	Min, Max float64
}

// NewRange validates and constructs a range set.
func NewRange(min, max float64) (Range, error) {
	if math.IsNaN(min) || math.IsNaN(max) {
		return Range{}, fmt.Errorf("valueset: range bounds must not be NaN")
	}
	if min > max {
		return Range{}, fmt.Errorf("valueset: range min %g > max %g", min, max)
	}
	return Range{Min: min, Max: max}, nil
}

func (r Range) Contains(v float64) bool { return v >= r.Min && v <= r.Max }
func (r Range) String() string          { return fmt.Sprintf("range(%g, %g)", r.Min, r.Max) }

// Above is the half line (Threshold, +∞).
type Above struct{ Threshold float64 }

func (a Above) Contains(v float64) bool { return v > a.Threshold }
func (a Above) String() string          { return fmt.Sprintf("above(%g)", a.Threshold) }

// Below is the half line (-∞, Threshold).
type Below struct{ Threshold float64 }

func (b Below) Contains(v float64) bool { return v < b.Threshold }
func (b Below) String() string          { return fmt.Sprintf("below(%g)", b.Threshold) }

// Finite contains every non-NaN, non-Inf value: the "has data" filter.
type Finite struct{}

func (Finite) Contains(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
func (Finite) String() string          { return "finite()" }

// AllValues contains everything including NaN; restricting to it is the
// identity.
type AllValues struct{}

func (AllValues) Contains(float64) bool { return true }
func (AllValues) String() string        { return "allvalues()" }

// SetIntersect is the intersection of value sets; the restriction-merge
// rewrite G|V1|V2 ⇒ G|(V1 ∩ V2) produces these.
type SetIntersect struct {
	Parts []Set
}

// IntersectSets combines value sets into their intersection.
func IntersectSets(parts ...Set) Set {
	switch len(parts) {
	case 0:
		return AllValues{}
	case 1:
		return parts[0]
	}
	return SetIntersect{Parts: parts}
}

func (x SetIntersect) Contains(v float64) bool {
	for _, p := range x.Parts {
		if !p.Contains(v) {
			return false
		}
	}
	return true
}

func (x SetIntersect) String() string {
	parts := make([]string, len(x.Parts))
	for i, p := range x.Parts {
		parts[i] = p.String()
	}
	return "valintersect(" + strings.Join(parts, ", ") + ")"
}
