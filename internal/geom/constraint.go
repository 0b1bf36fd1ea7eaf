package geom

import (
	"fmt"
	"math"
	"strings"
)

// This file implements specification style (2) from §3.1 of the paper:
// regions described by "expressions of a constraint data model, i.e.,
// polynomials on variables x, y" (Rigaux/Scholl/Voisard, ch. 4). A region
// is a disjunction of conjunctions of polynomial inequalities p(x, y) ≤ 0.

// Monomial is a term c · x^i · y^j of a bivariate polynomial.
type Monomial struct {
	Coeff float64
	XPow  int
	YPow  int
}

// Poly is a bivariate polynomial, the sum of its monomials.
type Poly struct {
	Terms []Monomial
}

// NewPoly builds a polynomial from monomials, dropping zero terms.
func NewPoly(terms ...Monomial) Poly {
	out := make([]Monomial, 0, len(terms))
	for _, t := range terms {
		if t.Coeff != 0 {
			out = append(out, t)
		}
	}
	return Poly{Terms: out}
}

// Eval evaluates the polynomial at (x, y).
func (p Poly) Eval(x, y float64) float64 {
	var s float64
	for _, t := range p.Terms {
		s += t.Coeff * ipow(x, t.XPow) * ipow(y, t.YPow)
	}
	return s
}

func (p Poly) String() string {
	if len(p.Terms) == 0 {
		return "0"
	}
	parts := make([]string, len(p.Terms))
	for i, t := range p.Terms {
		s := fmt.Sprintf("%g", t.Coeff)
		if t.XPow > 0 {
			s += fmt.Sprintf("*x^%d", t.XPow)
		}
		if t.YPow > 0 {
			s += fmt.Sprintf("*y^%d", t.YPow)
		}
		parts[i] = s
	}
	return strings.Join(parts, " + ")
}

func ipow(b float64, e int) float64 {
	switch e {
	case 0:
		return 1
	case 1:
		return b
	case 2:
		return b * b
	}
	r := 1.0
	for i := 0; i < e; i++ {
		r *= b
	}
	return r
}

// Constraint is the inequality Poly(x, y) ≤ 0.
type Constraint struct {
	Poly Poly
}

// Holds reports whether the constraint is satisfied at v.
func (c Constraint) Holds(v Vec2) bool { return c.Poly.Eval(v.X, v.Y) <= 0 }

// ConstraintRegion is a conjunction of polynomial constraints, i.e. the set
// {(x, y) : p_k(x, y) ≤ 0 for all k}. Convex polytopes are the degree-1
// case; disks and ellipses are degree-2.
type ConstraintRegion struct {
	Cons []Constraint
	// Box is a caller-provided conservative bounding rectangle. General
	// semialgebraic sets have no computable tight bounds, so constructors
	// that know the geometry (Disk) fill this in.
	Box Rect
}

func (c ConstraintRegion) Contains(v Vec2) bool {
	for _, k := range c.Cons {
		if !k.Holds(v) {
			return false
		}
	}
	return true
}

func (c ConstraintRegion) Bounds() Rect { return c.Box }

func (c ConstraintRegion) String() string {
	parts := make([]string, len(c.Cons))
	for i, k := range c.Cons {
		parts[i] = k.Poly.String() + " <= 0"
	}
	return "constraint(" + strings.Join(parts, " and ") + ")"
}

// Disk returns the constraint region (x-cx)² + (y-cy)² - r² ≤ 0 with a
// tight bounding box.
func Disk(cx, cy, r float64) ConstraintRegion {
	r = math.Abs(r)
	p := NewPoly(
		Monomial{Coeff: 1, XPow: 2},
		Monomial{Coeff: 1, YPow: 2},
		Monomial{Coeff: -2 * cx, XPow: 1},
		Monomial{Coeff: -2 * cy, YPow: 1},
		Monomial{Coeff: cx*cx + cy*cy - r*r},
	)
	return ConstraintRegion{
		Cons: []Constraint{{Poly: p}},
		Box:  Rect{MinX: cx - r, MinY: cy - r, MaxX: cx + r, MaxY: cy + r},
	}
}
