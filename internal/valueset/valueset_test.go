package valueset

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGammaApply(t *testing.T) {
	cases := []struct {
		g    Gamma
		a, b float64
		want float64
	}{
		{Add, 2, 3, 5},
		{Sub, 2, 3, -1},
		{Mul, 2, 3, 6},
		{Div, 6, 3, 2},
		{Sup, 2, 3, 3},
		{Inf, 2, 3, 2},
	}
	for _, c := range cases {
		if got := c.g.Apply(c.a, c.b); got != c.want {
			t.Errorf("%v.Apply(%g, %g) = %g, want %g", c.g, c.a, c.b, got, c.want)
		}
	}
}

func TestGammaNaNPropagation(t *testing.T) {
	nan := math.NaN()
	for _, g := range []Gamma{Add, Sub, Mul, Div, Sup, Inf} {
		if !math.IsNaN(g.Apply(nan, 1)) || !math.IsNaN(g.Apply(1, nan)) {
			t.Errorf("%v must propagate NaN", g)
		}
	}
	if !math.IsNaN(Div.Apply(1, 0)) {
		t.Fatal("division by zero must yield NaN")
	}
}

func TestGammaString(t *testing.T) {
	if Add.String() != "+" || Sup.String() != "sup" {
		t.Fatal("gamma String wrong")
	}
}

// Properties of the scalar γ-operations: commutativity of +, *, sup, inf;
// associativity of sup/inf; sup/inf absorption.
func TestScalarAlgebraLaws(t *testing.T) {
	add, mul, sup, inf := Add.Apply, Mul.Apply, Sup.Apply, Inf.Apply
	clean := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return math.Mod(v, 1e6)
	}
	comm := func(a, b float64) bool {
		a, b = clean(a), clean(b)
		return add(a, b) == add(b, a) &&
			mul(a, b) == mul(b, a) &&
			sup(a, b) == sup(b, a) &&
			inf(a, b) == inf(b, a)
	}
	if err := quick.Check(comm, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	lattice := func(a, b, c float64) bool {
		a, b, c = clean(a), clean(b), clean(c)
		assoc := sup(sup(a, b), c) == sup(a, sup(b, c)) &&
			inf(inf(a, b), c) == inf(a, inf(b, c))
		absorb := sup(a, inf(a, b)) == a && inf(a, sup(a, b)) == a
		return assoc && absorb
	}
	if err := quick.Check(lattice, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// 0 is the additive identity.
	if add(7.5, 0) != 7.5 {
		t.Fatal("zero not additive identity")
	}
}

func TestRangeSet(t *testing.T) {
	r, err := NewRange(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Contains(0) || !r.Contains(10) || !r.Contains(5) {
		t.Fatal("range must be closed")
	}
	if r.Contains(-0.001) || r.Contains(10.001) || r.Contains(math.NaN()) {
		t.Fatal("range membership wrong")
	}
	if _, err := NewRange(5, 1); err == nil {
		t.Fatal("inverted range must fail")
	}
	if _, err := NewRange(math.NaN(), 1); err == nil {
		t.Fatal("NaN bound must fail")
	}
}

func TestHalfLineAndFiniteSets(t *testing.T) {
	if !(Above{5}).Contains(5.01) || (Above{5}).Contains(5) {
		t.Fatal("above must be exclusive")
	}
	if !(Below{5}).Contains(4.99) || (Below{5}).Contains(5) {
		t.Fatal("below must be exclusive")
	}
	f := Finite{}
	if !f.Contains(0) || f.Contains(math.NaN()) || f.Contains(math.Inf(1)) {
		t.Fatal("finite membership wrong")
	}
	if !(AllValues{}).Contains(math.NaN()) {
		t.Fatal("allvalues must contain NaN")
	}
}

func TestSetIntersect(t *testing.T) {
	r, _ := NewRange(0, 10)
	x := IntersectSets(r, Above{3})
	if !x.Contains(5) || x.Contains(2) || x.Contains(11) {
		t.Fatal("set intersection wrong")
	}
	if IntersectSets(r) != Set(r) {
		t.Fatal("singleton intersect must be identity")
	}
	if !IntersectSets().Contains(math.NaN()) {
		t.Fatal("empty intersect must be allvalues")
	}
}
