package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRectRegion(t *testing.T) {
	r := NewRectRegion(R(0, 0, 10, 10))
	if !r.Contains(V2(5, 5)) || r.Contains(V2(11, 5)) {
		t.Fatal("rect region membership wrong")
	}
	if r.Bounds() != R(0, 0, 10, 10) {
		t.Fatal("rect region bounds wrong")
	}
}

func TestWorldAndEmptyRegions(t *testing.T) {
	w := WorldRegion{}
	e := NewRectRegion(EmptyRect())
	pts := []Vec2{V2(0, 0), V2(1e9, -1e9), V2(-3.5, 42)}
	for _, p := range pts {
		if !w.Contains(p) {
			t.Fatalf("world must contain %v", p)
		}
		if e.Contains(p) {
			t.Fatalf("empty must not contain %v", p)
		}
	}
}

func TestPolygonRegionSquare(t *testing.T) {
	p, err := NewPolygonRegion([]Vec2{V2(0, 0), V2(4, 0), V2(4, 4), V2(0, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Contains(V2(2, 2)) {
		t.Fatal("interior not contained")
	}
	if p.Contains(V2(5, 2)) || p.Contains(V2(2, -1)) {
		t.Fatal("exterior contained")
	}
	if p.Bounds() != R(0, 0, 4, 4) {
		t.Fatalf("bounds = %v", p.Bounds())
	}
}

func TestPolygonRegionConcave(t *testing.T) {
	// L-shaped polygon: the notch (3,3) is outside.
	p, err := NewPolygonRegion([]Vec2{
		V2(0, 0), V2(4, 0), V2(4, 2), V2(2, 2), V2(2, 4), V2(0, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Contains(V2(1, 3)) || !p.Contains(V2(3, 1)) {
		t.Fatal("L-shape interior not contained")
	}
	if p.Contains(V2(3, 3)) {
		t.Fatal("L-shape notch must be outside")
	}
}

func TestPolygonRegionErrors(t *testing.T) {
	if _, err := NewPolygonRegion([]Vec2{V2(0, 0), V2(1, 1)}); err == nil {
		t.Fatal("2-vertex polygon must be rejected")
	}
}

func TestUnionIntersectComplementRegions(t *testing.T) {
	a := NewRectRegion(R(0, 0, 4, 4))
	b := NewRectRegion(R(2, 2, 6, 6))
	x := Intersect(a, b)

	cases := []struct {
		v   Vec2
		inX bool
	}{
		{V2(1, 1), false},
		{V2(3, 3), true},
		{V2(5, 5), false},
		{V2(9, 9), false},
	}
	for _, cse := range cases {
		if got := x.Contains(cse.v); got != cse.inX {
			t.Errorf("intersect.Contains(%v) = %v", cse.v, got)
		}
	}
	if x.Bounds() != R(2, 2, 4, 4) {
		t.Fatalf("intersect bounds = %v", x.Bounds())
	}
}

func TestUnionIntersectDegenerate(t *testing.T) {
	if _, ok := Intersect().(WorldRegion); !ok {
		t.Fatal("empty intersect must be WorldRegion")
	}
	a := NewRectRegion(R(0, 0, 1, 1))
	if Intersect(a) != Region(a) {
		t.Fatal("singleton intersect must be identity")
	}
}

// Property: membership in every kind of region is consistent with Bounds —
// Contains(v) implies Bounds().Contains(v).
func TestRegionBoundsConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	poly, err := NewPolygonRegion([]Vec2{V2(0, 0), V2(10, 2), V2(7, 9), V2(-2, 6)})
	if err != nil {
		t.Fatal(err)
	}
	regions := []Region{
		NewRectRegion(R(-3, -3, 8, 5)),
		poly,
		Disk(2, 2, 4),
		Intersect(NewRectRegion(R(0, 0, 8, 8)), Disk(4, 4, 3)),
	}
	for i := 0; i < 2000; i++ {
		v := V2(rng.Float64()*30-15, rng.Float64()*30-15)
		for _, r := range regions {
			if r.Contains(v) && !r.Bounds().Contains(v) {
				t.Fatalf("region %s contains %v outside bounds %v", r, v, r.Bounds())
			}
		}
	}
}

// Property: membership of an intersection agrees with the conjunction of
// memberships, for randomized rect pairs.
func TestRegionBooleanProperty(t *testing.T) {
	f := func(px, py, ax, ay, bx, by float64) bool {
		a := NewRectRegion(R(clampF(ax), clampF(ay), clampF(ax)+7, clampF(ay)+7))
		b := NewRectRegion(R(clampF(bx), clampF(by), clampF(bx)+7, clampF(by)+7))
		v := V2(clampF(px), clampF(py))
		return Intersect(a, b).Contains(v) == (a.Contains(v) && b.Contains(v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestConstraintDisk(t *testing.T) {
	d := Disk(3, 4, 2)
	if !d.Contains(V2(3, 4)) || !d.Contains(V2(4.9, 4)) {
		t.Fatal("disk interior not contained")
	}
	if d.Contains(V2(5.1, 4)) || d.Contains(V2(3, 6.1)) {
		t.Fatal("disk exterior contained")
	}
	if d.Bounds() != R(1, 2, 5, 6) {
		t.Fatalf("disk bounds = %v", d.Bounds())
	}
	// Boundary is inclusive (p ≤ 0).
	if !d.Contains(V2(5, 4)) {
		t.Fatal("disk boundary must be inclusive")
	}
}

func TestConstraintHalfPlanes(t *testing.T) {
	// Triangle x >= 0, y >= 0, x + y <= 4.
	halfPlane := func(a, b, c float64) Constraint { // a·x + b·y + c ≤ 0
		return Constraint{Poly: NewPoly(
			Monomial{Coeff: a, XPow: 1}, Monomial{Coeff: b, YPow: 1}, Monomial{Coeff: c})}
	}
	tri := ConstraintRegion{Box: R(0, 0, 4, 4), Cons: []Constraint{
		halfPlane(-1, 0, 0),
		halfPlane(0, -1, 0),
		halfPlane(1, 1, -4),
	}}
	if !tri.Contains(V2(1, 1)) {
		t.Fatal("triangle interior not contained")
	}
	if tri.Contains(V2(3, 3)) || tri.Contains(V2(-1, 1)) {
		t.Fatal("triangle exterior contained")
	}
}

func TestPolyEval(t *testing.T) {
	// p(x,y) = 2x² - 3xy + y - 7
	p := NewPoly(
		Monomial{Coeff: 2, XPow: 2},
		Monomial{Coeff: -3, XPow: 1, YPow: 1},
		Monomial{Coeff: 1, YPow: 1},
		Monomial{Coeff: -7},
	)
	got := p.Eval(2, 3)
	want := 2.0*4 - 3*6 + 3 - 7
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Eval = %g, want %g", got, want)
	}
	if NewPoly().Eval(5, 5) != 0 {
		t.Fatal("zero poly must evaluate to 0")
	}
}

func TestFuncRegion(t *testing.T) {
	f := FuncRegion{
		Fn:  func(v Vec2) bool { return v.X > 0 },
		Box: R(0, -10, 10, 10),
		Tag: "halfplane",
	}
	if !f.Contains(V2(1, 0)) || f.Contains(V2(-1, 0)) {
		t.Fatal("func region predicate ignored")
	}
	if f.String() != "halfplane" {
		t.Fatalf("String = %q", f.String())
	}
}
