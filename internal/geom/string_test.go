package geom

import (
	"strings"
	"testing"
)

// The String methods feed the query language's EXPLAIN output and the
// optimizer's memoization keys (rewrite.go keys rewrites by the canonical
// textual form), so their stability matters beyond debugging.

func TestRegionStrings(t *testing.T) {
	poly, err := NewPolygonRegion([]Vec2{V2(0, 0), V2(1, 0), V2(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		r    Region
		want string
	}{
		{NewRectRegion(R(0, 0, 2, 3)), "rect(0, 0, 2, 3)"},
		{WorldRegion{}, "world()"},
		{poly, "polygon(0 0, 1 0, 1 1)"},
		{Intersect(NewRectRegion(R(0, 0, 1, 1)), WorldRegion{}), "intersect(rect(0, 0, 1, 1), world())"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
	// Disk renders its defining polynomial.
	d := Disk(0, 0, 1)
	if !strings.Contains(d.String(), "<= 0") {
		t.Errorf("disk String = %q", d.String())
	}
	// Untagged FuncRegion falls back to its box.
	f := FuncRegion{Fn: func(Vec2) bool { return true }, Box: R(0, 0, 1, 1)}
	if !strings.Contains(f.String(), "rect(") {
		t.Errorf("func region String = %q", f.String())
	}
}

func TestTimeSetStrings(t *testing.T) {
	rec, err := NewRecurring(24, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		ts   TimeSet
		want string
	}{
		{AllTime{}, "alltime()"},
		{NewInstants(5, 3), "instants(3, 5)"},
		{NewInterval(1, 9), "interval(1, 9)"},
		{Since(7), "since(7)"},
		{rec, "recurring(24, 6, 4)"},
		{IntersectTime(Since(1), Since(2)), "timeintersect(since(1), since(2))"},
	}
	for _, c := range cases {
		if got := c.ts.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestMiscStrings(t *testing.T) {
	if R(0, 0, 1, 1).String() != "rect(0, 0, 1, 1)" {
		t.Error("rect String wrong")
	}
	if EmptyRect().String() != "rect(empty)" {
		t.Error("empty rect String wrong")
	}
	if V2(1.5, -2).String() != "(1.5, -2)" {
		t.Error("vec String wrong")
	}
	if (Point{S: V2(1, 2), T: 3}).String() != "(1, 2)@3" {
		t.Error("point String wrong")
	}
	l, err := NewLattice(0, 0, 1, -1, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(l.String(), "4x4") {
		t.Errorf("lattice String = %q", l.String())
	}
	if !l.Equal(l) {
		t.Error("lattice must equal itself")
	}
	if !l.Contains(V2(2, -2)) || l.Contains(V2(50, 0)) {
		t.Error("lattice Contains wrong")
	}
}

func TestConstraintRegionDefaults(t *testing.T) {
	// x <= 5 over an unbounded box.
	cr := ConstraintRegion{
		Cons: []Constraint{{Poly: NewPoly(Monomial{Coeff: 1, XPow: 1}, Monomial{Coeff: -5})}},
		Box:  WorldRect(),
	}
	if !cr.Contains(V2(4, 100)) || cr.Contains(V2(6, 0)) {
		t.Fatal("constraint membership wrong")
	}
	if cr.Bounds() != WorldRect() {
		t.Fatalf("bounds = %v", cr.Bounds())
	}
	if !strings.Contains(cr.String(), "constraint(") {
		t.Fatalf("constraint String = %q", cr.String())
	}
	// Polynomial rendering includes powers.
	p := NewPoly(Monomial{Coeff: 2, XPow: 2, YPow: 1}, Monomial{Coeff: -1})
	if !strings.Contains(p.String(), "x^2") || !strings.Contains(p.String(), "y^1") {
		t.Fatalf("poly String = %q", p.String())
	}
	if NewPoly().String() != "0" {
		t.Fatal("zero poly String wrong")
	}
	// ipow handles the general exponent path.
	if got := ipow(2, 5); got != 32 {
		t.Fatalf("ipow(2,5) = %g", got)
	}
}

func TestPolygonVertices(t *testing.T) {
	verts := []Vec2{V2(0, 0), V2(4, 0), V2(2, 3)}
	p, err := NewPolygonRegion(verts)
	if err != nil {
		t.Fatal(err)
	}
	got := p.Vertices()
	if len(got) != 3 || got[2] != V2(2, 3) {
		t.Fatalf("Vertices = %v", got)
	}
	// Mutating the copy must not affect the polygon.
	got[0] = V2(99, 99)
	if p.Contains(V2(99, 99)) {
		t.Fatal("vertices not copied")
	}
}
