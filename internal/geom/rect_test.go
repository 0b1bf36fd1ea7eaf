package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRectConstruction(t *testing.T) {
	r := R(3, 4, 1, 2) // corners in "wrong" order must normalize
	want := Rect{MinX: 1, MinY: 2, MaxX: 3, MaxY: 4}
	if r != want {
		t.Fatalf("R(3,4,1,2) = %v, want %v", r, want)
	}
	if r.Width() != 2 || r.Height() != 2 {
		t.Fatalf("bad extents: w=%g h=%g", r.Width(), r.Height())
	}
}

func TestRectEmpty(t *testing.T) {
	e := EmptyRect()
	if !e.Empty() {
		t.Fatal("EmptyRect is not empty")
	}
	if e.Width() != 0 || e.Height() != 0 {
		t.Fatal("empty rect has non-zero extents")
	}
	if e.Contains(V2(0, 0)) {
		t.Fatal("empty rect contains a point")
	}
	if e.Intersects(WorldRect()) {
		t.Fatal("empty rect intersects world")
	}
	if WorldRect().Union(e) != WorldRect() {
		t.Fatal("empty rect must be contained in everything")
	}
}

func TestRectContains(t *testing.T) {
	r := R(0, 0, 10, 5)
	cases := []struct {
		v    Vec2
		want bool
	}{
		{V2(0, 0), true},   // corner inclusive
		{V2(10, 5), true},  // opposite corner inclusive
		{V2(5, 2.5), true}, // interior
		{V2(-0.001, 0), false},
		{V2(10.001, 5), false},
		{V2(5, 5.001), false},
	}
	for _, c := range cases {
		if got := r.Contains(c.v); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestRectIntersect(t *testing.T) {
	a := R(0, 0, 4, 4)
	b := R(2, 2, 6, 6)
	got := a.Intersect(b)
	want := R(2, 2, 4, 4)
	if got != want {
		t.Fatalf("Intersect = %v, want %v", got, want)
	}
	// Disjoint intersection is canonical empty.
	c := R(10, 10, 11, 11)
	if !a.Intersect(c).Empty() {
		t.Fatal("disjoint intersection not empty")
	}
	if a.Intersects(c) {
		t.Fatal("disjoint rects reported as intersecting")
	}
	// Touching edges intersect.
	d := R(4, 0, 8, 4)
	if !a.Intersects(d) {
		t.Fatal("edge-touching rects must intersect")
	}
}

func TestRectUnionExpand(t *testing.T) {
	a := R(0, 0, 1, 1)
	b := R(5, 5, 6, 6)
	u := a.Union(b)
	if u != R(0, 0, 6, 6) {
		t.Fatalf("Union = %v", u)
	}
	if a.Union(EmptyRect()) != a || EmptyRect().Union(a) != a {
		t.Fatal("union with empty must be identity")
	}
	e := a.Expand(2)
	if e != R(-2, -2, 3, 3) {
		t.Fatalf("Expand = %v", e)
	}
	if !a.Expand(-10).Empty() {
		t.Fatal("over-shrunk rect must be empty")
	}
}

func TestRectCornersCenter(t *testing.T) {
	r := R(0, 0, 2, 4)
	if r.Center() != V2(1, 2) {
		t.Fatalf("Center = %v", r.Center())
	}
	cs := r.Corners()
	for _, c := range cs {
		if !r.Contains(c) {
			t.Fatalf("corner %v not contained", c)
		}
	}
}

// Property: intersection is contained in both operands; union contains both.
func TestRectIntersectUnionProperties(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh float64) bool {
		a := R(clampF(ax), clampF(ay), clampF(ax)+math.Abs(clampF(aw)), clampF(ay)+math.Abs(clampF(ah)))
		b := R(clampF(bx), clampF(by), clampF(bx)+math.Abs(clampF(bw)), clampF(by)+math.Abs(clampF(bh)))
		i := a.Intersect(b)
		u := a.Union(b)
		// s ⊆ r exactly when r.Union(s) == r.
		if a.Union(i) != a || b.Union(i) != b {
			return false
		}
		if u.Union(a) != u || u.Union(b) != u {
			return false
		}
		// Intersects must agree with non-empty Intersect.
		return a.Intersects(b) == !i.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: a point contained in the intersection is contained in both.
func TestRectIntersectMembership(t *testing.T) {
	f := func(px, py, ax, ay, bx, by float64) bool {
		a := R(clampF(ax), clampF(ay), clampF(ax)+5, clampF(ay)+5)
		b := R(clampF(bx), clampF(by), clampF(bx)+5, clampF(by)+5)
		p := V2(clampF(px), clampF(py))
		return a.Intersect(b).Contains(p) == (a.Contains(p) && b.Contains(p))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// clampF maps arbitrary float64s (incl. NaN/Inf from quick) into a sane range.
func clampF(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1000)
}
