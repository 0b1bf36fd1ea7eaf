package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustLattice(t *testing.T, x0, y0, dx, dy float64, w, h int) Lattice {
	t.Helper()
	l, err := NewLattice(x0, y0, dx, dy, w, h)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLatticeValidate(t *testing.T) {
	if _, err := NewLattice(0, 0, 1, -1, 10, 10); err != nil {
		t.Fatalf("valid lattice rejected: %v", err)
	}
	bad := []Lattice{
		{DX: 1, DY: 1, W: 0, H: 5},
		{DX: 1, DY: 1, W: 5, H: -1},
		{DX: 0, DY: 1, W: 5, H: 5},
		{DX: 1, DY: 0, W: 5, H: 5},
	}
	for _, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("lattice %+v must be invalid", l)
		}
	}
}

func TestLatticeCoordIndexRoundTrip(t *testing.T) {
	l := mustLattice(t, -122.5, 38.0, 0.01, -0.01, 200, 150)
	for _, c := range [][2]int{{0, 0}, {199, 149}, {57, 93}, {1, 0}} {
		v := l.Coord(c[0], c[1])
		col, row, ok := l.Index(v)
		if !ok || col != c[0] || row != c[1] {
			t.Fatalf("round trip (%d,%d) -> %v -> (%d,%d,%v)", c[0], c[1], v, col, row, ok)
		}
	}
	// Out-of-lattice coordinates report !ok.
	if _, _, ok := l.Index(V2(-130, 38)); ok {
		t.Fatal("far point reported inside lattice")
	}
}

func TestLatticeRoundTripProperty(t *testing.T) {
	l := mustLattice(t, 10, 20, 0.5, -0.25, 64, 48)
	f := func(ci, ri uint16) bool {
		col := int(ci) % l.W
		row := int(ri) % l.H
		c2, r2, ok := l.Index(l.Coord(col, row))
		return ok && c2 == col && r2 == row
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestLatticeBounds(t *testing.T) {
	l := mustLattice(t, 0, 10, 1, -1, 11, 11) // x: 0..10, y: 10..0
	if l.Bounds() != R(0, 0, 10, 10) {
		t.Fatalf("Bounds = %v", l.Bounds())
	}
	cb := l.CellBounds()
	if cb != R(-0.5, -0.5, 10.5, 10.5) {
		t.Fatalf("CellBounds = %v", cb)
	}
	if l.NumPoints() != 121 {
		t.Fatalf("NumPoints = %d", l.NumPoints())
	}
}

func TestLatticeRowSubGrid(t *testing.T) {
	l := mustLattice(t, 0, 0, 2, 3, 10, 10)
	r := l.Row(4)
	if r.H != 1 || r.W != 10 || r.Y0 != 12 {
		t.Fatalf("Row(4) = %+v", r)
	}
	rs := l.Rows(2, 5)
	if rs.H != 3 || rs.Y0 != 6 {
		t.Fatalf("Rows(2,5) = %+v", rs)
	}
	sg := l.SubGrid(3, 4, 5, 2)
	if sg.X0 != 6 || sg.Y0 != 12 || sg.W != 5 || sg.H != 2 {
		t.Fatalf("SubGrid = %+v", sg)
	}
	// Sub-lattice coordinates must coincide with parent coordinates.
	if sg.Coord(0, 0) != l.Coord(3, 4) {
		t.Fatal("subgrid origin coordinate mismatch")
	}
	if sg.Coord(4, 1) != l.Coord(7, 5) {
		t.Fatal("subgrid far coordinate mismatch")
	}
}

func TestLatticeClipRect(t *testing.T) {
	// North-up lattice: y decreases with row.
	l := mustLattice(t, 0, 9, 1, -1, 10, 10) // x: 0..9, y: 9..0
	c0, r0, c1, r1, ok := l.ClipRect(R(2.5, 3.5, 6.5, 7.5))
	if !ok {
		t.Fatal("clip reported empty")
	}
	// Columns with x in [2.5, 6.5] -> 3..6; rows with y in [3.5, 7.5]:
	// y = 9 - row, so rows 2..5.
	if c0 != 3 || c1 != 7 || r0 != 2 || r1 != 6 {
		t.Fatalf("clip = cols [%d,%d) rows [%d,%d)", c0, c1, r0, r1)
	}
	// Every clipped point must be inside the rect; every inside point clipped.
	rect := R(2.5, 3.5, 6.5, 7.5)
	for row := 0; row < l.H; row++ {
		for col := 0; col < l.W; col++ {
			in := rect.Contains(l.Coord(col, row))
			clipped := col >= c0 && col < c1 && row >= r0 && row < r1
			if in != clipped {
				t.Fatalf("point (%d,%d)=%v in=%v clipped=%v", col, row, l.Coord(col, row), in, clipped)
			}
		}
	}
}

func TestLatticeClipRectInfinite(t *testing.T) {
	// Restriction to world() clips against an infinite rect: everything
	// must survive (regression: ±Inf→int conversion used to empty it).
	l := mustLattice(t, 0, 9, 1, -1, 10, 10)
	c0, r0, c1, r1, ok := l.ClipRect(WorldRect())
	if !ok || c0 != 0 || r0 != 0 || c1 != 10 || r1 != 10 {
		t.Fatalf("world clip = [%d,%d)x[%d,%d) ok=%v", c0, c1, r0, r1, ok)
	}
	// Half-infinite rect: only one side bounded.
	c0, r0, c1, r1, ok = l.ClipRect(Rect{MinX: 4.5, MinY: mInf(), MaxX: mPInf(), MaxY: mPInf()})
	if !ok || c0 != 5 || c1 != 10 || r0 != 0 || r1 != 10 {
		t.Fatalf("half-infinite clip = [%d,%d)x[%d,%d) ok=%v", c0, c1, r0, r1, ok)
	}
}

func mInf() float64  { return math.Inf(-1) }
func mPInf() float64 { return math.Inf(1) }

func TestLatticeClipRectDisjointAndCovering(t *testing.T) {
	l := mustLattice(t, 0, 0, 1, 1, 10, 10)
	if _, _, _, _, ok := l.ClipRect(R(100, 100, 110, 110)); ok {
		t.Fatal("disjoint clip must be empty")
	}
	if _, _, _, _, ok := l.ClipRect(EmptyRect()); ok {
		t.Fatal("empty-rect clip must be empty")
	}
	c0, r0, c1, r1, ok := l.ClipRect(R(-100, -100, 100, 100))
	if !ok || c0 != 0 || r0 != 0 || c1 != 10 || r1 != 10 {
		t.Fatalf("covering clip = [%d,%d)x[%d,%d) ok=%v", c0, c1, r0, r1, ok)
	}
}

func TestLatticeClipRectProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	l := mustLattice(t, -5, 12, 0.75, -0.5, 33, 21)
	for i := 0; i < 300; i++ {
		x0 := rng.Float64()*40 - 20
		y0 := rng.Float64()*40 - 10
		rect := R(x0, y0, x0+rng.Float64()*20, y0+rng.Float64()*15)
		c0, r0, c1, r1, ok := l.ClipRect(rect)
		count := 0
		for row := 0; row < l.H; row++ {
			for col := 0; col < l.W; col++ {
				if rect.Contains(l.Coord(col, row)) {
					count++
					if !ok || col < c0 || col >= c1 || row < r0 || row >= r1 {
						t.Fatalf("point (%d,%d) in rect but outside clip", col, row)
					}
				}
			}
		}
		if ok && (c1-c0)*(r1-r0) != count {
			t.Fatalf("clip size %d != brute count %d", (c1-c0)*(r1-r0), count)
		}
		if !ok && count != 0 {
			t.Fatalf("clip empty but %d points inside", count)
		}
	}
}

func TestLatticeSameGeometry(t *testing.T) {
	l := mustLattice(t, 0, 0, 0.5, -0.5, 100, 100)
	shifted := l.SubGrid(10, 20, 30, 30)
	if !l.SameGeometry(shifted) {
		t.Fatal("subgrid must share geometry")
	}
	other := mustLattice(t, 0, 0, 0.25, -0.5, 100, 100)
	if l.SameGeometry(other) {
		t.Fatal("different spacing must not share geometry")
	}
	misaligned := mustLattice(t, 0.1, 0, 0.5, -0.5, 100, 100)
	if l.SameGeometry(misaligned) {
		t.Fatal("misaligned origin must not share geometry")
	}
}

func TestLatticeFracIndex(t *testing.T) {
	l := mustLattice(t, 0, 0, 2, 4, 10, 10)
	fc, fr := l.FracIndex(V2(3, 6))
	if fc != 1.5 || fr != 1.5 {
		t.Fatalf("FracIndex = (%g, %g)", fc, fr)
	}
}

func TestTimeSets(t *testing.T) {
	inst := NewInstants(3, 7, 11)
	if !inst.Contains(7) || inst.Contains(5) || inst.Len() != 3 {
		t.Fatal("instants membership wrong")
	}
	iv := NewInterval(10, 20)
	if !iv.Contains(10) || iv.Contains(20) || !iv.Contains(19) {
		t.Fatal("interval must be half-open [start, end)")
	}
	if !NewInterval(5, 5).Empty() {
		t.Fatal("degenerate interval must be empty")
	}
	s := Since(100)
	if !s.Contains(1<<40) || s.Contains(99) {
		t.Fatal("open-ended interval wrong")
	}
	if !(AllTime{}).Contains(-5) {
		t.Fatal("alltime must contain everything")
	}
}

func TestRecurringTimeSet(t *testing.T) {
	// Period 24, active [6, 10): "every day 06:00-10:00".
	r, err := NewRecurring(24, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		t    Timestamp
		want bool
	}{
		{6, true}, {9, true}, {10, false}, {5, false},
		{24 + 7, true}, {48 + 3, false}, {-24 + 8, true}, {-17, true}, // -17 mod 24 = 7
	} {
		if got := r.Contains(c.t); got != c.want {
			t.Errorf("recurring.Contains(%d) = %v, want %v", c.t, got, c.want)
		}
	}
	// Wrap-around window [22, 22+4) spans midnight.
	w, err := NewRecurring(24, 22, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		t    Timestamp
		want bool
	}{
		{22, true}, {23, true}, {24, true}, {25, true}, {26, false}, {21, false},
	} {
		if got := w.Contains(c.t); got != c.want {
			t.Errorf("wrap recurring.Contains(%d) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestRecurringValidation(t *testing.T) {
	if _, err := NewRecurring(0, 0, 1); err == nil {
		t.Fatal("zero period must be rejected")
	}
	if _, err := NewRecurring(10, 10, 1); err == nil {
		t.Fatal("offset >= period must be rejected")
	}
	if _, err := NewRecurring(10, 0, 11); err == nil {
		t.Fatal("length > period must be rejected")
	}
	if _, err := NewRecurring(10, 0, 0); err == nil {
		t.Fatal("zero length must be rejected")
	}
}

func TestTimeUnionIntersect(t *testing.T) {
	a := NewInterval(0, 10)
	b := NewInterval(5, 15)
	x := IntersectTime(a, b)
	for _, c := range []struct {
		t   Timestamp
		inX bool
	}{
		{0, false}, {7, true}, {12, false}, {20, false},
	} {
		if got := x.Contains(c.t); got != c.inX {
			t.Errorf("intersect(%d) = %v", c.t, got)
		}
	}
	if IntersectTime(a) != TimeSet(a) {
		t.Fatal("singleton intersection must be identity")
	}
	if !IntersectTime().Contains(0) {
		t.Fatal("empty intersection must be alltime")
	}
}

func TestVecOps(t *testing.T) {
	a := V2(3, 4)
	if a != (Vec2{X: 3, Y: 4}) {
		t.Fatal("V2 wrong")
	}
	if a.AlmostEq(V2(3, 4.1), 1e-9) {
		t.Fatal("almostEq must reject a distant point")
	}
	if !a.AlmostEq(V2(3+1e-12, 4-1e-12), 1e-9) {
		t.Fatal("almostEq wrong")
	}
}
