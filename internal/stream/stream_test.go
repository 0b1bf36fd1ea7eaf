package stream

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"geostreams/internal/coord"
	"geostreams/internal/geom"
)

// pt constructs a spatio-temporal point (x, y)@t.
func pt(x, y float64, t geom.Timestamp) geom.Point { return geom.Point{S: geom.V2(x, y), T: t} }

func testLattice(t *testing.T, w, h int) geom.Lattice {
	t.Helper()
	l, err := geom.NewLattice(0, float64(h-1), 1, -1, w, h)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func testInfo() Info {
	return Info{
		Band: "vis",
		CRS:  coord.LatLon{},
		Org:  RowByRow,
		VMin: 0, VMax: 1023,
	}
}

func seqVals(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i)
	}
	return v
}

func TestGridChunkConstruction(t *testing.T) {
	lat := testLattice(t, 4, 3)
	c, err := NewGridChunk(7, lat, seqVals(12))
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind != KindGrid || c.T != 7 || c.NumPoints() != 12 || !c.IsData() {
		t.Fatalf("bad grid chunk: %+v", c)
	}
	// Value count mismatch must be rejected.
	if _, err := NewGridChunk(7, lat, seqVals(11)); err == nil {
		t.Fatal("mismatched value count must fail")
	}
}

func TestGridChunkForEachPointOrder(t *testing.T) {
	lat := testLattice(t, 3, 2) // y: 1 (row 0), 0 (row 1)
	c, err := NewGridChunk(5, lat, seqVals(6))
	if err != nil {
		t.Fatal(err)
	}
	var pts []geom.Point
	var vals []float64
	c.ForEachPoint(func(p geom.Point, v float64) {
		pts = append(pts, p)
		vals = append(vals, v)
	})
	if len(pts) != 6 {
		t.Fatalf("visited %d points", len(pts))
	}
	// Row-major: first point is (0, 1), fourth is (0, 0).
	if pts[0] != pt(0, 1, 5) || pts[3] != pt(0, 0, 5) || pts[5] != pt(2, 0, 5) {
		t.Fatalf("point order wrong: %v", pts)
	}
	for i, v := range vals {
		if v != float64(i) {
			t.Fatalf("value order wrong at %d: %g", i, v)
		}
	}
}

func TestPointsChunk(t *testing.T) {
	pts := []PointValue{
		{P: pt(1, 2, 10), V: 0.5},
		{P: pt(3, 4, 12), V: 0.7},
		{P: pt(5, 6, 11), V: 0.9},
	}
	c, err := NewPointsChunk(pts)
	if err != nil {
		t.Fatal(err)
	}
	if c.T != 12 {
		t.Fatalf("chunk T = %d, want max point T 12", c.T)
	}
	if c.NumPoints() != 3 {
		t.Fatalf("NumPoints = %d", c.NumPoints())
	}
	b := c.Bounds()
	if b != geom.R(1, 2, 5, 6) {
		t.Fatalf("Bounds = %v", b)
	}
	if _, err := NewPointsChunk(nil); err == nil {
		t.Fatal("empty points chunk must fail")
	}
}

func TestEndOfSectorChunk(t *testing.T) {
	lat := testLattice(t, 8, 8)
	c := NewEndOfSector(3, lat)
	if c.Kind != KindEndOfSector || c.IsData() || c.NumPoints() != 0 {
		t.Fatalf("bad EOS chunk: %+v", c)
	}
	if c.Sector.T != 3 || c.Sector.Extent != lat {
		t.Fatal("EOS metadata wrong")
	}
	if !c.Bounds().Empty() {
		t.Fatal("EOS bounds must be empty")
	}
	n := 0
	c.ForEachPoint(func(geom.Point, float64) { n++ })
	if n != 0 {
		t.Fatal("EOS must yield no points")
	}
}

func TestCloneGrid(t *testing.T) {
	lat := testLattice(t, 2, 2)
	c, err := NewGridChunk(1, lat, seqVals(4))
	if err != nil {
		t.Fatal(err)
	}
	d := c.CloneGrid()
	d.Grid.Vals[0] = 99
	if c.Grid.Vals[0] != 0 {
		t.Fatal("clone must not share value storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CloneGrid on EOS must panic")
		}
	}()
	NewEndOfSector(1, lat).CloneGrid()
}

func TestValueStats(t *testing.T) {
	lat := testLattice(t, 2, 2)
	c, err := NewGridChunk(1, lat, []float64{1, 2, math.NaN(), 4})
	if err != nil {
		t.Fatal(err)
	}
	n, min, max, sum := c.ValueStats()
	if n != 3 || min != 1 || max != 4 || sum != 7 {
		t.Fatalf("ValueStats = %d, %g, %g, %g", n, min, max, sum)
	}
}

func TestInfoValidate(t *testing.T) {
	in := testInfo()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := in
	bad.CRS = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("nil CRS must be invalid")
	}
	bad = in
	bad.VMin, bad.VMax = 10, 0
	if err := bad.Validate(); err == nil {
		t.Fatal("inverted value range must be invalid")
	}
	bad = in
	bad.HasSectorMeta = true // zero lattice
	if err := bad.Validate(); err == nil {
		t.Fatal("claimed sector meta with zero lattice must be invalid")
	}
}

func TestOrganizationAndStampStrings(t *testing.T) {
	if ImageByImage.String() != "image-by-image" ||
		RowByRow.String() != "row-by-row" ||
		PointByPoint.String() != "point-by-point" {
		t.Fatal("organization strings wrong")
	}
	if StampSectorID.String() != "sector-id" || StampMeasurementTime.String() != "measurement-time" {
		t.Fatal("stamp strings wrong")
	}
}

func TestStatsBufferPeak(t *testing.T) {
	var s Stats
	s.Buffer(10)
	s.Buffer(5)
	s.Unbuffer(8)
	s.Buffer(2)
	if s.BufferedPoints() != 9 {
		t.Fatalf("buffered = %d", s.BufferedPoints())
	}
	if s.PeakBufferedPoints() != 15 {
		t.Fatalf("peak = %d", s.PeakBufferedPoints())
	}
}

func TestStatsConcurrentPeak(t *testing.T) {
	var s Stats
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				s.Buffer(3)
				s.Unbuffer(3)
			}
		}()
	}
	wg.Wait()
	if s.BufferedPoints() != 0 {
		t.Fatalf("buffered after balanced ops = %d", s.BufferedPoints())
	}
	if p := s.PeakBufferedPoints(); p < 3 || p > 24 {
		t.Fatalf("peak = %d out of plausible range", p)
	}
}

func TestGroupErrorPropagation(t *testing.T) {
	g := NewGroup(context.Background())
	boom := errors.New("boom")
	g.Go(func(ctx context.Context) error { return boom })
	g.Go(func(ctx context.Context) error {
		<-ctx.Done() // must be cancelled by the failing stage
		return ctx.Err()
	})
	if err := g.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want boom", err)
	}
}

func TestGroupNoError(t *testing.T) {
	g := NewGroup(context.Background())
	g.Go(func(ctx context.Context) error { return nil })
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
}

// doubler is a trivial operator used to exercise Apply wiring.
type doubler struct{}

func (doubler) Name() string                  { return "double" }
func (doubler) OutInfo(in Info) (Info, error) { return in, nil }
func (doubler) Run(ctx context.Context, in <-chan *Chunk, out chan<- *Chunk, st *Stats) error {
	for c := range in {
		st.CountIn(c)
		if c.Kind != KindGrid {
			if err := Send(ctx, out, c); err != nil {
				return err
			}
			st.CountOut(c)
			continue
		}
		d := c.CloneGrid()
		for i := range d.Grid.Vals {
			d.Grid.Vals[i] *= 2
		}
		if err := Send(ctx, out, d); err != nil {
			return err
		}
		st.CountOut(d)
	}
	return nil
}

func TestApplyPipeline(t *testing.T) {
	g := NewGroup(context.Background())
	lat := testLattice(t, 4, 1)
	var chunks []*Chunk
	for i := 0; i < 3; i++ {
		c, err := NewGridChunk(geom.Timestamp(i), lat, seqVals(4))
		if err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, c)
	}
	chunks = append(chunks, NewEndOfSector(2, lat))

	src := FromChunks(g, testInfo(), chunks)
	mid, st1, err := Apply(g, doubler{}, src)
	if err != nil {
		t.Fatal(err)
	}
	outS, st2, err := Apply(g, doubler{}, mid)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(context.Background(), outS)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("collected %d chunks", len(got))
	}
	if got[0].Grid.Vals[3] != 12 { // 3 * 2 * 2
		t.Fatalf("pipeline value = %g", got[0].Grid.Vals[3])
	}
	if got[3].Kind != KindEndOfSector {
		t.Fatal("punctuation must flow through")
	}
	if st1.PointsIn.Load() != 12 || st2.PointsOut.Load() != 12 {
		t.Fatalf("stats wrong: %v / %v", st1, st2)
	}
}

// failingOp tests that Run errors surface through the group.
type failingOp struct{}

func (failingOp) Name() string                  { return "fail" }
func (failingOp) OutInfo(in Info) (Info, error) { return in, nil }
func (failingOp) Run(ctx context.Context, in <-chan *Chunk, out chan<- *Chunk, st *Stats) error {
	return fmt.Errorf("synthetic failure")
}

func TestApplyRunErrorSurfaces(t *testing.T) {
	g := NewGroup(context.Background())
	src := FromChunks(g, testInfo(), nil)
	s, _, err := Apply(g, failingOp{}, src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(); err == nil || err.Error() != "fail: synthetic failure" {
		t.Fatalf("Wait = %v", err)
	}
}

// badInfoOp tests OutInfo rejection at plan time.
type badInfoOp struct{}

func (badInfoOp) Name() string               { return "badinfo" }
func (badInfoOp) OutInfo(Info) (Info, error) { return Info{}, nil } // nil CRS -> invalid
func (badInfoOp) Run(ctx context.Context, in <-chan *Chunk, out chan<- *Chunk, st *Stats) error {
	return nil
}

func TestApplyRejectsInvalidOutInfo(t *testing.T) {
	g := NewGroup(context.Background())
	src := FromChunks(g, testInfo(), nil)
	if _, _, err := Apply(g, badInfoOp{}, src); err == nil {
		t.Fatal("invalid OutInfo must be rejected")
	}
	g.Wait()
}

func TestTeeDeliversToAll(t *testing.T) {
	g := NewGroup(context.Background())
	lat := testLattice(t, 2, 1)
	c, err := NewGridChunk(0, lat, seqVals(2))
	if err != nil {
		t.Fatal(err)
	}
	src := FromChunks(g, testInfo(), []*Chunk{c, NewEndOfSector(0, lat)})
	outs := Tee(g, src, 3)
	var wg sync.WaitGroup
	counts := make([]int, 3)
	for i, s := range outs {
		wg.Add(1)
		go func(i int, s *Stream) {
			defer wg.Done()
			got, _ := Collect(context.Background(), s)
			counts[i] = len(got)
		}(i, s)
	}
	wg.Wait()
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, n := range counts {
		if n != 2 {
			t.Fatalf("consumer %d got %d chunks", i, n)
		}
	}
}

func TestGenerateAndDrain(t *testing.T) {
	g := NewGroup(context.Background())
	lat := testLattice(t, 8, 1)
	s := Generate(g, testInfo(), func(ctx context.Context, emit func(*Chunk) bool) error {
		for i := 0; i < 5; i++ {
			c, err := NewGridChunk(geom.Timestamp(i), lat, seqVals(8))
			if err != nil {
				return err
			}
			if !emit(c) {
				return nil
			}
		}
		return nil
	})
	chunks, points, err := Drain(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if chunks != 5 || points != 40 {
		t.Fatalf("Drain = %d chunks, %d points", chunks, points)
	}
}

func TestCollectCancellation(t *testing.T) {
	g := NewGroup(context.Background())
	ctx, cancel := context.WithCancel(context.Background())
	// A source that never closes until cancelled.
	s := Generate(g, testInfo(), func(gctx context.Context, emit func(*Chunk) bool) error {
		<-gctx.Done()
		return nil
	})
	cancel()
	if _, err := Collect(ctx, s); !errors.Is(err, context.Canceled) {
		t.Fatalf("Collect = %v, want context.Canceled", err)
	}
	// Unblock the generator and shut down.
	gctxCancelHack(g)
	g.Wait()
}

// gctxCancelHack cancels a group from outside; only tests need this.
func gctxCancelHack(g *Group) { g.cancel() }
