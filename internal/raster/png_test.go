package raster

import (
	"bytes"
	"errors"
	"fmt"
	"image"
	"image/png"
	"math"
	"math/rand"
	"testing"

	"geostreams/internal/geom"
	"geostreams/internal/stream"
)

// testImage builds a w×h image whose values mix in-range samples with
// NaN, ±Inf and far out-of-range values.
func testImage(t *testing.T, w, h int, seed int64) *Image {
	t.Helper()
	lat, err := geom.NewLattice(0, 0, 1, -1, w, h)
	if err != nil {
		t.Fatal(err)
	}
	img, err := NewImage(1, lat)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1e9, 1e9, 0, 100}
	for i := range img.Vals {
		if rng.Intn(8) == 0 {
			img.Vals[i] = special[rng.Intn(len(special))]
		} else {
			img.Vals[i] = rng.Float64()*140 - 20
		}
	}
	return img
}

// samePixels compares a decoded PNG with the definitional Render output
// pixel for pixel.
func samePixels(got, want image.Image) error {
	if got.Bounds() != want.Bounds() {
		return fmt.Errorf("bounds %v, want %v", got.Bounds(), want.Bounds())
	}
	b := want.Bounds()
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			r1, g1, b1, a1 := got.At(x, y).RGBA()
			r2, g2, b2, a2 := want.At(x, y).RGBA()
			if r1 != r2 || g1 != g2 || b1 != b2 || a1 != a2 {
				return fmt.Errorf("pixel (%d,%d) = %v, want %v", x, y, got.At(x, y), want.At(x, y))
			}
		}
	}
	return nil
}

// TestEncodePNGMatchesRender: the streaming writer delivers exactly the
// pixels Render defines, for every colormap, shape and value range —
// including the degenerate (vmin == vmax) and inverted (vmin > vmax) ones.
func TestEncodePNGMatchesRender(t *testing.T) {
	sizes := [][2]int{{1, 1}, {1, 9}, {9, 1}, {300, 7}, {256, 192}}
	ranges := [][2]float64{{0, 100}, {5, 5}, {100, 0}}
	for _, name := range []string{"gray", "ndvi", "thermal"} {
		cm, err := ColormapByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, sz := range sizes {
			img := testImage(t, sz[0], sz[1], int64(i))
			for _, rg := range ranges {
				var buf bytes.Buffer
				if err := img.EncodePNG(&buf, cm, rg[0], rg[1]); err != nil {
					t.Fatal(err)
				}
				decoded, err := png.Decode(&buf)
				if err != nil {
					t.Fatalf("%s %dx%d [%g,%g]: decode: %v", name, sz[0], sz[1], rg[0], rg[1], err)
				}
				if err := samePixels(decoded, img.Render(cm, rg[0], rg[1])); err != nil {
					t.Fatalf("%s %dx%d [%g,%g]: %v", name, sz[0], sz[1], rg[0], rg[1], err)
				}
			}
		}
	}
}

// TestEncodePNGZeroAllocs: with the pooled encoder warm and the
// destination pre-grown, an encode allocates nothing.
func TestEncodePNGZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	img := testImage(t, 256, 192, 1)
	var buf bytes.Buffer
	if err := img.EncodePNG(&buf, NDVIMap, 0, 100); err != nil {
		t.Fatal(err)
	}
	buf.Grow(2 * buf.Len())
	allocs := testing.AllocsPerRun(20, func() {
		buf.Reset()
		if err := img.EncodePNG(&buf, NDVIMap, 0, 100); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("EncodePNG allocates %.1f times per frame, want 0", allocs)
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

var errSink = errors.New("sink full")

func (f *failAfter) Write(b []byte) (int, error) {
	if len(b) > f.n {
		return 0, errSink
	}
	f.n -= len(b)
	return len(b), nil
}

// TestEncodePNGWriteError: a failing destination surfaces its error, and
// the pooled encoder it leaves behind still produces valid frames.
func TestEncodePNGWriteError(t *testing.T) {
	img := testImage(t, 256, 192, 2)
	for _, n := range []int{0, 20, 40000} {
		if err := img.EncodePNG(&failAfter{n: n}, GrayMap, 0, 100); !errors.Is(err, errSink) {
			t.Fatalf("fail after %d bytes: err = %v, want %v", n, err, errSink)
		}
		var buf bytes.Buffer
		if err := img.EncodePNG(&buf, GrayMap, 0, 100); err != nil {
			t.Fatal(err)
		}
		decoded, err := png.Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := samePixels(decoded, img.Render(GrayMap, 0, 100)); err != nil {
			t.Fatal(err)
		}
	}
	var zero Image
	if err := zero.EncodePNG(&bytes.Buffer{}, GrayMap, 0, 1); err == nil {
		t.Fatal("empty image encoded without error")
	}
}

// TestAssemblerGridFastPathMatchesPerPoint: chunks sharing the frame's
// geometry are placed by row copies; every chunk mix — aligned and
// unaligned crops, partial overlaps, chunks wholly outside the frame,
// point chunks, overlapping writes — must give bit-identical values
// (NaN included) to placing each point through the lattice index.
func TestAssemblerGridFastPathMatchesPerPoint(t *testing.T) {
	frame, err := geom.NewLattice(-122, 38, 0.01, -0.01, 37, 23)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	randVals := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()
			if rng.Intn(10) == 0 {
				v[i] = math.NaN()
			}
		}
		return v
	}
	for trial := 0; trial < 200; trial++ {
		var chunks []*stream.Chunk
		for k := rng.Intn(6) + 1; k > 0; k-- {
			w, h := rng.Intn(50)+1, rng.Intn(30)+1
			lat := frame.SubGrid(rng.Intn(90)-45, rng.Intn(60)-30, w, h)
			switch rng.Intn(5) {
			case 0: // unaligned: shifted by a fraction of a cell
				lat.X0 += 0.3 * lat.DX
			case 1: // different spacing
				lat.DX *= 2
			case 2: // aligned up to rounding noise
				lat.Y0 += 1e-9 * lat.DY
			case 3: // scattered points
				pts := make([]stream.PointValue, w)
				for i := range pts {
					x := frame.X0 + (rng.Float64()*1.4-0.2)*float64(frame.W)*frame.DX
					y := frame.Y0 + (rng.Float64()*1.4-0.2)*float64(frame.H)*frame.DY
					pts[i] = stream.PointValue{P: geom.Point{S: geom.Vec2{X: x, Y: y}, T: 3}, V: rng.Float64()}
				}
				c, err := stream.NewPointsChunk(pts)
				if err != nil {
					t.Fatal(err)
				}
				chunks = append(chunks, c)
				continue
			}
			c, err := stream.NewGridChunk(3, lat, randVals(w*h))
			if err != nil {
				t.Fatal(err)
			}
			chunks = append(chunks, c)
		}

		want, err := NewImage(3, frame)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range chunks {
			c.ForEachPoint(func(p geom.Point, v float64) {
				if col, row, ok := frame.Index(p.S); ok {
					want.Vals[row*frame.W+col] = v
				}
			})
		}

		a, err := NewAssemblerWithExtent(frame)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range chunks {
			if _, err := a.Add(c); err != nil {
				t.Fatal(err)
			}
		}
		done, err := a.Add(stream.NewEndOfSector(3, frame))
		if err != nil || len(done) != 1 {
			t.Fatalf("trial %d: assembled %d frames, err %v", trial, len(done), err)
		}
		for i, v := range done[0].Vals {
			if math.Float64bits(v) != math.Float64bits(want.Vals[i]) {
				t.Fatalf("trial %d: vals[%d] = %v, per-point placement gives %v", trial, i, v, want.Vals[i])
			}
		}
	}
}
