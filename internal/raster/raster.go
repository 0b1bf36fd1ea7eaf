// Package raster assembles stream chunks back into whole raster frames
// and renders them for delivery — the final stage of the paper's prototype
// pipeline, which "ships stream results back to clients using the PNG
// image format" (§4).
package raster

import (
	"fmt"
	"image"
	"image/color"
	"math"

	"geostreams/internal/exec"
	"geostreams/internal/geom"
	"geostreams/internal/stream"
)

// Image is a dense georeferenced raster: one completed frame of a stream.
type Image struct {
	T    geom.Timestamp
	Lat  geom.Lattice
	Vals []float64
}

// At returns the value at grid index (col, row).
func (im *Image) At(col, row int) float64 { return im.Vals[row*im.Lat.W+col] }

// NewImage allocates an all-NaN image over a lattice. The value buffer is
// drawn from the shared grid-buffer pool; an owner that provably drops the
// image after rendering may return it with Image.Recycle.
func NewImage(t geom.Timestamp, lat geom.Lattice) (*Image, error) {
	if err := lat.Validate(); err != nil {
		return nil, err
	}
	vals := exec.AllocVals(lat.NumPoints())
	for i := range vals {
		vals[i] = math.NaN()
	}
	return &Image{T: t, Lat: lat, Vals: vals}, nil
}

// Recycle returns the image's value buffer to the shared pool and clears
// it. Only the image's sole owner may call this, after its last read: the
// assembler copies chunk values in (never aliases them), so an image the
// caller is about to drop is provably private.
func (im *Image) Recycle() {
	exec.Recycle(im.Vals)
	im.Vals = nil
}

// Assembler accumulates the chunks of each sector into full frames,
// releasing a frame when its end-of-sector punctuation arrives (or when a
// newer sector begins). Chunks may arrive as rows, partial patches, or
// whole frames; point chunks are rasterized by nearest cell.
type Assembler struct {
	// Extent optionally fixes the frame lattice; when zero the frame
	// lattice comes from sector punctuation or the union of patches.
	Extent    geom.Lattice
	HasExtent bool

	pending map[geom.Timestamp][]*stream.Chunk
	order   []geom.Timestamp
}

// NewAssembler builds an assembler that discovers frame geometry from the
// stream.
func NewAssembler() *Assembler {
	return &Assembler{pending: make(map[geom.Timestamp][]*stream.Chunk)}
}

// NewAssemblerWithExtent builds an assembler rasterizing onto a fixed
// lattice.
func NewAssemblerWithExtent(extent geom.Lattice) (*Assembler, error) {
	if err := extent.Validate(); err != nil {
		return nil, err
	}
	a := NewAssembler()
	a.Extent = extent
	a.HasExtent = true
	return a, nil
}

// Add feeds one chunk; it returns any frames completed by this chunk.
// Add consumes the caller's reference: buffered chunks are released when
// their sector assembles (or on Discard), punctuation is released before
// Add returns. Callers reading chunk fields for tracing must capture them
// before the hand-off.
func (a *Assembler) Add(c *stream.Chunk) ([]*Image, error) {
	switch c.Kind {
	case stream.KindEndOfSector:
		t, extent := c.T, c.Sector.Extent
		c.Release()
		img, err := a.assemble(t, extent, true)
		if err != nil {
			return nil, err
		}
		if img == nil {
			return nil, nil
		}
		return []*Image{img}, nil
	case stream.KindGrid, stream.KindPoints:
		if _, ok := a.pending[c.T]; !ok {
			a.order = append(a.order, c.T)
		}
		a.pending[c.T] = append(a.pending[c.T], c)
		return nil, nil
	}
	kind := c.Kind
	c.Release()
	return nil, fmt.Errorf("raster: unknown chunk kind %v", kind)
}

// Discard drops any partially accumulated sector state without rendering
// it, releasing the buffered chunk references so pool-backed buffers go
// home. Delivery calls it on every exit so an abandoned assembler — a
// pipeline that errored mid-sector — does not pin chunk memory.
func (a *Assembler) Discard() {
	for _, chunks := range a.pending {
		for _, c := range chunks {
			c.Release()
		}
	}
	a.pending = make(map[geom.Timestamp][]*stream.Chunk)
	a.order = nil
}

// Flush assembles every pending sector (stream end).
func (a *Assembler) Flush() ([]*Image, error) {
	var out []*Image
	for _, t := range a.order {
		if _, ok := a.pending[t]; !ok {
			continue
		}
		img, err := a.assemble(t, geom.Lattice{}, false)
		if err != nil {
			return nil, err
		}
		if img != nil {
			out = append(out, img)
		}
	}
	a.order = nil
	return out, nil
}

// assemble rasterizes the pending chunks of sector t. The sector's
// buffered references are released on every exit — the chunks have been
// copied into the frame (or the frame failed and they are dropped).
func (a *Assembler) assemble(t geom.Timestamp, eosExtent geom.Lattice, haveEOS bool) (*Image, error) {
	chunks := a.pending[t]
	delete(a.pending, t)
	defer func() {
		for _, c := range chunks {
			c.Release()
		}
	}()
	var lat geom.Lattice
	switch {
	case a.HasExtent:
		lat = a.Extent
	case haveEOS:
		lat = eosExtent
	default:
		if len(chunks) == 0 {
			return nil, nil
		}
		lat = unionExtent(chunks)
	}
	if err := lat.Validate(); err != nil {
		return nil, fmt.Errorf("raster: sector %d extent: %w", t, err)
	}
	img, err := NewImage(t, lat)
	if err != nil {
		return nil, err
	}
	if len(chunks) == 0 {
		return img, nil
	}
	for _, c := range chunks {
		if c.Kind == stream.KindGrid && lat.SameGeometry(c.Grid.Lat) {
			img.placeGrid(c.Grid)
			continue
		}
		c.ForEachPoint(func(p geom.Point, v float64) {
			col, row, ok := lat.Index(p.S)
			if ok {
				img.Vals[row*lat.W+col] = v
			}
		})
	}
	return img, nil
}

// placeGrid copies a patch that shares the image's geometry row by row:
// the patch origin sits a whole number of cells from the image origin, so
// one integer offset, clipped to the frame, places every point exactly
// where a per-point lattice Index would.
func (im *Image) placeGrid(g *stream.GridPatch) {
	lat := im.Lat
	oc := int(math.Round((g.Lat.X0 - lat.X0) / lat.DX))
	or := int(math.Round((g.Lat.Y0 - lat.Y0) / lat.DY))
	c0, c1 := max(0, -oc), min(g.Lat.W, lat.W-oc)
	r0, r1 := max(0, -or), min(g.Lat.H, lat.H-or)
	if c0 >= c1 {
		return
	}
	for r := r0; r < r1; r++ {
		src := g.Vals[r*g.Lat.W : (r+1)*g.Lat.W]
		dst := im.Vals[(r+or)*lat.W : (r+or+1)*lat.W]
		copy(dst[c0+oc:c1+oc], src[c0:c1])
	}
}

// unionExtent reconstructs a covering lattice from grid chunks (point
// chunks contribute via bounds using the first grid spacing found, or a
// unit grid if none).
func unionExtent(chunks []*stream.Chunk) geom.Lattice {
	var base geom.Lattice
	haveBase := false
	bounds := geom.EmptyRect()
	for _, c := range chunks {
		bounds = bounds.Union(c.Bounds())
		if c.Kind == stream.KindGrid && !haveBase {
			base = c.Grid.Lat
			haveBase = true
		}
	}
	if !haveBase {
		// Pure point data: 256-cell raster over the bounds.
		w := 256
		dx := bounds.Width() / float64(w-1)
		if dx <= 0 {
			dx = 1
		}
		dy := bounds.Height() / float64(w-1)
		if dy <= 0 {
			dy = 1
		}
		return geom.Lattice{X0: bounds.MinX, Y0: bounds.MaxY, DX: dx, DY: -dy, W: w, H: w}
	}
	// Extend the base grid to cover the union bounds.
	c0 := int(math.Floor((bounds.MinX - base.X0) / base.DX))
	c1 := int(math.Ceil((bounds.MaxX - base.X0) / base.DX))
	if base.DX < 0 {
		c0, c1 = int(math.Floor((bounds.MaxX-base.X0)/base.DX)), int(math.Ceil((bounds.MinX-base.X0)/base.DX))
	}
	r0 := int(math.Floor((bounds.MaxY - base.Y0) / base.DY))
	r1 := int(math.Ceil((bounds.MinY - base.Y0) / base.DY))
	if base.DY > 0 {
		r0, r1 = int(math.Floor((bounds.MinY-base.Y0)/base.DY)), int(math.Ceil((bounds.MaxY-base.Y0)/base.DY))
	}
	return base.SubGrid(c0, r0, c1-c0+1, r1-r0+1)
}

// Colormap maps a normalized value in [0, 1] to a color.
type Colormap func(t float64) color.RGBA

// GrayMap is the linear grayscale colormap.
func GrayMap(t float64) color.RGBA {
	g := uint8(math.Round(255 * t))
	return color.RGBA{R: g, G: g, B: g, A: 255}
}

// NDVIMap is a brown→yellow→green diverging map for vegetation indices.
func NDVIMap(t float64) color.RGBA {
	switch {
	case t < 0.5:
		// brown (130,90,40) -> yellow (230,220,120)
		f := t / 0.5
		return color.RGBA{
			R: uint8(130 + f*100), G: uint8(90 + f*130), B: uint8(40 + f*80), A: 255,
		}
	default:
		// yellow -> dark green (20,120,30)
		f := (t - 0.5) / 0.5
		return color.RGBA{
			R: uint8(230 - f*210), G: uint8(220 - f*100), B: uint8(120 - f*90), A: 255,
		}
	}
}

// ThermalMap is a black→red→yellow→white heat map.
func ThermalMap(t float64) color.RGBA {
	switch {
	case t < 1.0/3:
		return color.RGBA{R: uint8(t * 3 * 255), A: 255}
	case t < 2.0/3:
		return color.RGBA{R: 255, G: uint8((t - 1.0/3) * 3 * 255), A: 255}
	default:
		return color.RGBA{R: 255, G: 255, B: uint8((t - 2.0/3) * 3 * 255), A: 255}
	}
}

// ColormapByName resolves a colormap for the delivery layer.
func ColormapByName(name string) (Colormap, error) {
	switch name {
	case "", "gray", "grey":
		return GrayMap, nil
	case "ndvi":
		return NDVIMap, nil
	case "thermal":
		return ThermalMap, nil
	}
	return nil, fmt.Errorf("raster: unknown colormap %q", name)
}

// Render rasterizes the image to RGBA using a colormap over [vmin, vmax];
// NaN cells become fully transparent.
func (im *Image) Render(cm Colormap, vmin, vmax float64) *image.RGBA {
	out := image.NewRGBA(image.Rect(0, 0, im.Lat.W, im.Lat.H))
	span := vmax - vmin
	for row := 0; row < im.Lat.H; row++ {
		for col := 0; col < im.Lat.W; col++ {
			v := im.At(col, row)
			if math.IsNaN(v) {
				out.SetRGBA(col, row, color.RGBA{})
				continue
			}
			t := 0.5
			if span > 0 {
				t = (v - vmin) / span
			}
			if t < 0 {
				t = 0
			}
			if t > 1 {
				t = 1
			}
			out.SetRGBA(col, row, cm(t))
		}
	}
	return out
}
