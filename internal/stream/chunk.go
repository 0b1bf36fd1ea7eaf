// Package stream is the streaming substrate of the GeoStreams engine: the
// physical representation of a GeoStream (Definition 5) as a sequence of
// chunks flowing through channel-connected operators, plus the metadata,
// statistics, and plumbing that the operator implementations in
// internal/core build on.
//
// A GeoStream G : X → V is transported as a channel of chunks. A chunk is
// one of:
//
//   - a grid patch: a dense, lattice-aligned block of values sharing one
//     timestamp — rows of a row-by-row instrument, whole frames of an
//     image-by-image instrument;
//   - a point list: individually located and timestamped samples — the
//     point-by-point organization of LIDAR-class instruments (Fig. 1c);
//   - end-of-sector punctuation: metadata marking the completion of a scan
//     sector and carrying its full spatial extent. §3.2 and §3.3 of the
//     paper rely on exactly this device ("auxiliary information about the
//     spatial region currently scanned by an instrument and added as
//     metadata to the stream") to keep transforms and compositions from
//     blocking unboundedly.
package stream

import (
	"fmt"
	"math"

	"geostreams/internal/geom"
)

// Kind discriminates chunk payloads.
type Kind int

const (
	// KindGrid is a dense lattice-aligned patch of values.
	KindGrid Kind = iota
	// KindPoints is a list of individually located samples.
	KindPoints
	// KindEndOfSector is punctuation: the sector with timestamp T is
	// complete; Sector describes its full extent.
	KindEndOfSector
)

func (k Kind) String() string {
	switch k {
	case KindGrid:
		return "grid"
	case KindPoints:
		return "points"
	case KindEndOfSector:
		return "eos"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// PointValue is one sample (x, G(x)) of a stream in set notation.
type PointValue struct {
	P geom.Point
	V float64
}

// GridPatch is a dense block of values on a lattice; Vals is row-major
// with len == Lat.W·Lat.H. All points of a patch share the chunk's
// timestamp.
type GridPatch struct {
	Lat  geom.Lattice
	Vals []float64
}

// Validate checks the patch invariants.
func (g *GridPatch) Validate() error {
	if err := g.Lat.Validate(); err != nil {
		return err
	}
	if len(g.Vals) != g.Lat.NumPoints() {
		return fmt.Errorf("stream: grid patch has %d values for %d lattice points",
			len(g.Vals), g.Lat.NumPoints())
	}
	return nil
}

// SectorMeta is the §3.2 stream metadata describing a completed (or, in a
// stream's Info, the nominally expected) scan sector.
type SectorMeta struct {
	T geom.Timestamp
	// Extent is the full lattice the instrument scanned for this sector.
	Extent geom.Lattice
}

// Chunk is one stream element. Chunks are immutable once sent: operators
// must copy-on-write (see CloneGrid) rather than mutate a received chunk,
// because fan-out stages share chunks between consumers.
type Chunk struct {
	Kind Kind
	// T is the chunk timestamp. For grid chunks every point shares it; for
	// end-of-sector it identifies the completed sector; for point chunks it
	// is a representative (the maximum of the per-point timestamps).
	T      geom.Timestamp
	Grid   *GridPatch   // when Kind == KindGrid
	Points []PointValue // when Kind == KindPoints
	Sector *SectorMeta  // when Kind == KindEndOfSector

	// Ingest is the wall-clock time (unix nanoseconds) at which the
	// instrument produced the oldest data this chunk carries; 0 means
	// unstamped. Instruments call StampIngest at emission; operators
	// propagate it to derived chunks with InheritIngest (keeping the oldest
	// contributing stamp), so the delivery stage can measure end-to-end
	// data freshness. The stamp must be set before the chunk is sent —
	// chunks are immutable once published.
	Ingest int64

	// Trace is the chunk's trace ID (see internal/obs/trace); 0 means
	// untraced. The DSMS stamps a sampled subset of chunks at ingest —
	// before first publication, like Ingest — and operators propagate the
	// ID to derived chunks through InheritIngest, so recording sites can
	// follow one chunk's causal path with a single integer check.
	Trace uint64

	// pool, when non-nil, marks the chunk as pool-backed: its Grid.Vals
	// came from exec.AllocVals and the chunk struct itself from a
	// sync.Pool. Consumers balance references with Retain/Release (see
	// pooled.go); both are no-ops when pool is nil, so code written for
	// the ref-counted protocol is safe on ordinary chunks.
	pool *poolState
}

// StampIngest marks the chunk as ingested at the given wall-clock time in
// unix nanoseconds; instruments call it at emission.
func (c *Chunk) StampIngest(nanos int64) { c.Ingest = nanos }

// InheritIngest propagates the ingest stamp from a source chunk onto a
// derived one, keeping the oldest (smallest nonzero) stamp so end-to-end
// age reflects the stalest contributing data. May be called repeatedly
// with each source of a multi-input derivation.
func (c *Chunk) InheritIngest(src *Chunk) {
	if src == nil {
		return
	}
	// The trace ID rides along: a derived chunk adopts the first traced
	// source it inherits from, so a sampled chunk's ID survives every
	// 1:1 and merging transform that propagates freshness.
	if c.Trace == 0 {
		c.Trace = src.Trace
	}
	if src.Ingest == 0 {
		return
	}
	if c.Ingest == 0 || src.Ingest < c.Ingest {
		c.Ingest = src.Ingest
	}
}

// MinIngest combines two ingest stamps, returning the oldest nonzero one
// (0 when both are unstamped); buffering operators use it to fold the
// stamps of everything contributing to a sector.
func MinIngest(a, b int64) int64 {
	if a == 0 {
		return b
	}
	if b == 0 || a < b {
		return a
	}
	return b
}

// NewGridChunk builds a grid chunk; the values slice is adopted, not
// copied.
func NewGridChunk(t geom.Timestamp, lat geom.Lattice, vals []float64) (*Chunk, error) {
	c := &Chunk{Kind: KindGrid, T: t, Grid: &GridPatch{Lat: lat, Vals: vals}}
	if err := c.Grid.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// NewPointsChunk builds a point-list chunk; the slice is adopted. The
// chunk timestamp is the maximum point timestamp.
func NewPointsChunk(pts []PointValue) (*Chunk, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("stream: points chunk must not be empty")
	}
	t := pts[0].P.T
	for _, p := range pts[1:] {
		if p.P.T > t {
			t = p.P.T
		}
	}
	return &Chunk{Kind: KindPoints, T: t, Points: pts}, nil
}

// NewEndOfSector builds end-of-sector punctuation.
func NewEndOfSector(t geom.Timestamp, extent geom.Lattice) *Chunk {
	return &Chunk{Kind: KindEndOfSector, T: t, Sector: &SectorMeta{T: t, Extent: extent}}
}

// NumPoints returns the number of data points the chunk carries
// (0 for punctuation).
func (c *Chunk) NumPoints() int {
	switch c.Kind {
	case KindGrid:
		return len(c.Grid.Vals)
	case KindPoints:
		return len(c.Points)
	}
	return 0
}

// IsData reports whether the chunk carries point data (not punctuation).
func (c *Chunk) IsData() bool { return c.Kind == KindGrid || c.Kind == KindPoints }

// ForEachPoint invokes fn for every point in the chunk with its full
// spatio-temporal location and value. Punctuation chunks yield nothing.
func (c *Chunk) ForEachPoint(fn func(p geom.Point, v float64)) {
	switch c.Kind {
	case KindGrid:
		lat := c.Grid.Lat
		i := 0
		for row := 0; row < lat.H; row++ {
			y := lat.Y0 + float64(row)*lat.DY
			for col := 0; col < lat.W; col++ {
				fn(geom.Point{S: geom.Vec2{X: lat.X0 + float64(col)*lat.DX, Y: y}, T: c.T},
					c.Grid.Vals[i])
				i++
			}
		}
	case KindPoints:
		for _, pv := range c.Points {
			fn(pv.P, pv.V)
		}
	}
}

// CloneGrid returns a deep copy of a grid chunk for copy-on-write
// transforms; it panics on non-grid chunks (programming error).
func (c *Chunk) CloneGrid() *Chunk {
	if c.Kind != KindGrid {
		panic("stream: CloneGrid on non-grid chunk")
	}
	vals := make([]float64, len(c.Grid.Vals))
	copy(vals, c.Grid.Vals)
	return &Chunk{Kind: KindGrid, T: c.T, Grid: &GridPatch{Lat: c.Grid.Lat, Vals: vals}, Ingest: c.Ingest, Trace: c.Trace}
}

// Bounds returns the spatial bounding box of the chunk's points (empty for
// punctuation).
func (c *Chunk) Bounds() geom.Rect {
	switch c.Kind {
	case KindGrid:
		return c.Grid.Lat.Bounds()
	case KindPoints:
		b := geom.EmptyRect()
		for _, pv := range c.Points {
			b = b.Union(geom.Rect{MinX: pv.P.S.X, MinY: pv.P.S.Y, MaxX: pv.P.S.X, MaxY: pv.P.S.Y})
		}
		return b
	}
	return geom.EmptyRect()
}

// ValueStats returns basic value statistics over the chunk's points,
// ignoring NaN: count of finite values, min, max, and sum. Grid chunks scan
// Vals directly — the per-pixel location a ForEachPoint closure would
// construct is dead weight for value-only statistics.
func (c *Chunk) ValueStats() (n int, min, max, sum float64) {
	min, max = math.Inf(1), math.Inf(-1)
	if c.Kind == KindGrid {
		for _, v := range c.Grid.Vals {
			if math.IsNaN(v) {
				continue
			}
			n++
			sum += v
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		return n, min, max, sum
	}
	c.ForEachPoint(func(_ geom.Point, v float64) {
		if math.IsNaN(v) {
			return
		}
		n++
		sum += v
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	})
	return n, min, max, sum
}
