package core

import (
	"context"
	"fmt"
	"math"

	"geostreams/internal/exec"
	"geostreams/internal/geom"
	"geostreams/internal/stream"
)

// AggFunc is the aggregation function of the spatio-temporal aggregate
// operator (the [27] extension the paper's §6 announces: "Spatio-Temporal
// Aggregates over Raster Image Data", Zhang/Gertz/Aksoy, ACM-GIS 2004).
type AggFunc int

const (
	AggMean AggFunc = iota
	AggMax
	AggMin
	AggSum
	AggCount
)

func (f AggFunc) String() string {
	switch f {
	case AggMean:
		return "mean"
	case AggMax:
		return "max"
	case AggMin:
		return "min"
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	}
	return fmt.Sprintf("agg(%d)", int(f))
}

// ParseAggFunc resolves the query-language spelling.
func ParseAggFunc(s string) (AggFunc, error) {
	switch s {
	case "mean", "avg":
		return AggMean, nil
	case "max":
		return AggMax, nil
	case "min":
		return AggMin, nil
	case "sum":
		return AggSum, nil
	case "count":
		return AggCount, nil
	}
	return 0, fmt.Errorf("unknown aggregate function %q", s)
}

// reduce folds the non-NaN values of a slice.
func (f AggFunc) reduce(vals []float64) float64 {
	n := 0
	sum := 0.0
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		n++
		sum += v
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	switch f {
	case AggCount:
		return float64(n)
	case AggSum:
		return sum
	}
	if n == 0 {
		return math.NaN()
	}
	switch f {
	case AggMean:
		return sum / float64(n)
	case AggMax:
		return hi
	case AggMin:
		return lo
	}
	return math.NaN()
}

// TemporalAggregate computes, per lattice cell, an aggregate over the last
// Window sector frames: out(s, t) = f({G(s, t'), t' ∈ last Window
// sectors}). One aggregated frame is emitted per completed sector, so the
// operator's space complexity is Window × frame — the scaling
// TestTemporalAggregateMean pins.
//
// The operator requires sector punctuation (it assembles each sector into
// a frame before pushing it into the window) and a grid organization.
type TemporalAggregate struct {
	Fn     AggFunc
	Window int

	sectorGeom geom.Lattice
	hasGeom    bool
}

func (op *TemporalAggregate) Name() string {
	return fmt.Sprintf("aggregate_t(%s, %d)", op.Fn, op.Window)
}

func (op *TemporalAggregate) OutInfo(in stream.Info) (stream.Info, error) {
	if op.Window < 1 {
		return stream.Info{}, fmt.Errorf("aggregate window must be >= 1, got %d", op.Window)
	}
	if in.Org == stream.PointByPoint {
		return stream.Info{}, fmt.Errorf("temporal aggregate requires a grid organization")
	}
	if !in.HasSectorMeta {
		return stream.Info{}, fmt.Errorf("temporal aggregate requires sector metadata")
	}
	op.sectorGeom = in.SectorGeom
	op.hasGeom = true
	out := in
	out.Band = fmt.Sprintf("%s_%s%d", in.Band, op.Fn, op.Window)
	out.Org = stream.ImageByImage // emits whole aggregated frames
	if op.Fn == AggCount {
		out.VMin, out.VMax = 0, float64(op.Window)
	}
	return out, nil
}

func (op *TemporalAggregate) Run(ctx context.Context, in <-chan *stream.Chunk, out chan<- *stream.Chunk, st *stream.Stats) error {
	if !op.hasGeom {
		return fmt.Errorf("aggregate_t: missing sector geometry (OutInfo not called?)")
	}
	lat := op.sectorGeom
	n := lat.NumPoints()

	// history is a ring of the last Window frames; histIngs carries the
	// oldest ingest stamp of each frame, so emitted aggregates can report
	// the age of the stalest data in the window.
	history := make([][]float64, 0, op.Window)
	histIngs := make([]int64, 0, op.Window)
	var cur []float64
	var curIng int64
	var curT geom.Timestamp
	haveCur := false

	newFrame := func() []float64 {
		f := exec.AllocVals(n)
		for i := range f {
			f[i] = math.NaN()
		}
		st.Buffer(int64(n))
		return f
	}
	// The window frames are operator-private pooled scratch: recycle them
	// when they rotate out (and any leftovers when the stream ends).
	defer func() {
		for _, f := range history {
			exec.Recycle(f)
		}
		if haveCur {
			exec.Recycle(cur)
		}
	}()

	finishSector := func(t geom.Timestamp) error {
		if !haveCur {
			return nil
		}
		history = append(history, cur)
		histIngs = append(histIngs, curIng)
		// cur now lives in history; clear it immediately so an error below
		// cannot leave both the history slot and cur pointing at one buffer
		// (the deferred cleanup would recycle it twice).
		haveCur = false
		cur = nil
		curIng = 0
		if len(history) > op.Window {
			st.Unbuffer(int64(n))
			exec.Recycle(history[0])
			history = history[1:]
			histIngs = histIngs[1:]
		}
		var winIng int64
		for _, ing := range histIngs {
			winIng = stream.MinIngest(winIng, ing)
		}
		// Aggregate across the window per cell, block-sharded: each shard
		// folds its cells across the window frames independently.
		vals := exec.AllocVals(n)
		win := history
		exec.ForBlocks(n, func(i0, i1 int) {
			scratch := make([]float64, len(win))
			for i := i0; i < i1; i++ {
				for k, f := range win {
					scratch[k] = f[i]
				}
				vals[i] = op.Fn.reduce(scratch)
			}
		})
		o, err := stream.NewPooledGridChunk(t, lat, vals)
		if err != nil {
			exec.Recycle(vals)
			return err
		}
		o.StampIngest(winIng)
		if err := stream.EmitCounted(ctx, out, o, st); err != nil {
			return err
		}
		eos := stream.NewEndOfSector(t, lat)
		eos.StampIngest(winIng)
		return stream.EmitCounted(ctx, out, eos, st)
	}

	for c := range in {
		st.CountIn(c)
		switch c.Kind {
		case stream.KindGrid:
			if haveCur && c.T != curT {
				if err := finishSector(curT); err != nil {
					c.Release()
					return err
				}
			}
			if !haveCur {
				cur = newFrame()
				curT = c.T
				haveCur = true
			}
			curIng = stream.MinIngest(curIng, c.Ingest)
			// Rasterize the patch into the current frame.
			g := c.Grid
			for r := 0; r < g.Lat.H; r++ {
				rowLat := g.Lat.Row(r)
				c0, srcRow, ok := lat.Index(geom.Vec2{X: rowLat.X0, Y: rowLat.Y0})
				if !ok {
					continue
				}
				w := rowLat.W
				if c0+w > lat.W {
					w = lat.W - c0
				}
				copy(cur[srcRow*lat.W+c0:srcRow*lat.W+c0+w], g.Vals[r*g.Lat.W:r*g.Lat.W+w])
			}
			c.Release()
		case stream.KindEndOfSector:
			if err := finishSector(c.T); err != nil {
				c.Release()
				return err
			}
			c.Release()
		default:
			c.Release()
			return fmt.Errorf("aggregate_t: unsupported chunk kind %s", c.Kind)
		}
	}
	if haveCur {
		return finishSector(curT)
	}
	return nil
}

// RegionalAggregate reduces every sector to a single value over a region:
// the time-series product form of the [27] aggregate ("mean NDVI over the
// Central Valley per scan"). Output is one PointValue per sector, located
// at the region's centroid; state is O(1) per sector regardless of frame
// size.
type RegionalAggregate struct {
	Fn     AggFunc
	Region geom.Region
}

func (op RegionalAggregate) Name() string {
	return fmt.Sprintf("aggregate_r(%s, %s)", op.Fn, op.Region)
}

func (op RegionalAggregate) OutInfo(in stream.Info) (stream.Info, error) {
	if op.Region == nil {
		return stream.Info{}, fmt.Errorf("regional aggregate needs a region")
	}
	out := in
	out.Band = fmt.Sprintf("%s_%s_series", in.Band, op.Fn)
	out.Org = stream.PointByPoint
	out.HasSectorMeta = false
	out.SectorGeom = geom.Lattice{}
	return out, nil
}

func (op RegionalAggregate) Run(ctx context.Context, in <-chan *stream.Chunk, out chan<- *stream.Chunk, st *stream.Stats) error {
	var (
		n          int
		sum        float64
		lo, hi     = math.Inf(1), math.Inf(-1)
		secIng     int64
		curT       geom.Timestamp
		haveSector bool
	)
	bounds := op.Region.Bounds()
	center := bounds.Center()

	reset := func() {
		n, sum, lo, hi = 0, 0, math.Inf(1), math.Inf(-1)
		secIng = 0
	}

	emit := func(t geom.Timestamp) error {
		var v float64
		switch op.Fn {
		case AggCount:
			v = float64(n)
		case AggSum:
			v = sum
		case AggMean:
			if n == 0 {
				v = math.NaN()
			} else {
				v = sum / float64(n)
			}
		case AggMax:
			if n == 0 {
				v = math.NaN()
			} else {
				v = hi
			}
		case AggMin:
			if n == 0 {
				v = math.NaN()
			} else {
				v = lo
			}
		}
		o, err := stream.NewPointsChunk([]stream.PointValue{{
			P: geom.Point{S: center, T: t}, V: v,
		}})
		if err != nil {
			return err
		}
		o.StampIngest(secIng)
		if err := stream.EmitCounted(ctx, out, o, st); err != nil {
			return err
		}
		reset()
		return nil
	}

	for c := range in {
		st.CountIn(c)
		switch c.Kind {
		case stream.KindEndOfSector:
			if haveSector && curT == c.T {
				if err := emit(c.T); err != nil {
					c.Release()
					return err
				}
				haveSector = false
			}
			c.Release()
		default:
			if haveSector && c.T != curT {
				if err := emit(curT); err != nil {
					c.Release()
					return err
				}
			}
			curT = c.T
			haveSector = true
			secIng = stream.MinIngest(secIng, c.Ingest)
			if !c.Bounds().Intersects(bounds) {
				c.Release()
				continue
			}
			c.ForEachPoint(func(p geom.Point, v float64) {
				if math.IsNaN(v) || !op.Region.Contains(p.S) {
					return
				}
				n++
				sum += v
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			})
			c.Release()
		}
	}
	if haveSector {
		return emit(curT)
	}
	return nil
}
