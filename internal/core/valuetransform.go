package core

import (
	"context"
	"fmt"

	"geostreams/internal/exec"
	"geostreams/internal/geom"
	"geostreams/internal/imagealg"
	"geostreams/internal/stream"
)

// ValueTransform is the point-wise operator f_val ∘ G of Definition 8: a
// fixed function applied to every value. It processes point-by-point with
// no buffering — the cheap case the paper contrasts with frame-scoped
// stretches.
type ValueTransform struct {
	// Fn is the value function f_val : V → W.
	Fn imagealg.PixelFunc
	// Block, when set, is Fn's contiguous-block twin (bit-identical by
	// contract — see imagealg.BlockFunc); grid chunks then run
	// block-vectorized instead of calling Fn once per pixel. Optional:
	// transforms without one fall back to the per-point loop.
	Block imagealg.BlockFunc
	// Label names the transform for plans and stats.
	Label string
	// OutBand optionally renames the band ("gray", "ndvi", ...); empty
	// keeps the input band name.
	OutBand string
	// OutMin/OutMax optionally declare the new nominal value range; used
	// when Rerange is true.
	Rerange        bool
	OutMin, OutMax float64
}

func (op ValueTransform) Name() string { return "fval(" + op.Label + ")" }

func (op ValueTransform) OutInfo(in stream.Info) (stream.Info, error) {
	if op.Fn == nil {
		return stream.Info{}, fmt.Errorf("value transform needs a function")
	}
	out := in
	if op.OutBand != "" {
		out.Band = op.OutBand
	}
	if op.Rerange {
		out.VMin, out.VMax = op.OutMin, op.OutMax
	}
	return out, nil
}

func (op ValueTransform) Run(ctx context.Context, in <-chan *stream.Chunk, out chan<- *stream.Chunk, st *stream.Stats) error {
	for c := range in {
		st.CountIn(c)
		o, err := op.apply(c)
		if err != nil {
			c.Release()
			return err
		}
		if o != c {
			c.Release()
		}
		if err := stream.EmitCounted(ctx, out, o, st); err != nil {
			return err
		}
	}
	return nil
}

// StretchKind selects one of the frame-scoped scaling transforms §3.2
// names.
type StretchKind int

const (
	// StretchLinear is the linear contrast stretch onto [OutMin, OutMax].
	StretchLinear StretchKind = iota
	// StretchEqualize is histogram equalization onto [OutMin, OutMax].
	StretchEqualize
	// StretchGaussian is the Gaussian stretch with target mean
	// (OutMin+OutMax)/2 and std (OutMax-OutMin)/6.
	StretchGaussian
)

func (k StretchKind) String() string {
	switch k {
	case StretchLinear:
		return "linear"
	case StretchEqualize:
		return "equalize"
	case StretchGaussian:
		return "gaussian"
	}
	return fmt.Sprintf("stretch(%d)", int(k))
}

// ParseStretchKind resolves the query-language spelling.
func ParseStretchKind(s string) (StretchKind, error) {
	switch s {
	case "linear":
		return StretchLinear, nil
	case "equalize", "histeq":
		return StretchEqualize, nil
	case "gaussian":
		return StretchGaussian, nil
	}
	return 0, fmt.Errorf("unknown stretch kind %q", s)
}

// Stretch is the frame-buffered value transform of §3.2: "in order to
// perform a respective value transform on a point, information about
// previous point values needs to be maintained [...] this is typically
// done on individual frames of the stream G. If a frame has a large number
// of points, all points of that frame need to be stored before they can be
// output with new point values. Thus, the cost of a stretch transform
// operator is determined by the size of the largest frame."
//
// The operator buffers every data chunk of the current timestamp (frame);
// when the frame completes — end-of-sector punctuation arrives, or a chunk
// with a newer timestamp begins the next frame — it fits the transfer
// function from the buffered values and replays the frame through it. Its
// Stats therefore record a peak buffer equal to the largest frame, the
// claim the stretch tests pin.
type Stretch struct {
	Kind           StretchKind
	OutMin, OutMax float64
	// Bins is the histogram resolution for equalize/gaussian (default 256).
	Bins int
}

func (op Stretch) Name() string {
	return fmt.Sprintf("stretch(%s, %g, %g)", op.Kind, op.OutMin, op.OutMax)
}

func (op Stretch) OutInfo(in stream.Info) (stream.Info, error) {
	if op.OutMax <= op.OutMin {
		return stream.Info{}, fmt.Errorf("stretch output range [%g, %g] invalid", op.OutMin, op.OutMax)
	}
	out := in
	out.VMin, out.VMax = op.OutMin, op.OutMax
	return out, nil
}

func (op Stretch) Run(ctx context.Context, in <-chan *stream.Chunk, out chan<- *stream.Chunk, st *stream.Stats) error {
	bins := op.Bins
	if bins <= 0 {
		bins = 256
	}

	var (
		pending  []*stream.Chunk
		pendingT geom.Timestamp
		hasFrame bool
	)
	// The histogram domain is the observed per-frame value range — §3.2's
	// point is exactly that the frame's own values decide the mapping.
	vmin, vmax := 0.0, 1.0

	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		fn, blk, err := op.fit(pending, vmin, vmax, bins)
		if err != nil {
			return err
		}
		vt := ValueTransform{Fn: fn, Block: blk, Label: "stretch-replay"}
		for i, c := range pending {
			st.Unbuffer(int64(c.NumPoints()))
			o, err := vt.apply(c)
			if err != nil {
				return err
			}
			// The replay derives a fresh chunk, so the buffered frame
			// chunk is done; clear the slot so a failed send later in the
			// frame cannot double-release it.
			pending[i] = nil
			c.Release()
			if err := stream.EmitCounted(ctx, out, o, st); err != nil {
				return err
			}
		}
		pending = pending[:0]
		return nil
	}

	for c := range in {
		st.CountIn(c)
		switch {
		case c.Kind == stream.KindEndOfSector:
			if hasFrame && c.T == pendingT {
				if err := flush(); err != nil {
					return err
				}
				hasFrame = false
			}
			if err := stream.EmitCounted(ctx, out, c, st); err != nil {
				return err
			}
		case c.IsData():
			if hasFrame && c.T != pendingT {
				// New frame begins: the previous frame is complete.
				if err := flush(); err != nil {
					return err
				}
			}
			pendingT = c.T
			hasFrame = true
			pending = append(pending, c)
			st.Buffer(int64(c.NumPoints()))
			// Track the covering domain for the histogram.
			n, lo, hi, _ := c.ValueStats()
			if n > 0 {
				if len(pending) == 1 {
					vmin, vmax = lo, hi
				} else {
					if lo < vmin {
						vmin = lo
					}
					if hi > vmax {
						vmax = hi
					}
				}
			}
		}
	}
	return flush()
}

// fit builds the frame's transfer function from the buffered chunks. Grid
// chunks are reduced with exec.MapRows — shard partials merged in row
// order, so the fitted function is bit-identical at any parallelism — and
// scan Vals directly instead of paying a ForEachPoint closure plus a
// geom.Point construction per pixel.
func (op Stretch) fit(pending []*stream.Chunk, vmin, vmax float64, bins int) (imagealg.PixelFunc, imagealg.BlockFunc, error) {
	switch op.Kind {
	case StretchLinear:
		m := imagealg.NewMoments()
		for _, c := range pending {
			if c.Kind == stream.KindGrid {
				lat := c.Grid.Lat
				vals := c.Grid.Vals
				parts := exec.MapRows(lat.H, lat.W, func(r0, r1 int) *imagealg.Moments {
					p := imagealg.NewMoments()
					for i := r0 * lat.W; i < r1*lat.W; i++ {
						p.Add(vals[i])
					}
					return p
				})
				for _, p := range parts {
					m.Merge(p)
				}
				continue
			}
			c.ForEachPoint(func(_ geom.Point, v float64) { m.Add(v) })
		}
		return imagealg.FitLinearStretchBlocks(m, op.OutMin, op.OutMax)
	case StretchEqualize, StretchGaussian:
		if vmax <= vmin {
			vmax = vmin + 1
		}
		h, err := imagealg.NewHistogram(vmin, vmax, bins)
		if err != nil {
			return nil, nil, err
		}
		for _, c := range pending {
			if c.Kind == stream.KindGrid {
				lat := c.Grid.Lat
				vals := c.Grid.Vals
				parts := exec.MapRows(lat.H, lat.W, func(r0, r1 int) *imagealg.Histogram {
					p, _ := imagealg.NewHistogram(h.Min, h.Max, len(h.Counts))
					for i := r0 * lat.W; i < r1*lat.W; i++ {
						p.Add(vals[i])
					}
					return p
				})
				for _, p := range parts {
					if err := h.Merge(p); err != nil {
						return nil, nil, err
					}
				}
				continue
			}
			c.ForEachPoint(func(_ geom.Point, v float64) { h.Add(v) })
		}
		if op.Kind == StretchEqualize {
			return imagealg.FitEqualizationBlocks(h, op.OutMin, op.OutMax)
		}
		mean := (op.OutMin + op.OutMax) / 2
		std := (op.OutMax - op.OutMin) / 6
		return imagealg.FitGaussianStretchBlocks(h, mean, std)
	}
	return nil, nil, fmt.Errorf("unknown stretch kind %v", op.Kind)
}

// apply is ValueTransform's chunk mapping, shared by Run and Stretch's
// replay. Grid chunks skip the CloneGrid copy: the output buffer comes
// from the recycle pool, every element is written by the kernel, and the
// output chunk is pool-backed — the last downstream Release returns the
// buffer. With a Block twin the kernel sweeps contiguous shards of the
// flat slab (one dispatch per shard); otherwise it pays one Fn call per
// pixel as before.
func (op ValueTransform) apply(c *stream.Chunk) (*stream.Chunk, error) {
	switch c.Kind {
	case stream.KindGrid:
		lat := c.Grid.Lat
		src := c.Grid.Vals
		vals := exec.AllocVals(len(src))
		if op.Block != nil {
			exec.ForBlocks(len(src), func(i0, i1 int) {
				op.Block(vals[i0:i1], src[i0:i1])
			})
		} else {
			exec.ForBlocks(len(src), func(i0, i1 int) {
				for i := i0; i < i1; i++ {
					vals[i] = op.Fn(src[i])
				}
			})
		}
		o, err := stream.NewPooledGridChunk(c.T, lat, vals)
		if err != nil {
			exec.Recycle(vals)
			return nil, err
		}
		o.InheritIngest(c)
		return o, nil
	case stream.KindPoints:
		pts := make([]stream.PointValue, len(c.Points))
		src := c.Points
		exec.ForRows(len(src), 1, func(r0, r1 int) {
			for i := r0; i < r1; i++ {
				pts[i] = stream.PointValue{P: src[i].P, V: op.Fn(src[i].V)}
			}
		})
		o, err := stream.NewPointsChunk(pts)
		if err != nil {
			return nil, err
		}
		o.InheritIngest(c)
		return o, nil
	}
	return c, nil
}
