package core

import (
	"context"
	"fmt"
	"math"

	"geostreams/internal/exec"
	"geostreams/internal/geom"
	"geostreams/internal/stream"
)

// ZoomIn is the resolution-increasing spatial transform of §3.2: "an
// operator that increases the spatial resolution would take an incoming
// point x and produce a rectangular lattice of k×k points in Y, all with
// the point value G(x). No neighboring points for x are required" — so the
// operator is chunk-local with zero cross-chunk buffering.
type ZoomIn struct {
	K int
}

func (op ZoomIn) Name() string { return fmt.Sprintf("zoomin(%d)", op.K) }

func (op ZoomIn) OutInfo(in stream.Info) (stream.Info, error) {
	if op.K < 2 {
		return stream.Info{}, fmt.Errorf("zoom factor must be >= 2, got %d", op.K)
	}
	if in.Org == stream.PointByPoint {
		return stream.Info{}, fmt.Errorf("zoom requires a regular lattice organization, not %s", in.Org)
	}
	out := in
	if in.HasSectorMeta {
		out.SectorGeom = zoomInLattice(in.SectorGeom, op.K)
	}
	return out, nil
}

// zoomInLattice refines a lattice k-fold, keeping the covered cell area:
// every source point becomes a k×k block of points centred on the source
// cell.
func zoomInLattice(l geom.Lattice, k int) geom.Lattice {
	fk := float64(k)
	out := l
	out.DX = l.DX / fk
	out.DY = l.DY / fk
	// Shift the origin so the k×k block of refined points is centred on
	// the original point.
	out.X0 = l.X0 - out.DX*(fk-1)/2
	out.Y0 = l.Y0 - out.DY*(fk-1)/2
	out.W = l.W * k
	out.H = l.H * k
	return out
}

func (op ZoomIn) Run(ctx context.Context, in <-chan *stream.Chunk, out chan<- *stream.Chunk, st *stream.Stats) error {
	k := op.K
	for c := range in {
		st.CountIn(c)
		var o *stream.Chunk
		switch c.Kind {
		case stream.KindGrid:
			src := c.Grid
			lat := zoomInLattice(src.Lat, k)
			vals := exec.AllocVals(lat.W * lat.H)
			// Output rows are independent: block-shard the replication over
			// whole output rows.
			exec.ForRows(lat.H, lat.W, func(r0, r1 int) {
				for row := r0; row < r1; row++ {
					srcRow := row / k
					dst := vals[row*lat.W : (row+1)*lat.W]
					srcOff := srcRow * src.Lat.W
					for col := 0; col < lat.W; col++ {
						dst[col] = src.Vals[srcOff+col/k]
					}
				}
			})
			var err error
			if o, err = stream.NewPooledGridChunk(c.T, lat, vals); err != nil {
				exec.Recycle(vals)
				c.Release()
				return err
			}
			o.InheritIngest(c)
		case stream.KindEndOfSector:
			o = stream.NewEndOfSector(c.T, zoomInLattice(c.Sector.Extent, k))
			o.InheritIngest(c)
		default:
			c.Release()
			return fmt.Errorf("zoomin: unsupported chunk kind %s", c.Kind)
		}
		c.Release()
		if err := stream.EmitCounted(ctx, out, o, st); err != nil {
			return err
		}
	}
	return nil
}

// ZoomOut is the resolution-decreasing spatial transform of §3.2 (Fig.
// 2a): each output point is the mean of a k×k block of source points, so
// "the operator has to buffer a sufficient number of points in X in order
// to compute the value of a point y ∈ Y" — for a row-by-row stream that is
// exactly k rows, the claim TestZoomOutMeansBlocks pins.
//
// Blocks are anchored at the top-left of each sector's chunks. A partial
// trailing block (sector height or width not divisible by k) is averaged
// over the points available — the "appropriate boundary point
// interpolations" §3.2 prescribes at frame boundaries.
type ZoomOut struct {
	K int
}

func (op ZoomOut) Name() string { return fmt.Sprintf("zoomout(%d)", op.K) }

func (op ZoomOut) OutInfo(in stream.Info) (stream.Info, error) {
	if op.K < 2 {
		return stream.Info{}, fmt.Errorf("zoom factor must be >= 2, got %d", op.K)
	}
	if in.Org == stream.PointByPoint {
		return stream.Info{}, fmt.Errorf("zoom requires a regular lattice organization, not %s", in.Org)
	}
	out := in
	if in.HasSectorMeta {
		out.SectorGeom = zoomOutLattice(in.SectorGeom, op.K)
	}
	return out, nil
}

// zoomOutLattice coarsens a lattice k-fold; each output point sits at the
// centroid of its k×k source block.
func zoomOutLattice(l geom.Lattice, k int) geom.Lattice {
	fk := float64(k)
	out := l
	out.DX = l.DX * fk
	out.DY = l.DY * fk
	out.X0 = l.X0 + l.DX*(fk-1)/2
	out.Y0 = l.Y0 + l.DY*(fk-1)/2
	out.W = (l.W + k - 1) / k
	out.H = (l.H + k - 1) / k
	return out
}

func (op ZoomOut) Run(ctx context.Context, in <-chan *stream.Chunk, out chan<- *stream.Chunk, st *stream.Stats) error {
	k := op.K

	// Row accumulator for the current sector: rows buffered since the last
	// emitted block row. Each buffered row aliases its chunk's storage and
	// holds one reference on it (released as blocks are consumed).
	var (
		rows     []*stream.GridPatch // buffered single rows, top to bottom
		rowIngs  []int64             // ingest stamp of each buffered row
		rowSrcs  []*stream.Chunk     // chunk each row aliases, one ref per row
		rowT     geom.Timestamp
		haveRows bool
	)

	emitBlock := func(block []*stream.GridPatch, t geom.Timestamp, ingest int64) error {
		// All rows in a block share the column lattice of the first row.
		base := block[0].Lat
		outLat := zoomOutLattice(base, k)
		outLat.H = 1
		// The centroid of the row-block in y.
		sumY := 0.0
		for _, r := range block {
			sumY += r.Lat.Y0
		}
		outLat.Y0 = sumY / float64(len(block))
		vals := exec.AllocVals(outLat.W)
		// Output cells are independent: block-shard the k×k reductions.
		exec.ForBlocks(outLat.W, func(c0, c1 int) {
			for oc := c0; oc < c1; oc++ {
				var sum float64
				var n int
				for _, r := range block {
					for dc := 0; dc < k; dc++ {
						sc := oc*k + dc
						if sc >= r.Lat.W {
							break
						}
						v := r.Vals[sc]
						if !math.IsNaN(v) {
							sum += v
							n++
						}
					}
				}
				if n == 0 {
					vals[oc] = math.NaN()
				} else {
					vals[oc] = sum / float64(n)
				}
			}
		})
		o, err := stream.NewPooledGridChunk(t, outLat, vals)
		if err != nil {
			exec.Recycle(vals)
			return err
		}
		o.StampIngest(ingest)
		return stream.EmitCounted(ctx, out, o, st)
	}

	flushRows := func(final bool) error {
		for len(rows) >= k || (final && len(rows) > 0) {
			n := k
			if n > len(rows) {
				n = len(rows)
			}
			block := rows[:n]
			var ingest int64
			for _, ing := range rowIngs[:n] {
				ingest = stream.MinIngest(ingest, ing)
			}
			if err := emitBlock(block, rowT, ingest); err != nil {
				return err
			}
			for i, r := range block {
				st.Unbuffer(int64(len(r.Vals)))
				rowSrcs[i].Release()
			}
			rows = rows[n:]
			rowIngs = rowIngs[n:]
			rowSrcs = rowSrcs[n:]
		}
		return nil
	}

	for c := range in {
		st.CountIn(c)
		switch c.Kind {
		case stream.KindGrid:
			if haveRows && c.T != rowT {
				if err := flushRows(true); err != nil {
					return err
				}
			}
			rowT = c.T
			haveRows = true
			// Split multi-row chunks into rows so image-by-image and
			// row-by-row inputs share one code path; an image-by-image
			// chunk contributes all its rows at once, so its buffering is
			// transient (consumed by the immediate flush below).
			g := c.Grid
			if g.Lat.H == 0 {
				c.Release()
			} else {
				for r := 1; r < g.Lat.H; r++ {
					c.Retain()
				}
				for r := 0; r < g.Lat.H; r++ {
					rowLat := g.Lat.Row(r)
					rows = append(rows, &stream.GridPatch{
						Lat:  rowLat,
						Vals: g.Vals[r*g.Lat.W : (r+1)*g.Lat.W],
					})
					rowIngs = append(rowIngs, c.Ingest)
					rowSrcs = append(rowSrcs, c)
					st.Buffer(int64(g.Lat.W))
				}
			}
			if err := flushRows(false); err != nil {
				return err
			}
		case stream.KindEndOfSector:
			if err := flushRows(true); err != nil {
				c.Release()
				return err
			}
			haveRows = false
			o := stream.NewEndOfSector(c.T, zoomOutLattice(c.Sector.Extent, k))
			o.InheritIngest(c)
			c.Release()
			if err := stream.EmitCounted(ctx, out, o, st); err != nil {
				return err
			}
		default:
			c.Release()
			return fmt.Errorf("zoomout: unsupported chunk kind %s", c.Kind)
		}
	}
	return flushRows(true)
}
