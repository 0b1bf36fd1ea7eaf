package core

import (
	"fmt"

	"geostreams/internal/stream"
)

// CostClass is the space-complexity class of an operator, as analyzed in
// §3 of the paper. The planner uses it to order rewrites and EXPLAIN
// renders it to users; the operator tests pin measured peak buffers that
// match these classes.
type CostClass int

const (
	// CostConstant: O(1) intermediate state per point (restrictions,
	// point-wise value transforms, zoom-in).
	CostConstant CostClass = iota
	// CostRow: O(rows) buffering — a bounded number of scan lines
	// (zoom-out by k on a row-by-row stream, composition of row-by-row
	// streams).
	CostRow
	// CostFrame: O(frame) buffering — a whole scan sector (stretch,
	// blocking re-projection, composition of image-by-image streams,
	// temporal aggregates).
	CostFrame
	// CostUnbounded: no a-priori bound without metadata (re-projection of
	// a stream without sector information: "such an operator could
	// potentially block forever").
	CostUnbounded
)

func (c CostClass) String() string {
	switch c {
	case CostConstant:
		return "O(1)"
	case CostRow:
		return "O(rows)"
	case CostFrame:
		return "O(frame)"
	case CostUnbounded:
		return "unbounded"
	}
	return fmt.Sprintf("cost(%d)", int(c))
}

// Estimate is the planner's prediction for one operator instance.
type Estimate struct {
	Class CostClass
	// BufferPoints is the predicted peak buffered points (0 for constant;
	// -1 for unbounded).
	BufferPoints int64
	// PerPointWork is a relative per-point CPU weight (1 = a restriction
	// test).
	PerPointWork float64
}

// frameOf returns the sector frame size in points, or 0 if unknown.
func frameOf(in stream.Info) int64 {
	if !in.HasSectorMeta {
		return 0
	}
	return int64(in.SectorGeom.NumPoints())
}

func rowOf(in stream.Info) int64 {
	if !in.HasSectorMeta {
		return 0
	}
	return int64(in.SectorGeom.W)
}

// EstimateCost predicts the space/time class of an operator over an input
// stream, mirroring §3's analysis.
func EstimateCost(op any, in stream.Info) Estimate {
	switch o := op.(type) {
	case SpatialRestrict, TemporalRestrict, ValueRestrict:
		return Estimate{Class: CostConstant, PerPointWork: 1}
	case ValueTransform:
		return Estimate{Class: CostConstant, PerPointWork: 1}
	case FusedPointwise:
		// One pass, N point-wise stages: the chain's work without its
		// per-stage clone and channel-hop overhead.
		return Estimate{Class: CostConstant, PerPointWork: float64(len(o.Stages))}
	case ZoomIn:
		return Estimate{Class: CostConstant, PerPointWork: float64(o.K * o.K)}
	case ZoomOut:
		if in.Org == stream.ImageByImage {
			// The frame arrives whole; the operator's own extra state is
			// still only the block rows.
			return Estimate{Class: CostRow, BufferPoints: int64(o.K) * rowOf(in), PerPointWork: 1}
		}
		return Estimate{Class: CostRow, BufferPoints: int64(o.K) * rowOf(in), PerPointWork: 1}
	case Stretch:
		return Estimate{Class: CostFrame, BufferPoints: frameOf(in), PerPointWork: 2}
	case *Resample:
		if o.Progressive && in.HasSectorMeta {
			// Working band; conservatively a fraction of the frame.
			return Estimate{Class: CostRow, BufferPoints: frameOf(in) / 4, PerPointWork: 8}
		}
		if !in.HasSectorMeta {
			return Estimate{Class: CostUnbounded, BufferPoints: -1, PerPointWork: 8}
		}
		return Estimate{Class: CostFrame, BufferPoints: frameOf(in), PerPointWork: 8}
	case Convolve:
		return Estimate{Class: CostRow, BufferPoints: int64(o.Kernel.H) * rowOf(in),
			PerPointWork: float64(o.Kernel.W * o.Kernel.H)}
	case Gradient:
		return Estimate{Class: CostRow, BufferPoints: 3 * rowOf(in), PerPointWork: 18}
	case Compose:
		if in.Org == stream.ImageByImage {
			return Estimate{Class: CostFrame, BufferPoints: frameOf(in), PerPointWork: 1}
		}
		if in.Org == stream.RowByRow {
			return Estimate{Class: CostRow, BufferPoints: rowOf(in), PerPointWork: 1}
		}
		return Estimate{Class: CostRow, BufferPoints: 0, PerPointWork: 2}
	case *TemporalAggregate:
		return Estimate{Class: CostFrame, BufferPoints: int64(o.Window) * frameOf(in), PerPointWork: float64(o.Window)}
	case RegionalAggregate:
		return Estimate{Class: CostConstant, PerPointWork: 1}
	}
	return Estimate{Class: CostUnbounded, BufferPoints: -1, PerPointWork: 1}
}
