package core

import (
	"context"
	"fmt"
	"math"

	"geostreams/internal/coord"
	"geostreams/internal/exec"
	"geostreams/internal/geom"
	"geostreams/internal/stream"
)

// InterpKind selects the resampling function applied to a neighborhood of
// source points — §3.2: "either the nearest point in the original point
// lattice is chosen to supply the point value, or a function is applied to
// a neighborhood of pixels".
type InterpKind int

const (
	// Nearest picks the nearest source lattice point.
	Nearest InterpKind = iota
	// Bilinear blends the 2×2 neighborhood, renormalizing around missing
	// (NaN) neighbors.
	Bilinear
)

func (k InterpKind) String() string {
	if k == Bilinear {
		return "bilinear"
	}
	return "nearest"
}

// ParseInterp resolves the query-language spelling.
func ParseInterp(s string) (InterpKind, error) {
	switch s {
	case "nearest", "nn":
		return Nearest, nil
	case "bilinear":
		return Bilinear, nil
	}
	return 0, fmt.Errorf("unknown interpolation %q", s)
}

// Resample is the general spatial transform G ∘ f_spat of Definition 9:
// the output stream lives on a new point lattice Y (possibly in a new
// coordinate system), and the value of an output point y is computed from
// the source points at f_spat(y). Re-projection, rotation, and affine
// transforms are all instances (see NewReproject and NewAffineTransform).
//
// Buffering behaviour is the paper's central §3.2 observation:
//
//   - Without knowledge of the sector geometry, "such an operator could
//     potentially block forever": this implementation buffers the entire
//     sector and flushes on end-of-sector punctuation (or a timestamp
//     change), so its peak buffer is a full frame.
//   - With sector metadata (Info.HasSectorMeta) and Progressive set, the
//     operator precomputes at *plan time* which source rows every output
//     row needs (and the inverse-mapped coordinate of every output
//     point), emits each output row as soon as its sources have arrived,
//     and frees source rows no longer needed by any future output row —
//     the peak buffer shrinks to the working band of the mapping.
//     TestResampleProgressiveUsesLessBuffer pins this difference.
type Resample struct {
	// MapOutToIn is f_spat : Y → X in the coordinates of the two CRSs; it
	// returns an error for unmappable points (out of projection domain),
	// which become NaN output.
	MapOutToIn func(geom.Vec2) (geom.Vec2, error)
	// MapInToOut is the forward mapping, used to transform point-by-point
	// (non-lattice) streams point-wise; nil makes point chunks an error.
	MapInToOut func(geom.Vec2) (geom.Vec2, error)
	// TargetForSector derives the output lattice for a sector from the
	// source sector lattice.
	TargetForSector func(extent geom.Lattice) (geom.Lattice, error)
	// OutCRS is the coordinate system of the output lattice.
	OutCRS coord.CRS
	Interp InterpKind
	// Progressive enables metadata-driven row-at-a-time emission.
	Progressive bool
	Label       string

	// sectorGeom is the full source sector lattice, captured from the
	// input stream's metadata at plan time (OutInfo); progressive mode
	// needs it before the first sector completes.
	sectorGeom    geom.Lattice
	hasSectorGeom bool

	// plan caches the geometry-dependent resampling plan; every sector
	// with the same source lattice reuses it.
	plan *resamplePlan
}

// resamplePlan is the geometry-only part of the resampling computation:
// the source and target lattices, the inverse-mapped coordinate of every
// output point, and — for progressive emission — the per-output-row
// source-row requirements. It contains no pixel data, so one plan serves
// every sector of a stream.
type resamplePlan struct {
	src, tgt geom.Lattice
	// mapped[j*tgt.W+i] is f_spat of output point (i, j); ok marks points
	// inside the source footprint and projection domain.
	mapped []geom.Vec2
	ok     []bool
	// maxNeed[j] is the highest source row output row j reads (-1: none);
	// sufMin[j] is the lowest source row any output row >= j still needs.
	maxNeed []int
	sufMin  []int
}

// buildPlan computes the resampling plan for one source sector lattice.
func (op *Resample) buildPlan(src geom.Lattice) (*resamplePlan, error) {
	if op.plan != nil && op.plan.src == src {
		return op.plan, nil
	}
	tgt, err := op.TargetForSector(src)
	if err != nil {
		return nil, err
	}
	p := &resamplePlan{
		src: src, tgt: tgt,
		mapped: make([]geom.Vec2, tgt.W*tgt.H),
		ok:     make([]bool, tgt.W*tgt.H),
	}
	pad := 0
	if op.Interp == Bilinear {
		pad = 1
	}
	p.maxNeed = make([]int, tgt.H)
	minNeed := make([]int, tgt.H)
	for j := 0; j < tgt.H; j++ {
		lo, hi := math.MaxInt32, -1
		y := tgt.Y0 + float64(j)*tgt.DY
		for i := 0; i < tgt.W; i++ {
			q, err := op.MapOutToIn(geom.Vec2{X: tgt.X0 + float64(i)*tgt.DX, Y: y})
			if err != nil {
				continue
			}
			fc, fr := src.FracIndex(q)
			// Points mapping outside the sector footprint sample NaN and
			// read no source rows; counting them (clamped) would pin the
			// whole frame in memory.
			if fr < -1 || fr > float64(src.H) || fc < -1 || fc > float64(src.W) {
				continue
			}
			p.mapped[j*tgt.W+i] = q
			p.ok[j*tgt.W+i] = true
			r0 := int(math.Floor(fr)) - pad
			r1 := int(math.Ceil(fr)) + pad
			if r0 < 0 {
				r0 = 0
			}
			if r1 > src.H-1 {
				r1 = src.H - 1
			}
			if r0 < lo {
				lo = r0
			}
			if r1 > hi {
				hi = r1
			}
		}
		p.maxNeed[j] = hi // -1 when the row maps entirely off-sector
		if hi < 0 {
			minNeed[j] = math.MaxInt32
		} else {
			minNeed[j] = lo
		}
	}
	// sufMin[j] = min over output rows >= j of minNeed: any source row
	// below it will never be read again once emission has passed j.
	p.sufMin = make([]int, tgt.H+1)
	p.sufMin[tgt.H] = math.MaxInt32
	for j := tgt.H - 1; j >= 0; j-- {
		p.sufMin[j] = minNeed[j]
		if p.sufMin[j+1] < p.sufMin[j] {
			p.sufMin[j] = p.sufMin[j+1]
		}
	}
	op.plan = p
	return p, nil
}

func (op *Resample) Name() string {
	mode := "blocking"
	if op.Progressive {
		mode = "progressive"
	}
	return fmt.Sprintf("resample(%s, %s, %s)", op.Label, op.Interp, mode)
}

func (op *Resample) OutInfo(in stream.Info) (stream.Info, error) {
	if op.MapOutToIn == nil || op.TargetForSector == nil || op.OutCRS == nil {
		return stream.Info{}, fmt.Errorf("resample is not fully configured")
	}
	if op.Progressive && !in.HasSectorMeta {
		return stream.Info{}, fmt.Errorf(
			"progressive resample requires sector metadata on the input stream (§3.2)")
	}
	out := in
	out.CRS = op.OutCRS
	if in.Org == stream.ImageByImage {
		out.Org = stream.ImageByImage
	} else {
		out.Org = stream.RowByRow
	}
	if in.HasSectorMeta {
		op.sectorGeom = in.SectorGeom
		op.hasSectorGeom = true
		// Build the plan now — planning time, not data time — so the
		// first output row can flow as soon as its sources arrive.
		plan, err := op.buildPlan(in.SectorGeom)
		if err != nil {
			return stream.Info{}, fmt.Errorf("target lattice: %w", err)
		}
		out.SectorGeom = plan.tgt
	}
	return out, nil
}

// sectorState is the per-sector working state: the assembled source rows
// and the emission cursor. The geometry plan is shared across sectors.
type sectorState struct {
	t geom.Timestamp
	// ingest is the oldest ingest stamp of any chunk contributing to the
	// sector; every emitted row carries it.
	ingest int64
	plan   *resamplePlan
	rows   [][]float64 // source rows, indexed by sector row; nil = absent/freed
	// owned marks rows whose storage belongs to this operator; rows
	// aliased from a chunk's storage must be copied before any merge
	// write (chunks are immutable by contract).
	owned   []bool
	got     []bool
	gotCnt  int
	nextOut int
	patches []*stream.Chunk // blocking mode: raw buffered chunks
}

func (op *Resample) Run(ctx context.Context, in <-chan *stream.Chunk, out chan<- *stream.Chunk, st *stream.Stats) error {
	var cur *sectorState

	flush := func(s *sectorState) error {
		if s == nil {
			return nil
		}
		return op.finishSector(ctx, s, out, st)
	}

	for c := range in {
		st.CountIn(c)
		switch c.Kind {
		case stream.KindPoints:
			if op.MapInToOut == nil {
				c.Release()
				return fmt.Errorf("resample: point-organized input needs a forward mapping")
			}
			o, err := op.mapPoints(c)
			c.Release()
			if err != nil {
				return err
			}
			if o != nil {
				if err := stream.EmitCounted(ctx, out, o, st); err != nil {
					return err
				}
			}
		case stream.KindGrid:
			if cur != nil && c.T != cur.t {
				if err := flush(cur); err != nil {
					return err
				}
				cur = nil
			}
			if cur == nil {
				cur = &sectorState{t: c.T}
			}
			cur.ingest = stream.MinIngest(cur.ingest, c.Ingest)
			if err := op.ingest(ctx, cur, c, out, st); err != nil {
				return err
			}
		case stream.KindEndOfSector:
			if cur != nil && cur.t == c.T {
				if err := flush(cur); err != nil {
					return err
				}
				cur = nil
			}
			// Re-stamp the punctuation with the output lattice.
			tgt, err := op.TargetForSector(c.Sector.Extent)
			if err != nil {
				return fmt.Errorf("resample: sector %d target lattice: %w", c.T, err)
			}
			o := stream.NewEndOfSector(c.T, tgt)
			o.InheritIngest(c)
			c.Release()
			if err := stream.EmitCounted(ctx, out, o, st); err != nil {
				return err
			}
		}
	}
	return flush(cur)
}

// attachPlan binds the sector state to the geometry plan for src.
func (op *Resample) attachPlan(s *sectorState, src geom.Lattice, st *stream.Stats) error {
	plan, err := op.buildPlan(src)
	if err != nil {
		return err
	}
	s.plan = plan
	s.rows = make([][]float64, src.H)
	s.owned = make([]bool, src.H)
	s.got = make([]bool, src.H)
	return nil
}

// ingest adds a grid chunk to the sector state and, in progressive mode,
// emits whatever output rows became computable.
func (op *Resample) ingest(ctx context.Context, s *sectorState, c *stream.Chunk, out chan<- *stream.Chunk, st *stream.Stats) error {
	if !op.Progressive {
		// Blocking mode: accumulate raw chunks, discover geometry at flush —
		// the chunk references stay held until finishSector releases them.
		s.patches = append(s.patches, c)
		st.Buffer(int64(c.NumPoints()))
		return nil
	}
	if s.plan == nil {
		// Progressive mode: the full sector lattice comes from the stream
		// metadata captured at plan time (§3.2's auxiliary scan-sector
		// information).
		if !op.hasSectorGeom {
			c.Release()
			return fmt.Errorf("resample: progressive mode without sector metadata")
		}
		if err := op.attachPlan(s, op.sectorGeom, st); err != nil {
			c.Release()
			return err
		}
	}
	op.rasterize(s, c, st, true)
	// rasterize copies rows out of pool-backed chunks (it aliases only
	// unpooled storage), so the chunk is done here.
	c.Release()
	return op.emitReady(ctx, s, out, st, false)
}

// rasterize places a grid chunk's rows into the sector frame. Full-width
// rows are aliased (no copy); partial rows merge into an allocated row.
// count controls buffer accounting: progressive mode counts here (the
// frame rows are its only storage), blocking mode already counted the raw
// patches.
func (op *Resample) rasterize(s *sectorState, c *stream.Chunk, st *stream.Stats, count bool) {
	g := c.Grid
	src := s.plan.src
	for r := 0; r < g.Lat.H; r++ {
		rowLat := g.Lat.Row(r)
		c0, srcRow, ok := src.Index(geom.Vec2{X: rowLat.X0, Y: rowLat.Y0})
		if !ok {
			continue
		}
		rowVals := g.Vals[r*g.Lat.W : (r+1)*g.Lat.W]
		switch {
		case s.rows[srcRow] == nil && c0 == 0 && rowLat.W == src.W && !c.Pooled():
			// Alias the chunk's storage directly (chunks are immutable).
			// Pool-backed chunks are excluded: their storage recycles on the
			// last Release, so the copy branch below takes them instead and
			// the caller can release the chunk as soon as rasterize returns.
			s.rows[srcRow] = rowVals
			if count {
				st.Buffer(int64(src.W))
			}
		default:
			if s.rows[srcRow] == nil {
				// Operator-private row: pooled allocation, recycled on free.
				row := exec.AllocVals(src.W)
				for i := range row {
					row[i] = math.NaN()
				}
				s.rows[srcRow] = row
				s.owned[srcRow] = true
				if count {
					st.Buffer(int64(src.W))
				}
			} else if !s.owned[srcRow] {
				// Copy-on-write before merging into an aliased row.
				cp := exec.AllocVals(src.W)
				copy(cp, s.rows[srcRow])
				s.rows[srcRow] = cp
				s.owned[srcRow] = true
			}
			copy(s.rows[srcRow][c0:min(c0+rowLat.W, src.W)], rowVals)
		}
		if !s.got[srcRow] {
			s.got[srcRow] = true
			s.gotCnt++
		}
	}
}

// contiguousFrom returns the count of contiguous received rows from row 0.
func (s *sectorState) contiguousFrom() int {
	n := 0
	for n < len(s.got) && s.got[n] {
		n++
	}
	return n
}

// emitReady emits output rows whose source requirements are satisfied; if
// final, emits everything remaining (missing sources become NaN). The ready
// run is rendered as one parallel batch (each output row reads only the
// immutable assembled source frame) and then sent in row order; source rows
// are freed — and operator-owned ones recycled — as the cursor passes them.
func (op *Resample) emitReady(ctx context.Context, s *sectorState, out chan<- *stream.Chunk, st *stream.Stats, final bool) error {
	if s.plan == nil {
		return nil
	}
	have := s.contiguousFrom()
	j0, j1 := s.nextOut, s.nextOut
	if final {
		j1 = s.plan.tgt.H
	} else {
		for j1 < s.plan.tgt.H && s.plan.maxNeed[j1] < have {
			j1++
		}
	}
	if j1 <= j0 {
		return nil
	}
	batch := make([][]float64, j1-j0)
	exec.ForRows(len(batch), s.plan.tgt.W, func(r0, r1 int) {
		for k := r0; k < r1; k++ {
			batch[k] = op.renderRowVals(s, j0+k)
		}
	})
	for k, vals := range batch {
		j := j0 + k
		o, err := stream.NewPooledGridChunk(s.t, s.plan.tgt.Row(j), vals)
		if err != nil {
			exec.Recycle(vals)
			return err
		}
		o.StampIngest(s.ingest)
		if err := stream.EmitCounted(ctx, out, o, st); err != nil {
			return err
		}
		s.nextOut++
		// Free source rows no longer needed by any future output row; the
		// whole batch is already rendered, so nothing reads them again.
		if op.Progressive {
			freeBelow := s.plan.sufMin[s.nextOut]
			for r := 0; r < len(s.rows) && r < freeBelow; r++ {
				if s.rows[r] != nil {
					st.Unbuffer(int64(len(s.rows[r])))
					if s.owned[r] {
						exec.Recycle(s.rows[r])
					}
					s.rows[r] = nil
				}
			}
		}
	}
	return nil
}

// renderRowVals computes output row j from the plan's cached mapping. The
// buffer escapes into a published chunk: pooled allocation, never recycled.
func (op *Resample) renderRowVals(s *sectorState, j int) []float64 {
	p := s.plan
	vals := exec.AllocVals(p.tgt.W)
	for i := 0; i < p.tgt.W; i++ {
		if !p.ok[j*p.tgt.W+i] {
			vals[i] = math.NaN()
			continue
		}
		vals[i] = op.sample(s, p.mapped[j*p.tgt.W+i])
	}
	return vals
}

// sample reads the assembled source frame at a source-CRS coordinate.
func (op *Resample) sample(s *sectorState, q geom.Vec2) float64 {
	fc, fr := s.plan.src.FracIndex(q)
	if op.Interp == Nearest {
		return s.srcAt(int(math.Round(fc)), int(math.Round(fr)))
	}
	// Bilinear with NaN-aware renormalization.
	c0 := int(math.Floor(fc))
	r0 := int(math.Floor(fr))
	dc := fc - float64(c0)
	dr := fr - float64(r0)
	var wsum, vsum float64
	for _, n := range [4]struct {
		c, r int
		w    float64
	}{
		{c0, r0, (1 - dc) * (1 - dr)},
		{c0 + 1, r0, dc * (1 - dr)},
		{c0, r0 + 1, (1 - dc) * dr},
		{c0 + 1, r0 + 1, dc * dr},
	} {
		v := s.srcAt(n.c, n.r)
		if math.IsNaN(v) || n.w == 0 {
			continue
		}
		wsum += n.w
		vsum += n.w * v
	}
	if wsum < 1e-9 {
		return math.NaN()
	}
	return vsum / wsum
}

// srcAt reads the assembled source frame; out-of-range or absent rows are
// NaN.
func (s *sectorState) srcAt(c, r int) float64 {
	if c < 0 || c >= s.plan.src.W || r < 0 || r >= s.plan.src.H {
		return math.NaN()
	}
	row := s.rows[r]
	if row == nil {
		return math.NaN()
	}
	return row[c]
}

// finishSector completes a sector: in blocking mode this is where all the
// work happens; in progressive mode it renders whatever rows remain.
func (op *Resample) finishSector(ctx context.Context, s *sectorState, out chan<- *stream.Chunk, st *stream.Stats) error {
	if !op.Progressive {
		// Discover the sector lattice from the buffered patches.
		if len(s.patches) == 0 {
			return nil
		}
		if err := op.attachPlan(s, unionLattice(s.patches), st); err != nil {
			return err
		}
		for _, c := range s.patches {
			op.rasterize(s, c, st, false)
		}
	}
	if err := op.emitReady(ctx, s, out, st, true); err != nil {
		return err
	}
	// Release everything still held; operator-owned rows go back to the
	// buffer pool (aliased rows belong to their chunks and do not).
	if !op.Progressive {
		for r := range s.rows {
			if s.rows[r] != nil && s.owned[r] {
				exec.Recycle(s.rows[r])
			}
			s.rows[r] = nil
		}
		s.rows = nil
		// Release the buffered patches only after every row alias is gone.
		for _, c := range s.patches {
			st.Unbuffer(int64(c.NumPoints()))
			c.Release()
		}
		s.patches = nil
	} else {
		for r := range s.rows {
			if s.rows[r] != nil {
				st.Unbuffer(int64(len(s.rows[r])))
				if s.owned[r] {
					exec.Recycle(s.rows[r])
				}
				s.rows[r] = nil
			}
		}
	}
	return nil
}

// unionLattice reconstructs the sector lattice covering a set of grid
// patches sharing one geometry.
func unionLattice(patches []*stream.Chunk) geom.Lattice {
	base := patches[0].Grid.Lat
	minC, minR := 0, 0
	maxC, maxR := base.W-1, base.H-1
	for _, c := range patches[1:] {
		l := c.Grid.Lat
		// Offsets of this patch in base grid steps.
		oc := int(math.Round((l.X0 - base.X0) / base.DX))
		or := int(math.Round((l.Y0 - base.Y0) / base.DY))
		if oc < minC {
			minC = oc
		}
		if or < minR {
			minR = or
		}
		if oc+l.W-1 > maxC {
			maxC = oc + l.W - 1
		}
		if or+l.H-1 > maxR {
			maxR = or + l.H - 1
		}
	}
	return base.SubGrid(minC, minR, maxC-minC+1, maxR-minR+1)
}

// mapPoints transforms a point-organized chunk point-wise.
func (op *Resample) mapPoints(c *stream.Chunk) (*stream.Chunk, error) {
	var pts []stream.PointValue
	for _, pv := range c.Points {
		q, err := op.MapInToOut(pv.P.S)
		if err != nil {
			continue // outside target domain: dropped
		}
		pts = append(pts, stream.PointValue{P: geom.Point{S: q, T: pv.P.T}, V: pv.V})
	}
	if len(pts) == 0 {
		return nil, nil
	}
	o, err := stream.NewPointsChunk(pts)
	if err != nil {
		return nil, err
	}
	o.InheritIngest(c)
	return o, nil
}
