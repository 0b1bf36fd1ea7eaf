package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"geostreams/internal/coord"
	"geostreams/internal/exec"
	"geostreams/internal/geom"
	"geostreams/internal/stream"
	"geostreams/internal/valueset"
)

// Compose is the stream composition operator G1 γ G2 of Definition 10:
// point-wise combination of two streams over the same point lattice, with
// γ ∈ {+, −, ×, ÷, sup, inf}.
//
// §3.3's two operational observations are implemented faithfully:
//
//   - Points combine only when they "match in the spatial dimension and in
//     the timestamp". Chunks pair by (timestamp, lattice); with
//     measurement-time stamping the timestamps of two spectral scans never
//     coincide and the operator produces nothing
//     (TestComposeMeasurementTimeNeverMatches).
//   - Buffering depends on the point organization: a row-by-row stream
//     needs only the unmatched rows of one scan (≈ one row when the two
//     streams interleave), while an image-by-image stream buffers a whole
//     frame. The Stats' peak-buffer counter exposes the difference.
//
// Unmatched state is bounded: MaxPending caps buffered points; beyond it
// the oldest timestamps are shed (counted in Stats.UnmatchedSectors), so a
// mis-stamped pairing degrades instead of exhausting memory.
type Compose struct {
	Gamma valueset.Gamma
	// OutBand names the derived product; empty derives "a<γ>b".
	OutBand string
	// MaxPending caps buffered points per side (default 1<<22 ≈ 4M points).
	MaxPending int
	// DisableFairMerge turns off the balanced input reading (ablation
	// A1): the operator then drains whichever input is ready, letting one
	// side run arbitrarily far ahead under unlucky scheduling.
	DisableFairMerge bool
}

func (op Compose) Name() string { return fmt.Sprintf("compose(%s)", op.Gamma) }

func (op Compose) OutInfo(a, b stream.Info) (stream.Info, error) {
	if !coord.Same(a.CRS, b.CRS) {
		return stream.Info{}, fmt.Errorf(
			"composition requires both streams in one coordinate system, got %s and %s",
			a.CRS.Name(), b.CRS.Name())
	}
	if a.Stamp != b.Stamp {
		return stream.Info{}, fmt.Errorf(
			"composition requires one timestamping policy, got %s and %s", a.Stamp, b.Stamp)
	}
	out := a
	out.Band = op.OutBand
	if out.Band == "" {
		out.Band = fmt.Sprintf("%s%s%s", a.Band, op.Gamma, b.Band)
	}
	// The derived product's nominal range is unknown in general; keep a
	// conservative hull for + and -, else inherit.
	switch op.Gamma {
	case valueset.Add:
		out.VMin, out.VMax = a.VMin+b.VMin, a.VMax+b.VMax
	case valueset.Sub:
		out.VMin, out.VMax = a.VMin-b.VMax, a.VMax-b.VMin
	case valueset.Sup, valueset.Inf:
		out.VMin = math.Min(a.VMin, b.VMin)
		out.VMax = math.Max(a.VMax, b.VMax)
	}
	return out, nil
}

// pendingSide is the buffered unmatched state of one input.
type pendingSide struct {
	chunks map[geom.Timestamp][]*stream.Chunk
	points int
	eos    map[geom.Timestamp]*stream.Chunk
	done   bool
}

func newPendingSide() *pendingSide {
	return &pendingSide{
		chunks: make(map[geom.Timestamp][]*stream.Chunk),
		eos:    make(map[geom.Timestamp]*stream.Chunk),
	}
}

func (op Compose) Run(ctx context.Context, a, b <-chan *stream.Chunk, out chan<- *stream.Chunk, st *stream.Stats) error {
	maxPending := op.MaxPending
	if maxPending <= 0 {
		maxPending = 1 << 22
	}
	left, right := newPendingSide(), newPendingSide()
	gamma := op.Gamma

	// tryMatch pairs an arriving chunk against the other side's pending
	// state; on success it emits the composed chunk and reports true. The
	// matched pending chunk's reference is released here; the arriving
	// chunk's is the caller's.
	tryMatch := func(c *stream.Chunk, other *pendingSide, flip bool) (bool, error) {
		cands := other.chunks[c.T]
		for i, o := range cands {
			m := op.matchChunks(c, o, gamma, flip)
			if m == nil {
				continue
			}
			other.chunks[c.T] = append(cands[:i], cands[i+1:]...)
			if len(other.chunks[c.T]) == 0 {
				delete(other.chunks, c.T)
			}
			other.points -= o.NumPoints()
			st.Unbuffer(int64(o.NumPoints()))
			o.Release()
			if err := stream.EmitCounted(ctx, out, m, st); err != nil {
				return true, err
			}
			return true, nil
		}
		return false, nil
	}

	// shed drops the oldest pending timestamps when a side overflows.
	shed := func(side *pendingSide) {
		for side.points > maxPending {
			var oldest geom.Timestamp
			first := true
			for t := range side.chunks {
				if first || t < oldest {
					oldest = t
					first = false
				}
			}
			if first {
				return
			}
			for _, c := range side.chunks[oldest] {
				side.points -= c.NumPoints()
				st.Unbuffer(int64(c.NumPoints()))
				c.Release()
			}
			delete(side.chunks, oldest)
			st.UnmatchedSectors.Add(1)
		}
	}

	// onEOS emits the sector punctuation once both sides have completed
	// the sector and clears leftovers.
	onEOS := func(t geom.Timestamp, mine, other *pendingSide, c *stream.Chunk) error {
		mine.eos[t] = c
		if other.eos[t] == nil {
			return nil
		}
		// Both sides done with sector t: anything still pending for it is
		// unmatched.
		for _, side := range [2]*pendingSide{mine, other} {
			if pend := side.chunks[t]; len(pend) > 0 {
				for _, pc := range pend {
					side.points -= pc.NumPoints()
					st.Unbuffer(int64(pc.NumPoints()))
					pc.Release()
				}
				delete(side.chunks, t)
				st.UnmatchedSectors.Add(1)
			}
		}
		prev := other.eos[t]
		delete(mine.eos, t)
		delete(other.eos, t)
		st.MatchedSectors.Add(1)
		o := stream.NewEndOfSector(t, c.Sector.Extent)
		o.InheritIngest(c)
		c.Release()
		prev.Release()
		return stream.EmitCounted(ctx, out, o, st)
	}

	maxChunk := 1
	handle := func(c *stream.Chunk, mine, other *pendingSide, flip bool) error {
		st.CountIn(c)
		if n := c.NumPoints(); n > maxChunk {
			maxChunk = n
		}
		if c.Kind == stream.KindEndOfSector {
			return onEOS(c.T, mine, other, c)
		}
		matched, err := tryMatch(c, other, flip)
		if matched || err != nil {
			// The arriving chunk was only read for matching; its reference
			// ends here either way.
			c.Release()
			return err
		}
		mine.chunks[c.T] = append(mine.chunks[c.T], c)
		mine.points += c.NumPoints()
		st.Buffer(int64(c.NumPoints()))
		shed(mine)
		return nil
	}

	for !left.done || !right.done {
		// Disable closed channels by nil-ing them out.
		ac, bc := a, b
		if left.done {
			ac = nil
		}
		if right.done {
			bc = nil
		}
		// Fair merge: do not keep reading a side that has run far ahead
		// of the other while the other can still produce — this is what
		// keeps the row-by-row buffering at "a single row" (§3.3) instead
		// of whole sectors under unlucky scheduling.
		if ac != nil && bc != nil && !op.DisableFairMerge {
			ahead := maxChunk/2 + 1
			if left.points > right.points+ahead {
				ac = nil
			} else if right.points > left.points+ahead {
				bc = nil
			}
		}
		select {
		case c, ok := <-ac:
			if !ok {
				left.done = true
				continue
			}
			if err := handle(c, left, right, false); err != nil {
				return err
			}
		case c, ok := <-bc:
			if !ok {
				right.done = true
				continue
			}
			if err := handle(c, right, left, true); err != nil {
				return err
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	// Whatever remains never matched.
	for _, side := range [2]*pendingSide{left, right} {
		for t, cs := range side.chunks {
			for _, c := range cs {
				st.Unbuffer(int64(c.NumPoints()))
				c.Release()
			}
			delete(side.chunks, t)
			st.UnmatchedSectors.Add(1)
		}
		for t, c := range side.eos {
			c.Release()
			delete(side.eos, t)
		}
	}
	return nil
}

// matchChunks composes two chunks if they cover the same points; flip
// swaps the operand order (c arrived on the right). It returns nil when
// the chunks do not match.
func (op Compose) matchChunks(c, o *stream.Chunk, gamma valueset.Gamma, flip bool) *stream.Chunk {
	switch {
	case c.Kind == stream.KindGrid && o.Kind == stream.KindGrid:
		if !c.Grid.Lat.Equal(o.Grid.Lat) {
			return nil
		}
		lat := c.Grid.Lat
		cv, ov := c.Grid.Vals, o.Grid.Vals
		if flip {
			cv, ov = ov, cv
		}
		vals := exec.AllocVals(len(cv))
		exec.ForBlocks(len(cv), func(i0, i1 int) {
			gamma.ApplyBlock(vals[i0:i1], cv[i0:i1], ov[i0:i1])
		})
		m, err := stream.NewPooledGridChunk(c.T, lat, vals)
		if err != nil {
			panic(err) // unreachable: same lattice as a valid chunk
		}
		m.InheritIngest(c)
		m.InheritIngest(o)
		return m
	case c.Kind == stream.KindPoints && o.Kind == stream.KindPoints:
		return matchPointChunks(c, o, gamma, flip)
	}
	return nil
}

// matchPointChunks composes point-organized chunks: points pair by exact
// spatio-temporal location. It matches only when every point of the
// arriving chunk has a counterpart (the instrument emits the same scan
// pattern per band), which keeps partial-overlap semantics out of the hot
// path; non-identical patterns simply stay pending until shed.
func matchPointChunks(c, o *stream.Chunk, gamma valueset.Gamma, flip bool) *stream.Chunk {
	if len(c.Points) != len(o.Points) {
		return nil
	}
	idx := make(map[geom.Point]float64, len(o.Points))
	for _, pv := range o.Points {
		idx[pv.P] = pv.V
	}
	outPts := make([]stream.PointValue, 0, len(c.Points))
	for _, pv := range c.Points {
		ov, ok := idx[pv.P]
		if !ok {
			return nil
		}
		x, y := pv.V, ov
		if flip {
			x, y = y, x
		}
		outPts = append(outPts, stream.PointValue{P: pv.P, V: gamma.Apply(x, y)})
	}
	sort.Slice(outPts, func(i, j int) bool { return outPts[i].P.T < outPts[j].P.T })
	m, err := stream.NewPointsChunk(outPts)
	if err != nil {
		panic(err) // unreachable: outPts non-empty when inputs matched
	}
	m.InheritIngest(c)
	m.InheritIngest(o)
	return m
}
