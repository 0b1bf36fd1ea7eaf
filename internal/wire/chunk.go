package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sync/atomic"

	"geostreams/internal/coord"
	"geostreams/internal/exec"
	"geostreams/internal/geom"
	"geostreams/internal/stream"
)

// Chunk payload encoding. All values big-endian; floats are raw IEEE-754
// bits (Float64bits), so a decoded chunk is bit-identical to the encoded
// one — NaN payloads included. Layout:
//
//	u8  kind              0 grid, 1 points, 2 end-of-sector
//	i64 t                 chunk timestamp
//	i64 ingest            instrument ingest stamp (unix ns; 0 unstamped)
//	grid:   f64 x0,y0,dx,dy; u32 w,h; w*h × f64 vals
//	points: u32 n; n × {f64 x, f64 y, i64 t, f64 v}
//	eos:    f64 x0,y0,dx,dy; u32 w,h      (the sector extent)
//
// When both peers negotiated the trace extension in the hello exchange
// (see the package doc), every chunk payload additionally carries a
// trailing u64 trace ID (0 = untraced). The trailer is strictly
// negotiated: the base decoders check payload lengths exactly, so an
// unnegotiated trailer is a framing error, never silently misread.

const (
	kindGrid   = 0
	kindPoints = 1
	kindEOS    = 2

	chunkHdrLen = 1 + 8 + 8
	latticeLen  = 4*8 + 2*4
	pointLen    = 8 + 8 + 8 + 8
	traceExtLen = 8
)

// AppendChunk appends the binary encoding of c to dst and returns the
// extended slice; senders reuse one scratch buffer across chunks.
func AppendChunk(dst []byte, c *stream.Chunk) ([]byte, error) {
	switch c.Kind {
	case stream.KindGrid:
		dst = appendChunkHdr(dst, kindGrid, c)
		dst = appendLattice(dst, c.Grid.Lat)
		for _, v := range c.Grid.Vals {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
		}
		return dst, nil
	case stream.KindPoints:
		dst = appendChunkHdr(dst, kindPoints, c)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(c.Points)))
		for _, pv := range c.Points {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(pv.P.S.X))
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(pv.P.S.Y))
			dst = binary.BigEndian.AppendUint64(dst, uint64(pv.P.T))
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(pv.V))
		}
		return dst, nil
	case stream.KindEndOfSector:
		dst = appendChunkHdr(dst, kindEOS, c)
		dst = appendLattice(dst, c.Sector.Extent)
		return dst, nil
	}
	return nil, fmt.Errorf("wire: cannot encode chunk kind %v", c.Kind)
}

func appendChunkHdr(dst []byte, kind byte, c *stream.Chunk) []byte {
	dst = append(dst, kind)
	dst = binary.BigEndian.AppendUint64(dst, uint64(c.T))
	return binary.BigEndian.AppendUint64(dst, uint64(c.Ingest))
}

func appendLattice(dst []byte, l geom.Lattice) []byte {
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(l.X0))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(l.Y0))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(l.DX))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(l.DY))
	dst = binary.BigEndian.AppendUint32(dst, uint32(l.W))
	return binary.BigEndian.AppendUint32(dst, uint32(l.H))
}

// AppendChunkExt appends the binary encoding of c to dst, with the
// trailing trace-ID extension when withTrace is set.
func AppendChunkExt(dst []byte, c *stream.Chunk, withTrace bool) ([]byte, error) {
	dst, err := AppendChunk(dst, c)
	if err != nil {
		return nil, err
	}
	if withTrace {
		dst = binary.BigEndian.AppendUint64(dst, c.Trace)
	}
	return dst, nil
}

// ingestAllocBytes counts value-buffer bytes the pooled decode path had
// to take from the heap because the exec pool had no buffer of the right
// class — the residual allocation cost of the zero-copy ingest path. A
// steady-state feed holds this flat while chunk counts climb.
var ingestAllocBytes atomic.Int64

// IngestAllocBytes returns the cumulative heap bytes allocated for
// decoded chunk payloads by the pooled decode path.
func IngestAllocBytes() int64 { return ingestAllocBytes.Load() }

// DecodeChunkExt parses a chunk frame payload from a peer that did (or
// did not) negotiate the trace extension: with the extension the last 8
// payload bytes are the chunk's trace ID and the remainder decodes
// exactly as the base format.
func DecodeChunkExt(p []byte, withTrace bool) (*stream.Chunk, error) {
	return decodeChunkExt(p, withTrace, false)
}

// DecodeChunkExtPooled is DecodeChunkExt decoding grid payloads into
// pool-backed chunks: the value buffer comes from exec.AllocVals and the
// chunk is ref-counted (stream.NewPooledGridChunk), so the last consumer's
// Release returns both to their pools. The ingest edge uses it to make
// steady-state decode allocation-free; the caller owns the returned
// chunk's single reference.
func DecodeChunkExtPooled(p []byte, withTrace bool) (*stream.Chunk, error) {
	return decodeChunkExt(p, withTrace, true)
}

func decodeChunkExt(p []byte, withTrace, pooled bool) (*stream.Chunk, error) {
	if !withTrace {
		return decodeChunk(p, pooled)
	}
	if len(p) < chunkHdrLen+traceExtLen {
		return nil, fmt.Errorf("wire: traced chunk payload truncated at %d bytes", len(p))
	}
	c, err := decodeChunk(p[:len(p)-traceExtLen], pooled)
	if err != nil {
		return nil, err
	}
	c.Trace = binary.BigEndian.Uint64(p[len(p)-traceExtLen:])
	return c, nil
}

// DecodeChunkPooled parses a chunk frame payload into a pool-backed chunk
// (see DecodeChunkExtPooled). Every field is restored exactly as encoded
// (no re-derivation), so encode→decode is bit-identical.
func DecodeChunkPooled(p []byte) (*stream.Chunk, error) { return decodeChunk(p, true) }

func decodeChunk(p []byte, pooled bool) (*stream.Chunk, error) {
	if len(p) < chunkHdrLen {
		return nil, fmt.Errorf("wire: chunk payload truncated at %d bytes", len(p))
	}
	kind := p[0]
	t := geom.Timestamp(binary.BigEndian.Uint64(p[1:9]))
	ingest := int64(binary.BigEndian.Uint64(p[9:17]))
	body := p[chunkHdrLen:]
	switch kind {
	case kindGrid:
		lat, rest, err := decodeLattice(body)
		if err != nil {
			return nil, err
		}
		n := lat.NumPoints()
		if len(rest) != n*8 {
			return nil, fmt.Errorf("wire: grid payload carries %d value bytes for %d lattice points", len(rest), n)
		}
		if pooled {
			vals, fromPool := exec.AllocValsPooled(n)
			if !fromPool {
				ingestAllocBytes.Add(int64(n) * 8)
			}
			for i := range vals {
				vals[i] = math.Float64frombits(binary.BigEndian.Uint64(rest[i*8:]))
			}
			c, err := stream.NewPooledGridChunk(t, lat, vals)
			if err != nil {
				exec.Recycle(vals)
				return nil, err
			}
			c.Ingest = ingest
			return c, nil
		}
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.BigEndian.Uint64(rest[i*8:]))
		}
		return &stream.Chunk{
			Kind: stream.KindGrid, T: t, Ingest: ingest,
			Grid: &stream.GridPatch{Lat: lat, Vals: vals},
		}, nil
	case kindPoints:
		if len(body) < 4 {
			return nil, fmt.Errorf("wire: points payload truncated")
		}
		n := int(binary.BigEndian.Uint32(body))
		rest := body[4:]
		if len(rest) != n*pointLen {
			return nil, fmt.Errorf("wire: points payload carries %d bytes for %d points", len(rest), n)
		}
		pts := make([]stream.PointValue, n)
		for i := range pts {
			o := rest[i*pointLen:]
			pts[i] = stream.PointValue{
				P: geom.Point{
					S: geom.Vec2{
						X: math.Float64frombits(binary.BigEndian.Uint64(o[0:8])),
						Y: math.Float64frombits(binary.BigEndian.Uint64(o[8:16])),
					},
					T: geom.Timestamp(binary.BigEndian.Uint64(o[16:24])),
				},
				V: math.Float64frombits(binary.BigEndian.Uint64(o[24:32])),
			}
		}
		return &stream.Chunk{Kind: stream.KindPoints, T: t, Ingest: ingest, Points: pts}, nil
	case kindEOS:
		lat, rest, err := decodeLattice(body)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("wire: eos payload has %d trailing bytes", len(rest))
		}
		return &stream.Chunk{
			Kind: stream.KindEndOfSector, T: t, Ingest: ingest,
			Sector: &stream.SectorMeta{T: t, Extent: lat},
		}, nil
	}
	return nil, fmt.Errorf("wire: unknown chunk kind %d", kind)
}

func decodeLattice(p []byte) (geom.Lattice, []byte, error) {
	if len(p) < latticeLen {
		return geom.Lattice{}, nil, fmt.Errorf("wire: lattice truncated at %d bytes", len(p))
	}
	// Bound the point count in uint64 before any int arithmetic: W and H
	// are attacker-controlled uint32s, so W*H (and W*H*8) computed in int
	// can wrap past the frame cap and reach makeslice with a huge or
	// negative length.
	w := uint64(binary.BigEndian.Uint32(p[32:36]))
	h := uint64(binary.BigEndian.Uint32(p[36:40]))
	if w*h > MaxFrame/8 {
		return geom.Lattice{}, nil, fmt.Errorf("wire: lattice %dx%d exceeds frame cap", w, h)
	}
	l := geom.Lattice{
		X0: math.Float64frombits(binary.BigEndian.Uint64(p[0:8])),
		Y0: math.Float64frombits(binary.BigEndian.Uint64(p[8:16])),
		DX: math.Float64frombits(binary.BigEndian.Uint64(p[16:24])),
		DY: math.Float64frombits(binary.BigEndian.Uint64(p[24:32])),
		W:  int(w),
		H:  int(h),
	}
	if err := l.Validate(); err != nil {
		return geom.Lattice{}, nil, fmt.Errorf("wire: %w", err)
	}
	return l, p[latticeLen:], nil
}

// Chunk frames and writes one chunk, reusing the writer's scratch buffer.
func (w *Writer) Chunk(c *stream.Chunk) error { return w.ChunkExt(c, false) }

// ChunkExt frames and writes one chunk, appending the trace-ID trailer
// when the connection negotiated the trace extension.
func (w *Writer) ChunkExt(c *stream.Chunk, withTrace bool) error {
	buf, err := AppendChunkExt(w.scratch[:0], c, withTrace)
	if err != nil {
		return err
	}
	w.scratch = buf
	return w.WriteFrame(FrameChunk, buf)
}

// helloInfo is the JSON payload of a hello frame: the stream.Info a feed
// announces (ingest) or the server announces for a query's output stream
// (egress). The CRS travels as its canonical parseable name.
type helloInfo struct {
	Band      string  `json:"band"`
	CRS       string  `json:"crs"`
	Org       string  `json:"organization"`
	Stamp     string  `json:"stamping"`
	HasSector bool    `json:"has_sector_meta"`
	X0        float64 `json:"x0,omitempty"`
	Y0        float64 `json:"y0,omitempty"`
	DX        float64 `json:"dx,omitempty"`
	DY        float64 `json:"dy,omitempty"`
	W         int     `json:"w,omitempty"`
	H         int     `json:"h,omitempty"`
	VMin      float64 `json:"vmin"`
	VMax      float64 `json:"vmax"`
	// Trace offers (feed hello, subscription hello) or confirms (ingest
	// hello-ack) the chunk-frame trace extension. Old peers never set it
	// and ignore it on receipt, so negotiation degrades to the base
	// protocol bit-identically.
	Trace bool `json:"trace,omitempty"`
	// Resume confirms the resume extension on an egress hello: the server
	// will follow each end-of-sector chunk frame with a cursor frame (see
	// cursor.go). Old peers never set it and ignore it on receipt.
	Resume bool `json:"resume,omitempty"`
	// Token carries the feed's bearer credential on an ingest hello. A
	// server with ingest auth configured rejects hellos whose token does
	// not match; servers without auth ignore it, and old feeds simply
	// never set it.
	Token string `json:"token,omitempty"`
}

// HelloFlags are the extension flags a hello payload negotiated, plus
// the ingest bearer token when the feed presents one.
type HelloFlags struct {
	Trace  bool
	Resume bool
	Token  string
}

// Hello announces a stream's metadata as the connection's first frame.
func (w *Writer) Hello(info stream.Info) error { return w.HelloExt(info, false) }

// HelloExt announces a stream's metadata, optionally offering the
// chunk-frame trace extension.
func (w *Writer) HelloExt(info stream.Info, trace bool) error {
	return w.HelloFlags(info, HelloFlags{Trace: trace})
}

// HelloFlags announces a stream's metadata with the full extension flag
// set (trace trailer, resume cursors).
func (w *Writer) HelloFlags(info stream.Info, flags HelloFlags) error {
	h := helloInfo{
		Band: info.Band, CRS: info.CRS.Name(),
		Org: info.Org.String(), Stamp: info.Stamp.String(),
		HasSector: info.HasSectorMeta,
		VMin:      info.VMin, VMax: info.VMax,
		Trace: flags.Trace, Resume: flags.Resume, Token: flags.Token,
	}
	if info.HasSectorMeta {
		g := info.SectorGeom
		h.X0, h.Y0, h.DX, h.DY, h.W, h.H = g.X0, g.Y0, g.DX, g.DY, g.W, g.H
	}
	p, err := json.Marshal(h)
	if err != nil {
		return err
	}
	return w.WriteFrame(FrameHello, p)
}

// HelloAck confirms an ingest feed's trace-extension offer on the
// server→feeder control channel. Its payload is a minimal hello (no
// stream metadata: the receiver of an ingest connection has no stream of
// its own to announce).
func (w *Writer) HelloAck(trace bool) error {
	p, err := json.Marshal(helloInfo{Trace: trace})
	if err != nil {
		return err
	}
	return w.WriteFrame(FrameHello, p)
}

// DecodeHelloAck parses a hello-ack payload, returning whether the
// receiver confirmed the trace extension.
func DecodeHelloAck(p []byte) (bool, error) {
	var h helloInfo
	if err := json.Unmarshal(p, &h); err != nil {
		return false, fmt.Errorf("wire: bad hello-ack payload: %w", err)
	}
	return h.Trace, nil
}

// ParseHelloFlags parses a hello frame payload back into stream metadata
// plus the full extension flag set.
func ParseHelloFlags(p []byte) (stream.Info, HelloFlags, error) {
	var h helloInfo
	if err := json.Unmarshal(p, &h); err != nil {
		return stream.Info{}, HelloFlags{}, fmt.Errorf("wire: bad hello payload: %w", err)
	}
	flags := HelloFlags{Trace: h.Trace, Resume: h.Resume, Token: h.Token}
	crs, err := coord.Parse(h.CRS)
	if err != nil {
		return stream.Info{}, HelloFlags{}, fmt.Errorf("wire: hello: %w", err)
	}
	org, err := parseOrganization(h.Org)
	if err != nil {
		return stream.Info{}, HelloFlags{}, err
	}
	stamp, err := parseStamp(h.Stamp)
	if err != nil {
		return stream.Info{}, HelloFlags{}, err
	}
	info := stream.Info{
		Band: h.Band, CRS: crs, Org: org, Stamp: stamp,
		HasSectorMeta: h.HasSector, VMin: h.VMin, VMax: h.VMax,
	}
	if h.HasSector {
		info.SectorGeom = geom.Lattice{X0: h.X0, Y0: h.Y0, DX: h.DX, DY: h.DY, W: h.W, H: h.H}
	}
	if err := info.Validate(); err != nil {
		return stream.Info{}, HelloFlags{}, fmt.Errorf("wire: hello: %w", err)
	}
	return info, flags, nil
}

func parseOrganization(s string) (stream.Organization, error) {
	for _, o := range [...]stream.Organization{stream.ImageByImage, stream.RowByRow, stream.PointByPoint} {
		if o.String() == s {
			return o, nil
		}
	}
	return 0, fmt.Errorf("wire: hello: unknown organization %q", s)
}

func parseStamp(s string) (stream.StampPolicy, error) {
	for _, p := range [...]stream.StampPolicy{stream.StampSectorID, stream.StampMeasurementTime} {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("wire: hello: unknown stamping policy %q", s)
}
