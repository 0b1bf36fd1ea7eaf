package dsms

import (
	"bytes"
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"geostreams/internal/cascade"
	"geostreams/internal/geom"
	"geostreams/internal/obs"
	"geostreams/internal/obs/trace"
	"geostreams/internal/query"
	"geostreams/internal/raster"
	"geostreams/internal/stream"
)

// DeliveryOptions configure how a query's results are rendered for the
// client.
type DeliveryOptions struct {
	// Colormap names the rendering palette (gray, ndvi, thermal).
	Colormap string
	// VMin/VMax override the render value range; when both zero the
	// output stream's nominal range is used.
	VMin, VMax float64
}

func (o DeliveryOptions) withDefaults(info stream.Info) DeliveryOptions {
	if o.Colormap == "" {
		o.Colormap = "gray"
	}
	if o.VMin == 0 && o.VMax == 0 {
		o.VMin, o.VMax = info.VMin, info.VMax
	}
	return o
}

// Frame is one delivered raster product. Frames are rendered once and
// shared by reference across every subscriber: Seq is the frame's
// absolute position in the query's output sequence, and refs/pooled
// drive the PNG-backing recycle contract described in fanout.go.
type Frame struct {
	Sector geom.Timestamp `json:"sector"`
	Width  int            `json:"width"`
	Height int            `json:"height"`
	Seq    uint64         `json:"seq"`
	PNG    []byte         `json:"-"`

	refs   atomic.Int64
	pooled bool
}

// SeriesPoint is one delivered time-series value (point-organized query
// outputs, e.g. regional aggregates).
type SeriesPoint struct {
	T   geom.Timestamp `json:"t"`
	X   float64        `json:"x"`
	Y   float64        `json:"y"`
	Val float64        `json:"value"`
	NaN bool           `json:"nan,omitempty"`
}

// Registered is one live continuous query: a handle on the product it
// reads. Every field the pipeline owns lives in the embedded product, which
// several handles share when their queries render the same frames (see
// productKey); a handle keeps only its identity, its cursors and its resume
// shadows.
type Registered struct {
	ID   cascade.QueryID
	Text string
	Plan query.Node
	Info stream.Info

	*product
	// attach is the sequence of the first frame published after this
	// handle registered and attachBytes the product's frame bytes at that
	// point: its cursors start there and its DeliveryStats count from
	// there, so a handle joining a running product never sees an earlier
	// frame.
	attach      uint64
	attachBytes int64
	// gone is closed by Deregister, ending this handle's viewers even while
	// other handles keep the product running.
	gone chan struct{}

	// shadows are the resume pipelines serving ?resume= subscribers (see
	// splice.go). They deliberately outlive the primary pipeline's natural
	// end — resume against a dead-but-stored band serves retained history
	// to a clean EOS — and are cancelled on Deregister.
	shadowMu      sync.Mutex
	shadows       map[*stream.Group]struct{}
	shadowsClosed bool
}

// product is one rendered output: a query pipeline, its delivery stage
// (assembler and PNG encode), frame ring and push taps. A registration
// whose productKey matches a live product becomes a handle on it instead
// of building its own, so signature-equal queries encode each frame once;
// the last handle's Deregister tears it down.
type product struct {
	// key is the dedupe key, empty for a product no later registration may
	// join (a store scan); digest is the product's short name
	// on GET /queries/{id}. traceID keys the span ring: the id of the
	// query that built the product.
	key     string
	digest  string
	traceID int64
	// handles counts the registrations reading this product; changed only
	// under server.mu.
	handles atomic.Int64

	opts   DeliveryOptions
	stats  []*stream.Stats
	deliv  *deliveryStats
	group  *stream.Group
	server *Server
	// shared lists the digests of the trunks the pipeline mounts; detach
	// disconnects the pipeline from the data plane (idempotent).
	shared []string
	detach func()
	// taps feeds the wire push subscribers (GET /queries/{id}/stream);
	// the delivery stage reads the tap set's pass-through.
	taps *stream.TapSet
	// trace is the product's span recorder; its ring backs
	// GET /queries/{id}/trace.
	trace   *trace.Recorder
	frames  *frameHub
	series  *seriesBuffer
	stopped chan struct{}
	err     error
}

// newHandle attaches one registration to the product at the current head
// of its frame ring. Caller holds server.mu.
func (p *product) newHandle(id cascade.QueryID, text string, plan query.Node, info stream.Info) *Registered {
	p.handles.Add(1)
	next, bytes := p.frames.published()
	return &Registered{
		ID: id, Text: text, Plan: plan, Info: info, product: p,
		attach: next, attachBytes: bytes,
		gone: make(chan struct{}),
	}
}

// encodeCounts are exact encode work counters: PNG frames encoded, pixels
// rendered into them and bytes fed to deflate.
type encodeCounts struct {
	frames, pixels, deflateIn atomic.Int64
}

func (c *encodeCounts) add(w, h int) {
	c.frames.Add(1)
	c.pixels.Add(int64(w) * int64(h))
	c.deflateIn.Add(raster.PNGDeflateInput(w, h))
}

// ProductInfo is the JSON form of the product a query reads: its digest
// (equal on every handle of one product), how many registrations share
// it, and the exact encode work it has done.
type ProductInfo struct {
	Digest         string `json:"digest"`
	Handles        int64  `json:"handles"`
	FramesEncoded  int64  `json:"frames_encoded"`
	PixelsEncoded  int64  `json:"pixels_encoded"`
	DeflateBytesIn int64  `json:"deflate_bytes_in"`
}

// ProductInfo snapshots the query's product.
func (r *Registered) ProductInfo() ProductInfo {
	enc := &r.deliv.enc
	return ProductInfo{
		Digest:         r.digest,
		Handles:        r.handles.Load(),
		FramesEncoded:  enc.frames.Load(),
		PixelsEncoded:  enc.pixels.Load(),
		DeflateBytesIn: enc.deflateIn.Load(),
	}
}

// deliveryStats instruments the final stage of a query: what actually
// reached the client-facing queues, and how stale the data was when it
// got there.
type deliveryStats struct {
	enc          encodeCounts
	seriesPoints atomic.Int64
	// age observes, per delivered data chunk, the seconds from instrument
	// ingest to arrival at the delivery stage — the end-to-end data
	// freshness of the whole pipeline. sloBurn counts delivered data
	// chunks older than the server's frame-age SLO budget.
	age     *obs.Histogram
	sloBurn atomic.Int64
}

func newDeliveryStats() *deliveryStats {
	return &deliveryStats{age: obs.NewDurationHistogram()}
}

// DeliveryStats is the JSON form of a query's delivery-stage telemetry.
type DeliveryStats struct {
	Frames       int64 `json:"frames"`
	FrameBytes   int64 `json:"frame_bytes"`
	SeriesPoints int64 `json:"series_points"`
	ShedFrames   int64 `json:"shed_frames"`

	AgeSamples    int64   `json:"age_samples"`
	AgeP50Seconds float64 `json:"age_p50_seconds"`
	AgeP95Seconds float64 `json:"age_p95_seconds"`
	AgeP99Seconds float64 `json:"age_p99_seconds"`

	// SLOBurn counts delivered data chunks that exceeded the frame-age
	// budget; SLOSeconds is the budget itself (0 = no SLO configured).
	SLOBurn    int64   `json:"frame_age_slo_burn"`
	SLOSeconds float64 `json:"frame_age_slo_seconds,omitempty"`
}

// DeliveryStats snapshots the delivery-stage telemetry. Frames and
// FrameBytes count what was published since this handle registered; the
// other fields are the product's.
func (r *Registered) DeliveryStats() DeliveryStats {
	age := r.deliv.age.Snapshot()
	next, bytes := r.frames.published()
	return DeliveryStats{
		Frames:        int64(next - r.attach),
		FrameBytes:    bytes - r.attachBytes,
		SeriesPoints:  r.deliv.seriesPoints.Load(),
		ShedFrames:    r.frames.shedCount(),
		AgeSamples:    age.Count,
		AgeP50Seconds: age.Quantile(0.5),
		AgeP95Seconds: age.Quantile(0.95),
		AgeP99Seconds: age.Quantile(0.99),
		SLOBurn:       r.deliv.sloBurn.Load(),
		SLOSeconds:    time.Duration(r.server.frameAgeSLO.Load()).Seconds(),
	}
}

// Err returns the query's terminal error after it has stopped.
func (r *Registered) Err() error {
	select {
	case <-r.stopped:
		return r.err
	default:
		return nil
	}
}

// QueryStatus is one query's lifecycle entry on GET /stats: whether it is
// still running and, if not, how it ended. A pipeline terminated by a
// recovered operator panic reports state "panicked" with the panic value
// in Error.
type QueryStatus struct {
	ID    cascade.QueryID `json:"id"`
	State string          `json:"state"` // running | finished | failed | panicked
	Error string          `json:"error,omitempty"`
	// SharedTrunks lists the trunk digests this query mounts; empty for a
	// store scan.
	SharedTrunks []string `json:"shared_trunks,omitempty"`
}

// Status reports the query's lifecycle state.
func (r *Registered) Status() QueryStatus {
	st := QueryStatus{ID: r.ID, State: "running", SharedTrunks: r.shared}
	select {
	case <-r.stopped:
		switch err := r.err; {
		case err == nil:
			st.State = "finished"
		case stream.IsPanic(err):
			st.State = "panicked"
			st.Error = err.Error()
		default:
			st.State = "failed"
			st.Error = err.Error()
		}
	default:
	}
	return st
}

// OperatorStats snapshots the per-operator counters.
func (r *Registered) OperatorStats() []OperatorStats {
	out := make([]OperatorStats, len(r.stats))
	for i, st := range r.stats {
		lat := st.LatencySnapshot()
		out[i] = OperatorStats{
			Name:           st.Name,
			ChunksIn:       st.ChunksIn.Load(),
			ChunksOut:      st.ChunksOut.Load(),
			PointsIn:       st.PointsIn.Load(),
			PointsOut:      st.PointsOut.Load(),
			PeakBuffer:     st.PeakBufferedPoints(),
			BufferedPoints: st.BufferedPoints(),
			BusySeconds:    st.BusyTime().Seconds(),
			IdleSeconds:    st.IdleTime().Seconds(),
			QueueDepth:     st.QueueDepth(),
			QueueCap:       st.QueueCap(),
			PeakQueueDepth: st.PeakQueueDepth(),
			LatencySamples: lat.Count,
			LatencyP50:     lat.Quantile(0.5),
			LatencyP95:     lat.Quantile(0.95),
			LatencyP99:     lat.Quantile(0.99),
		}
	}
	return out
}

// OperatorStats is the JSON form of stream.Stats: the space counters the
// paper's experiments assert plus the runtime telemetry (busy/idle split,
// output-queue occupancy, and per-chunk processing-latency percentiles).
type OperatorStats struct {
	Name           string  `json:"name"`
	ChunksIn       int64   `json:"chunks_in"`
	ChunksOut      int64   `json:"chunks_out"`
	PointsIn       int64   `json:"points_in"`
	PointsOut      int64   `json:"points_out"`
	PeakBuffer     int64   `json:"peak_buffer_points"`
	BufferedPoints int64   `json:"buffered_points"`
	BusySeconds    float64 `json:"busy_seconds"`
	IdleSeconds    float64 `json:"idle_seconds"`
	QueueDepth     int     `json:"queue_depth"`
	QueueCap       int     `json:"queue_capacity"`
	PeakQueueDepth int64   `json:"peak_queue_depth"`
	LatencySamples int64   `json:"latency_samples"`
	LatencyP50     float64 `json:"latency_p50_seconds"`
	LatencyP95     float64 `json:"latency_p95_seconds"`
	LatencyP99     float64 `json:"latency_p99_seconds"`
}

// renderFrame encodes one assembled image straight into a PNG backing
// drawn from pngBufPool, recycling the image's value buffer. The returned
// frame carries one reference, owned by the caller (normally handed to
// frameHub.publish).
func renderFrame(img *raster.Image, cm raster.Colormap, vmin, vmax float64) (*Frame, error) {
	backing := pngBufPool.Get().(*[]byte)
	buf := bytes.NewBuffer((*backing)[:0])
	if err := img.EncodePNG(buf, cm, vmin, vmax); err != nil {
		*backing = buf.Bytes()[:0]
		pngBufPool.Put(backing)
		return nil, err
	}
	f := &Frame{Sector: img.T, Width: img.Lat.W, Height: img.Lat.H, PNG: buf.Bytes(), pooled: true}
	pngLive.Add(1)
	// The assembled frame is delivery-private and fully rendered into the
	// PNG; its value buffer goes back to the grid-buffer pool.
	img.Recycle()
	f.refs.Store(1)
	return f, nil
}

// deliver consumes the pipeline output: raster outputs are assembled into
// frames and PNG-encoded; point outputs append to the series buffer.
func (p *product) deliver(ctx context.Context, out *stream.Stream) error {
	asm := raster.NewAssembler()
	// The frame queue must close on every exit path — encode failures,
	// assembler errors, cancellation — or clients blocked on a frame hang
	// until their wait expires on a query that is already dead. Likewise
	// the assembler's partially accumulated sector state is discarded so an
	// errored pipeline doesn't pin chunk memory.
	defer p.frames.close()
	defer asm.Discard()
	// On an early exit (encode/assembler error, cancellation) chunks may
	// still be queued on the output channel; hand their buffers back.
	defer stream.DrainReleasing(out.C)
	cm, err := raster.ColormapByName(p.opts.Colormap)
	if err != nil {
		return err
	}
	// A frame assembles from many chunks; the encode span is attributed to
	// the most recent traced chunk that fed the assembler — close enough
	// for a per-sector product, and free for untraced traffic.
	var lastTrace uint64
	var lastT int64
	var lastPunct bool
	encode := func(img *raster.Image) error {
		var begin time.Time
		if lastTrace != 0 {
			begin = time.Now()
		}
		// Render once: the frame is encoded exactly one time here and every
		// subscriber of every handle on the product — long-poll, WebSocket,
		// in-process — reads the same pooled-backed bytes through its own
		// cursor (fanout.go).
		f, err := renderFrame(img, cm, p.opts.VMin, p.opts.VMax)
		if err != nil {
			return err
		}
		p.deliv.enc.add(f.Width, f.Height)
		p.server.encoded.add(f.Width, f.Height)
		p.frames.publish(f)
		if lastTrace != 0 {
			p.trace.Record(lastTrace, trace.StageEncode, "png",
				begin, time.Since(begin), lastT, lastPunct)
		}
		return nil
	}
	for {
		select {
		case c, ok := <-out.C:
			if !ok {
				imgs, err := asm.Flush()
				if err != nil {
					return err
				}
				for _, img := range imgs {
					if err := encode(img); err != nil {
						return err
					}
				}
				return nil
			}
			// Chunk fields are captured before ownership moves on: the
			// assembler consumes the reference in Add, and a released
			// pool-backed chunk's fields are unreadable.
			tr, tT, punct := c.Trace, int64(c.T), !c.IsData()
			var begin time.Time
			if tr != 0 {
				begin = time.Now()
				lastTrace, lastT, lastPunct = tr, tT, punct
			}
			if c.IsData() && c.Ingest != 0 {
				// End-to-end freshness: instrument ingest → delivery stage.
				age := time.Now().UnixNano() - c.Ingest
				p.deliv.age.Observe(float64(age) / 1e9)
				if slo := p.server.frameAgeSLO.Load(); slo > 0 && age > slo {
					p.deliv.sloBurn.Add(1)
				}
			}
			if c.Kind == stream.KindPoints {
				for _, pv := range c.Points {
					p.series.push(SeriesPoint{
						T: pv.P.T, X: pv.P.S.X, Y: pv.P.S.Y,
						Val: pv.V, NaN: math.IsNaN(pv.V),
					})
				}
				n := int64(len(c.Points))
				c.Release()
				p.deliv.seriesPoints.Add(n)
				if tr != 0 {
					p.trace.Record(tr, trace.StageDeliver, "series",
						begin, time.Since(begin), tT, punct)
				}
				continue
			}
			imgs, err := asm.Add(c)
			if err != nil {
				return err
			}
			for _, img := range imgs {
				if err := encode(img); err != nil {
					return err
				}
			}
			if tr != 0 {
				p.trace.Record(tr, trace.StageDeliver, "frame",
					begin, time.Since(begin), tT, punct)
			}
		case <-ctx.Done():
			return nil
		}
	}
}

// Series returns the buffered time-series points since the given index,
// plus the next index to poll from.
func (r *Registered) Series(from int) ([]SeriesPoint, int) {
	return r.series.since(from)
}

// seriesBuffer retains the most recent time-series points with absolute
// indexing so clients can poll incrementally.
type seriesBuffer struct {
	mu    sync.Mutex
	buf   []SeriesPoint
	base  int // absolute index of buf[0]
	limit int
}

func newSeriesBuffer(limit int) *seriesBuffer { return &seriesBuffer{limit: limit} }

func (b *seriesBuffer) push(p SeriesPoint) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = append(b.buf, p)
	if over := len(b.buf) - b.limit; over > 0 {
		b.buf = b.buf[over:]
		b.base += over
	}
}

// since returns the points with absolute index >= from and the next index
// to poll from. The returned cursor is monotonic: it never falls below the
// caller's from, so a polling client can feed it straight back without
// ever re-reading points it already saw (even across the truncation
// boundary, where a stale from past the buffer end must not snap back).
func (b *seriesBuffer) since(from int) ([]SeriesPoint, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	end := b.base + len(b.buf)
	if from >= end {
		return nil, from
	}
	if from < b.base {
		from = b.base
	}
	out := append([]SeriesPoint(nil), b.buf[from-b.base:]...)
	return out, end
}
