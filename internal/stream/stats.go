package stream

import (
	"fmt"
	"sync/atomic"
	"time"

	"geostreams/internal/obs"
	"geostreams/internal/obs/trace"
)

// Stats instruments one operator instance. The operator tests read
// these counters to verify the paper's space-complexity claims directly:
// the §3.1 claim that restrictions buffer nothing, the §3.2 claim that a
// stretch buffers one frame, the §3.3 claim that composition buffering is
// one image vs. one row depending on organization, and so on.
//
// Beyond the space counters, Stats carries the runtime telemetry exported
// at GET /metrics: per-chunk processing-latency and chunk-age histograms,
// wall-time busy/idle accounting, and queue-depth tracking for the
// operator's output channel. The histogram fields are nil on a zero-value
// Stats (and recording into them is a no-op); Apply/Apply2 allocate them
// via NewStats.
//
// All counters are safe for concurrent use.
type Stats struct {
	Name string

	ChunksIn  atomic.Int64
	ChunksOut atomic.Int64
	PointsIn  atomic.Int64
	PointsOut atomic.Int64

	// bufferedPoints is the operator's current intermediate state in
	// points; peakBuffered is its high-water mark.
	bufferedPoints atomic.Int64
	peakBuffered   atomic.Int64

	// MatchedSectors / UnmatchedSectors count composition pairing outcomes.
	MatchedSectors   atomic.Int64
	UnmatchedSectors atomic.Int64

	// Latency observes, at each CountOut, the seconds since the most
	// recent input chunk arrived — per-chunk processing latency for 1:1
	// operators, batch flush latency for buffering ones.
	Latency *obs.Histogram
	// ChunkAge observes, at each CountIn, the seconds since the arriving
	// chunk's data was ingested at the instrument (data freshness as seen
	// by this stage). Chunks without an ingest stamp are skipped.
	ChunkAge *obs.Histogram

	// Busy/idle wall-time split: the gap before a CountIn is idle time
	// (waiting for input), the gap before a CountOut is busy time
	// (computing, including any send backpressure).
	busyNanos atomic.Int64
	idleNanos atomic.Int64
	lastEvent atomic.Int64 // unix nanos of the last CountIn/CountOut
	lastIn    atomic.Int64 // unix nanos of the most recent CountIn

	// queue is the operator's output channel, sampled for depth; set by
	// Apply/Apply2 before the operator goroutine starts.
	queue     chan *Chunk
	peakQueue atomic.Int64

	// tracer records an "operator" span at each CountOut of a traced
	// chunk. It is attach-once (AttachTrace) and loaded atomically because
	// operators may already be emitting when the DSMS wires tracing up.
	tracer atomic.Pointer[trace.Recorder]
}

// NewStats builds a fully instrumented Stats (latency and chunk-age
// histograms allocated). Zero-value Stats remain valid for tests; only the
// histogram observations are skipped.
func NewStats(name string) *Stats {
	return &Stats{
		Name:     name,
		Latency:  obs.NewDurationHistogram(),
		ChunkAge: obs.NewDurationHistogram(),
	}
}

// markRunning starts the busy/idle clock; Apply/Apply2 call it when the
// operator goroutine launches so startup lag counts as idle, not busy.
func (s *Stats) markRunning() {
	s.lastEvent.CompareAndSwap(0, time.Now().UnixNano())
}

// watchQueue attaches the operator's output channel for depth sampling.
// Must be called before the operator goroutine starts sending.
func (s *Stats) watchQueue(ch chan *Chunk) { s.queue = ch }

// CountIn records an arriving chunk.
func (s *Stats) CountIn(c *Chunk) {
	s.ChunksIn.Add(1)
	s.PointsIn.Add(int64(c.NumPoints()))
	now := time.Now().UnixNano()
	if last := s.lastEvent.Swap(now); last != 0 {
		s.idleNanos.Add(now - last)
	}
	s.lastIn.Store(now)
	if ing := c.Ingest; ing != 0 && s.ChunkAge != nil {
		s.ChunkAge.Observe(float64(now-ing) / 1e9)
	}
}

// CountOut records an emitted chunk. Callers invoke it after the chunk is
// already sent downstream, so it must not touch the chunk's payload —
// reads only.
func (s *Stats) CountOut(c *Chunk) {
	s.ChunksOut.Add(1)
	s.PointsOut.Add(int64(c.NumPoints()))
	now := time.Now().UnixNano()
	if last := s.lastEvent.Swap(now); last != 0 {
		s.busyNanos.Add(now - last)
	}
	if in := s.lastIn.Load(); in != 0 {
		if s.Latency != nil {
			s.Latency.Observe(float64(now-in) / 1e9)
		}
		if c.Trace != 0 {
			s.tracer.Load().Record(c.Trace, trace.StageOperator, s.Name,
				time.Unix(0, in), time.Duration(now-in), int64(c.T), !c.IsData())
		}
	}
	if s.queue != nil {
		depth := int64(len(s.queue))
		for {
			peak := s.peakQueue.Load()
			if depth <= peak || s.peakQueue.CompareAndSwap(peak, depth) {
				break
			}
		}
	}
}

// AttachTrace wires a span recorder into the operator, once: the first
// recorder attached wins and later calls are no-ops. Shared-trunk
// operators are claimed by the shared recorder at trunk build time; a
// query's private operators are claimed by its own recorder at
// registration — the once semantics keep a reused trunk's spans in the
// shared ring instead of whichever query registered last.
func (s *Stats) AttachTrace(r *trace.Recorder) {
	if r == nil {
		return
	}
	s.tracer.CompareAndSwap(nil, r)
}

// Buffer records n points entering the operator's intermediate state and
// updates the high-water mark.
func (s *Stats) Buffer(n int64) {
	cur := s.bufferedPoints.Add(n)
	for {
		peak := s.peakBuffered.Load()
		if cur <= peak || s.peakBuffered.CompareAndSwap(peak, cur) {
			return
		}
	}
}

// Unbuffer records n points leaving the intermediate state.
func (s *Stats) Unbuffer(n int64) { s.bufferedPoints.Add(-n) }

// PeakBufferedPoints returns the high-water mark of buffered points — the
// measured space complexity of the operator.
func (s *Stats) PeakBufferedPoints() int64 { return s.peakBuffered.Load() }

// BufferedPoints returns the currently buffered point count.
func (s *Stats) BufferedPoints() int64 { return s.bufferedPoints.Load() }

// BusyTime returns accumulated wall time attributed to processing
// (including downstream send backpressure).
func (s *Stats) BusyTime() time.Duration { return time.Duration(s.busyNanos.Load()) }

// IdleTime returns accumulated wall time spent waiting for input.
func (s *Stats) IdleTime() time.Duration { return time.Duration(s.idleNanos.Load()) }

// QueueDepth returns the current depth of the operator's output channel
// (0 when unattached).
func (s *Stats) QueueDepth() int {
	if s.queue == nil {
		return 0
	}
	return len(s.queue)
}

// QueueCap returns the capacity of the operator's output channel.
func (s *Stats) QueueCap() int {
	if s.queue == nil {
		return 0
	}
	return cap(s.queue)
}

// PeakQueueDepth returns the high-water mark of the output channel depth
// as sampled at each emission.
func (s *Stats) PeakQueueDepth() int64 { return s.peakQueue.Load() }

// LatencySnapshot captures the processing-latency histogram (empty when
// uninstrumented).
func (s *Stats) LatencySnapshot() obs.HistogramSnapshot { return s.Latency.Snapshot() }

// AgeSnapshot captures the chunk-age histogram (empty when uninstrumented).
func (s *Stats) AgeSnapshot() obs.HistogramSnapshot { return s.ChunkAge.Snapshot() }

func (s *Stats) String() string {
	return fmt.Sprintf("%s{in: %d chunks/%d pts, out: %d chunks/%d pts, peak buffer: %d pts, sectors: %d matched/%d unmatched}",
		s.Name, s.ChunksIn.Load(), s.PointsIn.Load(),
		s.ChunksOut.Load(), s.PointsOut.Load(), s.PeakBufferedPoints(),
		s.MatchedSectors.Load(), s.UnmatchedSectors.Load())
}
