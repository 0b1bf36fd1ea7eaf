// Package trace is the chunk-level tracing layer of the DSMS: a
// low-overhead, always-on recorder that follows a sampled subset of
// chunks from ingest, through the shared-trunk operator DAG, to delivery
// and wire egress, and exposes the resulting span timelines through
// GET /queries/{id}/trace and geostreams_trace_* metrics.
//
// The design keeps the hot path nearly free:
//
//   - Head-based sampling. A chunk either receives a nonzero trace ID
//     when it first enters the system (1 in every Interval data chunks;
//     punctuation is always traced because sector boundaries are rare
//     and load-bearing) or it carries trace ID 0 and every recording
//     site reduces to a single integer compare.
//   - Lock-free rings. Spans are recorded into fixed-size power-of-two
//     rings of atomic pointers: one shared ring for pre-query stages
//     (ingest decode, hub routing, shared trunks) and one ring per
//     registered query. Writers never block and never allocate beyond
//     the span itself; old spans are overwritten, never compacted.
//   - No cross-package types. The package depends only on obs; stream,
//     share, and dsms depend on it, never the reverse.
//
// A span is flat, not nested: the causal tree for one chunk is
// reconstructed at presentation time by grouping spans on the trace ID
// and ordering them by start time, with queue-wait synthesized from the
// gaps between consecutive stages — so the recording sites pay nothing
// for tree bookkeeping.
package trace

import (
	"sync"
	"sync/atomic"
	"time"

	"geostreams/internal/obs"
)

// Stage names, one per recording site. StageQueueWait never appears in a
// ring: it is synthesized at presentation time from inter-span gaps.
const (
	StageIngestDecode = "ingest-decode"
	StageHubRoute     = "hub-route"
	StageOperator     = "operator"
	StageFanout       = "fanout"
	StageEncode       = "encode"
	StageDeliver      = "deliver"
	StageWireEgress   = "wire-egress"
	StageQueueWait    = "queue-wait"
)

// stages lists every recorded stage in pipeline order; each gets a
// duration histogram at Tracer construction.
var stages = []string{
	StageIngestDecode, StageHubRoute, StageOperator,
	StageFanout, StageEncode, StageDeliver, StageWireEgress,
}

// Span is one recorded stage crossing for one traced chunk.
type Span struct {
	Trace uint64 // nonzero trace ID stamped on the chunk
	Query int64  // owning query; 0 for shared (pre-query) stages
	Stage string // one of the Stage* constants
	Op    string // operator name, trunk label, band, or peer address
	Start int64  // stage start, unix nanos
	Dur   int64  // stage duration, nanos
	T     int64  // the chunk's stream timestamp
	Punct bool   // true for punctuation (end-of-sector) chunks
}

// Ring is a fixed-size lock-free span buffer: a power-of-two slice of
// atomic pointers written round-robin. Concurrent writers claim slots
// with one atomic add; readers snapshot best-effort (a snapshot taken
// during heavy writing may miss or double-see a span at the wrap
// boundary, which is acceptable for diagnostics).
type Ring struct {
	slots []atomic.Pointer[Span]
	mask  uint64
	pos   atomic.Uint64
}

// NewRing builds a ring holding at least n spans (rounded up to a power
// of two, minimum 64).
func NewRing(n int) *Ring {
	size := 64
	for size < n {
		size <<= 1
	}
	return &Ring{slots: make([]atomic.Pointer[Span], size), mask: uint64(size - 1)}
}

// Add records one span, overwriting the oldest once the ring is full.
func (r *Ring) Add(s *Span) {
	i := r.pos.Add(1) - 1
	r.slots[i&r.mask].Store(s)
}

// Snapshot returns the buffered spans oldest-first.
func (r *Ring) Snapshot() []Span {
	pos := r.pos.Load()
	n := uint64(len(r.slots))
	start := uint64(0)
	if pos > n {
		start = pos - n
	}
	out := make([]Span, 0, pos-start)
	for i := start; i < pos; i++ {
		if s := r.slots[i&r.mask].Load(); s != nil {
			out = append(out, *s)
		}
	}
	return out
}

// Recorded returns how many spans were ever added (recorded minus
// len(slots), floored at zero, is how many were overwritten).
func (r *Ring) Recorded() int64 { return int64(r.pos.Load()) }

// Overwritten returns how many spans have been displaced by wraparound.
func (r *Ring) Overwritten() int64 {
	pos := r.pos.Load()
	if n := uint64(len(r.slots)); pos > n {
		return int64(pos - n)
	}
	return 0
}

// Tracer owns the sampling decision, trace-ID allocation, the shared
// ring, and the per-query rings. One Tracer serves one DSMS server.
type Tracer struct {
	interval atomic.Int64 // sample every Nth data chunk; <=0 disables
	ringSize int

	dataSeen atomic.Uint64 // head-sampling counter over data chunks
	idSeq    atomic.Uint64 // trace-ID sequence
	idBase   uint64        // per-process random base mixed into IDs

	sampled atomic.Int64 // trace IDs issued
	spans   atomic.Int64 // spans recorded across all rings

	stageHist map[string]*obs.Histogram

	shared *Recorder

	mu    sync.Mutex
	rings map[int64]*Recorder
}

// DefaultInterval samples 1 in 64 data chunks.
const DefaultInterval = 64

// DefaultRingSpans is the per-ring capacity.
const DefaultRingSpans = 1024

// New builds a tracer sampling one in interval data chunks into rings of
// ringSpans spans. interval <= 0 disables data sampling (punctuation is
// still traced); zero ringSpans uses DefaultRingSpans.
func New(interval, ringSpans int) *Tracer {
	if ringSpans <= 0 {
		ringSpans = DefaultRingSpans
	}
	t := &Tracer{
		ringSize:  ringSpans,
		idBase:    uint64(time.Now().UnixNano()),
		stageHist: make(map[string]*obs.Histogram, len(stages)),
		rings:     make(map[int64]*Recorder),
	}
	t.interval.Store(int64(interval))
	for _, s := range stages {
		t.stageHist[s] = obs.NewDurationHistogram()
	}
	t.shared = &Recorder{t: t, ring: NewRing(ringSpans)}
	return t
}

// SetInterval changes the data-chunk sampling interval (<=0 disables).
func (t *Tracer) SetInterval(n int) { t.interval.Store(int64(n)) }

// Interval returns the current data-chunk sampling interval.
func (t *Tracer) Interval() int { return int(t.interval.Load()) }

// StampID decides whether the next chunk is traced and returns its trace
// ID, or 0 for untraced. Data chunks are sampled head-based 1/Interval;
// punctuation is always traced. Callers stamp the returned ID onto the
// chunk before first publication and never after.
func (t *Tracer) StampID(data bool) uint64 {
	if data {
		iv := t.interval.Load()
		if iv <= 0 {
			return 0
		}
		if t.dataSeen.Add(1)%uint64(iv) != 0 {
			return 0
		}
	}
	t.sampled.Add(1)
	return mix64(t.idBase + t.idSeq.Add(1))
}

// mix64 is the splitmix64 finalizer: spreads sequential IDs across the
// 64-bit space so IDs from different processes are unlikely to collide.
// The result is forced nonzero (zero means "untraced").
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		return 1
	}
	return x
}

// Shared returns the recorder for pre-query stages (ingest decode, hub
// routing, shared trunks). Never nil.
func (t *Tracer) Shared() *Recorder { return t.shared }

// Recorder returns (creating on first use) the recorder for one query's
// ring.
func (t *Tracer) Recorder(query int64) *Recorder {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.rings[query]
	if !ok {
		r = &Recorder{t: t, ring: NewRing(t.ringSize), query: query}
		t.rings[query] = r
	}
	return r
}

// Release drops a deregistered query's ring.
func (t *Tracer) Release(query int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.rings, query)
}

// QuerySpans snapshots one query's ring (nil if the query has none).
func (t *Tracer) QuerySpans(query int64) []Span {
	t.mu.Lock()
	r := t.rings[query]
	t.mu.Unlock()
	if r == nil {
		return nil
	}
	return r.ring.Snapshot()
}

// SharedSpans snapshots the shared ring.
func (t *Tracer) SharedSpans() []Span { return t.shared.ring.Snapshot() }

// QueryRingStats reports how many spans one query's ring has ever
// recorded and how many were displaced by wraparound; zeros if the query
// has no ring.
func (t *Tracer) QueryRingStats(query int64) (recorded, overwritten int64) {
	t.mu.Lock()
	r := t.rings[query]
	t.mu.Unlock()
	if r == nil {
		return 0, 0
	}
	return r.ring.Recorded(), r.ring.Overwritten()
}

// StageSnapshot returns the duration histogram snapshot for one stage.
func (t *Tracer) StageSnapshot(stage string) obs.HistogramSnapshot {
	return t.stageHist[stage].Snapshot()
}

// Collect implements obs.Collector with the geostreams_trace_* family.
func (t *Tracer) Collect(e *obs.Exposition) {
	e.Gauge("geostreams_trace_sample_interval",
		"Head-based sampling interval: 1 in N data chunks is traced (0 = data tracing disabled).",
		float64(t.Interval()))
	e.Counter("geostreams_trace_sampled_total",
		"Chunks stamped with a trace ID (sampled data chunks plus all punctuation).",
		float64(t.sampled.Load()))
	e.Counter("geostreams_trace_spans_total",
		"Spans recorded across all trace rings.",
		float64(t.spans.Load()))
	t.mu.Lock()
	rings := len(t.rings)
	t.mu.Unlock()
	e.Gauge("geostreams_trace_rings",
		"Live per-query span rings (the shared ring is not counted).",
		float64(rings))
	for _, s := range stages {
		e.Histogram("geostreams_trace_stage_seconds",
			"Recorded span durations by pipeline stage.",
			t.stageHist[s].Snapshot(), obs.L("stage", s))
	}
}

// Recorder writes spans for one ring. A nil *Recorder is valid and
// records nothing, so call sites need no nil checks beyond the trace-ID
// test they already perform.
type Recorder struct {
	t     *Tracer
	ring  *Ring
	query int64
}

// Record adds one span for the chunk carrying trace ID id. It is a no-op
// on a nil recorder or a zero ID, so untraced chunks cost exactly this
// comparison.
func (r *Recorder) Record(id uint64, stage, op string, start time.Time, dur time.Duration, chunkT int64, punct bool) {
	if r == nil || id == 0 {
		return
	}
	r.ring.Add(&Span{
		Trace: id, Query: r.query, Stage: stage, Op: op,
		Start: start.UnixNano(), Dur: int64(dur), T: chunkT, Punct: punct,
	})
	r.t.spans.Add(1)
	if h := r.t.stageHist[stage]; h != nil {
		h.ObserveDuration(dur)
	}
}
