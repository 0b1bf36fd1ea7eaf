// Package dsms implements the prototype stream management system of the
// paper's §4 (Fig. 3): a server that ingests instrument streams through a
// stream generator, registers continuous user queries over HTTP, optimizes
// them (restriction push-down plus a shared cascade-tree spatial
// restriction stage), executes operator pipelines per query, and delivers
// results to clients as PNG frames.
package dsms

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"geostreams/internal/cascade"
	"geostreams/internal/geom"
	"geostreams/internal/obs"
	"geostreams/internal/obs/trace"
	"geostreams/internal/store"
	"geostreams/internal/stream"
)

// hubState is the supervision lifecycle of a band hub: live while its
// source delivers, reconnecting while the supervisor retries a dropped
// source, dead once the source is gone for good (ended unsupervised, or
// the retry policy was exhausted).
type hubState int32

const (
	hubLive hubState = iota
	hubReconnecting
	hubDead
)

func (st hubState) String() string {
	switch st {
	case hubLive:
		return "live"
	case hubReconnecting:
		return "reconnecting"
	case hubDead:
		return "dead"
	}
	return "unknown"
}

// hub fans one band's instrument stream out to its subscribers — the
// shared trunks and band routers of the share package. It sequences each
// chunk into the band's store (when one is mounted) and broadcasts it to
// every subscriber; the §4 shared spatial restriction is the band router
// downstream, not the hub.
type hub struct {
	info stream.Info

	mu     sync.Mutex
	subs   map[cascade.QueryID]*subscriber
	nextID cascade.QueryID // last subscription id handed out
	closed bool            // closeAll has run; late subscribers get a closed stream

	// Supervision lifecycle, exported on /stats and /metrics.
	state      atomic.Int32 // hubState
	reconnects atomic.Int64

	// Routing telemetry: chunks delivered, and data chunks shed because a
	// subscriber fell behind.
	delivered atomic.Int64
	dropped   atomic.Int64

	// age observes, at routing time, the seconds between a data chunk's
	// instrument ingest stamp and its arrival at the hub — ingest freshness
	// before any query processing.
	age *obs.Histogram

	// tracer stamps locally generated chunks with trace IDs (wire-fed
	// chunks arrive already stamped) and trec records the hub-route span
	// into the server's shared ring. Both may be nil (tracing disabled).
	tracer *trace.Tracer
	trec   *trace.Recorder

	// log receives slow-consumer shed and routing events; nil-safe.
	log *obs.Logger

	// hist is the band's tiered historical store (nil when the server runs
	// without one). route appends every chunk here before any subscriber
	// can observe it, which assigns the chunk's durable (band, seq)
	// cursor; consume is the single goroutine calling route, so the
	// append-then-route order is a happens-before edge.
	hist *store.Band
}

// minSubBuffer is the floor on each subscriber's pending data-chunk
// budget; beyond the budget the oldest data chunk is shed (punctuation is
// never shed, so operator state always closes).
const minSubBuffer = 64

func newHub(info stream.Info, log *obs.Logger, tracer *trace.Tracer) *hub {
	h := &hub{
		info:   info,
		subs:   make(map[cascade.QueryID]*subscriber),
		age:    obs.NewDurationHistogram(),
		tracer: tracer,
		log:    log.With("band", info.Band),
	}
	if tracer != nil {
		h.trec = tracer.Shared()
	}
	return h
}

// subBudget sizes a subscriber's pending-chunk budget: at least four scan
// sectors' worth of row chunks when the sector geometry is known, so a
// briefly slow query never loses data, while a stuck query still sheds
// instead of exhausting memory.
func (h *hub) subBudget() int {
	budget := minSubBuffer
	if h.info.HasSectorMeta {
		if rows := 4 * h.info.SectorGeom.H; rows > budget {
			budget = rows
		}
	}
	return budget
}

// subscriber decouples the hub from one query pipeline: the hub appends to
// a bounded deque (never blocking), a forwarder goroutine drains it into
// the pipeline's channel, and detaching closes the deque which closes the
// channel — no send races, no slow-consumer stalls.
type subscriber struct {
	id    cascade.QueryID
	deque *chunkDeque
	out   chan *stream.Chunk
	done  chan struct{}
	once  sync.Once
	hub   *hub
}

func (s *subscriber) forward() {
	defer close(s.out)
	for {
		c, ok := s.deque.pop()
		if !ok {
			return
		}
		select {
		case s.out <- c: // transfers the chunk's reference downstream
			s.hub.delivered.Add(1)
		case <-s.done:
			// Detached mid-delivery: release the in-hand chunk and whatever
			// the deque still holds, so pooled buffers recycle instead of
			// leaking with the abandoned subscriber.
			c.Release()
			for {
				c, ok := s.deque.pop()
				if !ok {
					return
				}
				c.Release()
			}
		}
	}
}

// finish closes the deque: the forwarder drains everything already queued
// and then closes the pipeline's channel. Used when the *source* ends —
// queued chunks must still reach the query.
func (s *subscriber) finish() {
	s.deque.close()
}

// detach aborts delivery immediately, discarding queued chunks. Used when
// the *query* goes away (deregistration or pipeline termination); safe to
// call multiple times and after finish.
func (s *subscriber) detach() {
	s.once.Do(func() {
		close(s.done)
		s.deque.close()
	})
}

// subscribe attaches a subscriber to this band and returns its
// subscription id, drawn from the hub's own counter, for unsubscribe.
// After the hub has closed (source ended for good), there is nothing left
// to deliver and nobody will ever finish() a new subscriber, so late
// subscribers get id 0 and an immediately-closed stream: their pipeline
// sees a normal end-of-stream and terminates instead of leaking.
func (h *hub) subscribe() (cascade.QueryID, *stream.Stream) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		done := make(chan *stream.Chunk)
		close(done)
		return 0, &stream.Stream{Info: h.info, C: done}
	}
	h.nextID++
	id := h.nextID
	s := &subscriber{
		id: id,
		deque: newChunkDeque(h.subBudget(), &h.dropped, func(dropped int64) {
			h.log.Warn("slow consumer shedding data chunks",
				"subscription", int64(id), "dropped_total", dropped)
		}),
		out:  make(chan *stream.Chunk, stream.DefaultBuffer),
		done: make(chan struct{}),
		hub:  h,
	}
	h.subs[id] = s
	go s.forward()
	return id, &stream.Stream{Info: h.info, C: s.out}
}

// unsubscribe detaches a subscription and ends its stream.
func (h *hub) unsubscribe(id cascade.QueryID) {
	h.mu.Lock()
	s, ok := h.subs[id]
	if ok {
		delete(h.subs, id)
	}
	h.mu.Unlock()
	if ok {
		s.detach()
	}
}

// closeAll finishes every subscriber (source ended): queued chunks drain,
// then each subscriber's stream closes, letting query pipelines complete
// normally.
func (h *hub) closeAll() {
	h.mu.Lock()
	h.closed = true
	subs := make([]*subscriber, 0, len(h.subs))
	for id, s := range h.subs {
		delete(h.subs, id)
		subs = append(subs, s)
	}
	h.mu.Unlock()
	h.state.Store(int32(hubDead))
	if h.hist != nil {
		// The live stream is over for good: store tails must serve the
		// remaining history and then end cleanly instead of waiting.
		h.hist.SealLive()
	}
	for _, s := range subs {
		s.finish()
	}
}

// consume routes chunks from src until the source ends or the hub is told
// to stop. It deliberately does NOT close the subscribers: the supervisor
// decides whether a source end means "reconnect and resume" or "dead".
// Returns true when src closed, false when ctx or stop fired.
func (h *hub) consume(ctx context.Context, stop <-chan struct{}, src *stream.Stream) bool {
	for {
		select {
		case c, ok := <-src.C:
			if !ok {
				return true
			}
			h.route(c)
		case <-stop:
			stream.DrainReleasing(src.C)
			return false
		case <-ctx.Done():
			stream.DrainReleasing(src.C)
			return false
		}
	}
}

// route enqueues one chunk for every subscriber. A data chunk with no
// location (a points chunk without a finite point) goes nowhere.
func (h *hub) route(c *stream.Chunk) {
	// Stamp unstamped chunks here, at the first point every ingest path
	// funnels through. Wire-fed chunks usually arrive already stamped (at
	// the decode or at the instrument); locally generated ones get their
	// ID now. The consume goroutine is the chunk's sole owner until the
	// deque pushes below, so the mutation honors stamp-before-publication.
	var begin time.Time
	if h.tracer != nil {
		if c.Trace == 0 {
			c.Trace = h.tracer.StampID(c.IsData())
		}
		if c.Trace != 0 {
			begin = time.Now()
			// Capture the trace fields now: the deferred Record runs after
			// the deque pushes hand the chunk off, and a pool-backed chunk
			// may already be released by then.
			tr, tT, punct := c.Trace, int64(c.T), !c.IsData()
			defer func() {
				h.trec.Record(tr, trace.StageHubRoute, h.info.Band,
					begin, time.Since(begin), tT, punct)
			}()
		}
	}
	// Durably sequence the chunk before any routing: once a subscriber
	// can observe it, the store can replay it, so a resume cursor never
	// names a chunk the store missed.
	if h.hist != nil {
		h.hist.Append(c)
	}
	if c.IsData() && c.Ingest != 0 {
		h.age.Observe(float64(time.Now().UnixNano()-c.Ingest) / 1e9)
	}
	var targets []*subscriber
	if !c.IsData() || locatable(c) {
		h.mu.Lock()
		for _, s := range h.subs {
			targets = append(targets, s)
		}
		h.mu.Unlock()
	}
	if len(targets) == 0 {
		// Nobody subscribed, or the chunk has no location: its journey
		// ends at the hub.
		c.Release()
		return
	}
	// One reference per target deque; the incoming reference covers the
	// first. Retain before the first push — a fast subscriber could
	// otherwise release the last reference while the chunk is still being
	// pushed to the next.
	for i := 1; i < len(targets); i++ {
		c.Retain()
	}
	for _, s := range targets {
		s.deque.push(c)
	}
}

// locatable reports whether a data chunk has a location a subscriber can
// read. A grid chunk always does (its lattice is validated finite and
// non-empty); a points chunk only when its bounds form a real rect, so an
// empty point list or one with a NaN coordinate is not delivered. Only
// points chunks pay for a bounding box.
func locatable(c *stream.Chunk) bool {
	return c.Kind != stream.KindPoints || c.Bounds().Intersects(geom.WorldRect())
}

// HubStats is the routing telemetry of one band hub. The freshness fields
// summarize the hub's ingest-age histogram: the observed delay between the
// instrument stamping a data chunk and the hub routing it.
type HubStats struct {
	Band        string `json:"band"`
	State       string `json:"state"`
	Reconnects  int64  `json:"reconnects"`
	Subscribers int    `json:"subscribers"`
	Delivered   int64  `json:"delivered_chunks"`
	Dropped     int64  `json:"dropped_chunks"`

	AgeSamples    int64   `json:"age_samples"`
	AgeP50Seconds float64 `json:"age_p50_seconds"`
	AgeP95Seconds float64 `json:"age_p95_seconds"`
}

func (h *hub) stats() HubStats {
	h.mu.Lock()
	n := len(h.subs)
	h.mu.Unlock()
	age := h.age.Snapshot()
	return HubStats{
		Band:          h.info.Band,
		State:         hubState(h.state.Load()).String(),
		Reconnects:    h.reconnects.Load(),
		Subscribers:   n,
		Delivered:     h.delivered.Load(),
		Dropped:       h.dropped.Load(),
		AgeSamples:    age.Count,
		AgeP50Seconds: age.Quantile(0.5),
		AgeP95Seconds: age.Quantile(0.95),
	}
}

// chunkDeque is the bounded handoff between the hub and one subscriber:
// pushes never block (the oldest *data* chunk is shed when the data count
// exceeds the cap; punctuation is always retained), pops block until a
// chunk arrives or the deque closes.
type chunkDeque struct {
	mu      sync.Mutex
	cond    *sync.Cond
	buf     []*stream.Chunk
	data    int // count of data chunks in buf
	maxData int
	closed  bool
	dropped *atomic.Int64
	// logDrop fires on this deque's 1st, 2nd, 4th, 8th, ... shed (power-of
	// -two rate limiting) with the deque's cumulative shed count, so a
	// persistently slow consumer produces a trickle of warnings, not a
	// flood. May be nil.
	logDrop func(total int64)
	shed    int64
}

func newChunkDeque(maxData int, dropped *atomic.Int64, logDrop func(int64)) *chunkDeque {
	d := &chunkDeque{maxData: maxData, dropped: dropped, logDrop: logDrop}
	d.cond = sync.NewCond(&d.mu)
	return d
}

func (d *chunkDeque) push(c *stream.Chunk) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		c.Release() // dropped: the subscriber is gone
		return
	}
	var shed *stream.Chunk
	if c.IsData() && d.data >= d.maxData {
		// Shed the oldest data chunk, keeping punctuation in place.
		for i, old := range d.buf {
			if old.IsData() {
				d.buf = append(d.buf[:i], d.buf[i+1:]...)
				d.data--
				d.dropped.Add(1)
				d.shed++
				if d.logDrop != nil && d.shed&(d.shed-1) == 0 {
					d.logDrop(d.shed)
				}
				shed = old
				break
			}
		}
	}
	d.buf = append(d.buf, c)
	if c.IsData() {
		d.data++
	}
	d.cond.Signal()
	d.mu.Unlock()
	if shed != nil {
		shed.Release() // outside the lock: Release may recycle a pooled buffer
	}
}

func (d *chunkDeque) pop() (*stream.Chunk, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.buf) == 0 && !d.closed {
		d.cond.Wait()
	}
	if len(d.buf) == 0 {
		return nil, false
	}
	c := d.buf[0]
	d.buf = d.buf[1:]
	if c.IsData() {
		d.data--
	}
	return c, true
}

func (d *chunkDeque) close() {
	d.mu.Lock()
	d.closed = true
	d.cond.Broadcast()
	d.mu.Unlock()
}
