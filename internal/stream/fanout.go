package stream

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"geostreams/internal/obs/trace"
)

// Fanout broadcasts one input stream to a dynamic set of taps — the
// multi-reader primitive behind shared query execution. Unlike Tee, whose
// consumer count is fixed at wiring time, taps attach (AddTap) and detach
// (Tap.Close) while the stream flows, so queries can mount onto and leave
// a running shared trunk.
//
// Semantics:
//
//   - Every chunk pointer is shared across taps; chunks are immutable by
//     contract.
//   - Delivery is per-tap blocking (each tap has a DefaultBuffer channel):
//     a slow tap exerts backpressure on the trunk, exactly like a slow
//     consumer of a private pipeline. A tap that detaches while the
//     broadcaster is blocked on it unblocks the trunk immediately.
//   - Broadcast holds the first chunk until Start is called, so a trunk
//     assembled bottom-up (operators wired, then every initial tap
//     attached, then Start) observes a consistent stream start on all of
//     those taps instead of dropping a prefix on some. After Start, a tap
//     attaching mid-stream sees chunks from its attach point on — the same
//     contract a late hub subscriber gets.
//   - When the input closes (or the group is cancelled) every attached
//     tap's channel is closed; AddTap afterwards returns an already-ended
//     tap.
type Fanout struct {
	info Info

	mu     sync.Mutex
	taps   []*Tap
	closed bool

	// started is closed by Start; broadcast waits on it so no chunk is
	// dropped while the initial taps are being attached.
	started   chan struct{}
	startOnce sync.Once

	delivered atomic.Int64

	// tracer records a "fanout" span per traced chunk broadcast, labelled
	// with the trunk it serves (attach-once; traceOp is guarded by mu).
	tracer  atomic.Pointer[trace.Recorder]
	traceOp string
}

// AttachTrace wires a span recorder into the fanout, once, labelling its
// spans with op (the trunk label); later calls are no-ops.
func (f *Fanout) AttachTrace(r *trace.Recorder, op string) {
	if r == nil || !f.tracer.CompareAndSwap(nil, r) {
		return
	}
	f.mu.Lock()
	f.traceOp = op
	f.mu.Unlock()
}

// Tap is one attached reader of a Fanout.
type Tap struct {
	f    *Fanout
	s    *Stream
	c    chan *Chunk
	done chan struct{}
	once sync.Once
}

// NewFanout runs the broadcaster for `in` inside the group; it delivers
// nothing until Start. The broadcaster goroutine exits when the input
// closes or the group context ends; either way all attached taps are
// closed.
func NewFanout(g *Group, in *Stream) *Fanout {
	f := &Fanout{info: in.Info, started: make(chan struct{})}
	inC := in.C
	g.Go(func(ctx context.Context) error {
		defer f.finish()
		defer DrainReleasing(inC)
		for {
			select {
			case c, ok := <-inC:
				if !ok {
					return nil
				}
				if !f.broadcast(ctx, c) {
					return nil
				}
			case <-ctx.Done():
				return nil
			}
		}
	})
	return f
}

// Delivered returns the total chunk deliveries across all taps.
func (f *Fanout) Delivered() int64 { return f.delivered.Load() }

// TapCount returns the number of currently attached taps.
func (f *Fanout) TapCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.taps)
}

// AddTap attaches a new reader. If the fanout has already finished the
// returned tap's stream is closed immediately.
func (f *Fanout) AddTap() *Tap {
	t := &Tap{f: f, done: make(chan struct{}), c: make(chan *Chunk, DefaultBuffer)}
	t.s = &Stream{Info: f.info, C: t.c}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		close(t.c)
		return t
	}
	f.taps = append(f.taps, t)
	f.mu.Unlock()
	return t
}

// Start releases the broadcaster. Attach every tap that must see the
// stream from its first chunk before calling it; Start is idempotent.
func (f *Fanout) Start() { f.startOnce.Do(func() { close(f.started) }) }

// Stream returns the tap's readable stream.
func (t *Tap) Stream() *Stream { return t.s }

// Close detaches the tap from the fanout. The tap's channel is not closed
// (the broadcaster may be mid-send); the detaching consumer simply stops
// reading. Close is idempotent and unblocks a broadcaster currently
// blocked on this tap.
//
// Chunks still buffered on the tap are the broadcaster's to reclaim: it is
// the only sender, so it alone can drain the buffer without racing a send
// (it reaps the tap on its next delivery, or in finish). Only when the
// fanout has already finished — no broadcaster left to race — does Close
// drain the residue itself. Either way every buffered reference is
// released; a detaching reader never strands pool-backed chunks.
func (t *Tap) Close() {
	t.once.Do(func() {
		close(t.done)
		t.f.mu.Lock()
		finished := t.f.closed
		t.f.mu.Unlock()
		if finished {
			DrainReleasing(t.c)
		}
	})
}

// reap removes a detached tap from the broadcast set and releases whatever
// its buffer still holds. Called only from the broadcaster goroutine, after
// it has observed t.done — so no send can race the drain.
func (f *Fanout) reap(t *Tap) {
	f.mu.Lock()
	for i, x := range f.taps {
		if x == t {
			f.taps = append(f.taps[:i], f.taps[i+1:]...)
			break
		}
	}
	f.mu.Unlock()
	DrainReleasing(t.c)
}

// broadcast delivers one chunk to every attached tap; it reports false
// when the group context ended mid-delivery.
func (f *Fanout) broadcast(ctx context.Context, c *Chunk) bool {
	select {
	case <-f.started:
	case <-ctx.Done():
		c.Release()
		return false
	}
	// Capture the trace fields before any hand-off: once a consumer holds
	// a reference it may release the chunk, and a pool-backed chunk's
	// fields are unreadable after its last Release.
	var begin time.Time
	if tr, tT, punct := c.Trace, int64(c.T), !c.IsData(); tr != 0 {
		begin = time.Now()
		defer func() {
			f.mu.Lock()
			op := f.traceOp
			f.mu.Unlock()
			f.tracer.Load().Record(tr, trace.StageFanout, op,
				begin, time.Since(begin), tT, punct)
		}()
	}
	taps := f.snapshot()
	// One reference per tap; the incoming reference covers the first.
	for i := 1; i < len(taps); i++ {
		c.Retain()
	}
	if len(taps) == 0 {
		c.Release()
		return true
	}
	for i, t := range taps {
		// A tap known to be detached is reaped, not sent to: with both the
		// send and the done arm ready, select would sometimes deposit a chunk
		// nobody reads again.
		select {
		case <-t.done:
			f.reap(t)
			c.Release()
			continue
		default:
		}
		select {
		case t.c <- c:
			f.delivered.Add(1)
		case <-t.done:
			// Tap detached while we were blocked on it; skip it.
			f.reap(t)
			c.Release()
		case <-ctx.Done():
			for j := i; j < len(taps); j++ {
				c.Release()
			}
			return false
		}
	}
	return true
}

func (f *Fanout) snapshot() []*Tap {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*Tap(nil), f.taps...)
}

// finish marks the fanout ended and closes every still-attached tap. Taps
// that detached without being reaped (no broadcast ran after their Close)
// still hold buffered references; with the broadcaster gone the drain here
// is the one that frees them. Attached taps are left to their readers, who
// drain to the close.
func (f *Fanout) finish() {
	f.mu.Lock()
	taps := f.taps
	f.taps = nil
	f.closed = true
	f.mu.Unlock()
	for _, t := range taps {
		close(t.c)
		select {
		case <-t.done:
			DrainReleasing(t.c)
		default:
		}
	}
}
