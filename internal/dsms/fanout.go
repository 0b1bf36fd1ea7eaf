package dsms

import (
	"sync"
	"sync/atomic"
	"time"
)

// This file is the render-once fan-out hub (DESIGN.md §15). A product's
// delivery stage encodes each PNG frame exactly once and publishes it into
// a ref-counted ring; every viewer of every handle on the product — HTTP
// long-poll, WebSocket, in-process subscription — reads the same bytes
// through its own cursor, which never starts before its handle's attach
// sequence. A slow reader skips forward over evicted frames (shed is
// counted per client), so no reader ever stalls the pipeline or another
// reader.
//
// Ownership contract:
//   - publish transfers the caller's reference to the ring.
//   - frameAt retains the returned frame; the reader must Release it when
//     the bytes have been written out.
//   - The last Release recycles the PNG backing into pngBufPool.
//     Over-release panics; a missed Release degrades to GC (the buffer
//     simply never returns to the pool — never a corruption).

// pngBufPool recycles PNG backing arrays across frames once the last
// reference is released; pngLive counts checked-out backings so leak
// tests and /metrics can watch the pool balance.
var (
	pngBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}
	pngLive    atomic.Int64
)

// retain takes one reference on the frame. Callers receive frames from
// frameAt already retained; retain is only for handing a frame onward.
func (f *Frame) retain() { f.refs.Add(1) }

// Release returns one reference; the last release recycles the PNG
// backing into the encode pool.
func (f *Frame) Release() {
	n := f.refs.Add(-1)
	if n < 0 {
		panic("dsms: Frame over-released")
	}
	if n == 0 && f.pooled {
		b := f.PNG[:0]
		f.PNG = nil
		pngLive.Add(-1)
		pngBufPool.Put(&b)
	}
}

// frameStatus is frameAt's verdict for one cursor probe.
type frameStatus int

const (
	frameReady  frameStatus = iota // a frame was returned
	frameWait                      // nothing at the cursor yet; await it
	frameClosed                    // hub closed and the cursor is drained
)

// frameWaiter is one parked reader: it is woken only when a frame with
// Seq >= seq is published (or the hub closes). The channel has capacity
// one so publishers never block on a waiter.
type frameWaiter struct {
	seq uint64
	ch  chan struct{}
}

// frameHub is the shared frame cache: a bounded ring of the most recent
// frames addressed by absolute sequence number.
type frameHub struct {
	mu     sync.Mutex
	ring   []*Frame // ring[i].Seq == base+uint64(i)
	max    int
	base   uint64 // sequence of ring[0]
	next   uint64 // sequence the next published frame receives
	closed bool
	// bytes sums the PNG bytes of every published frame.
	bytes   int64
	waiters map[*frameWaiter]struct{}
	// shed counts frames a reader skipped because they were evicted
	// before it caught up (summed over all readers); wakeups counts
	// targeted waiter wakeups — the thundering-herd pin asserts it stays
	// proportional to ready readers, not to parked ones; subs gauges the
	// live FrameSub subscriptions.
	shed    atomic.Int64
	wakeups atomic.Int64
	subs    atomic.Int64
}

func newFrameHub(max int) *frameHub {
	return &frameHub{max: max, waiters: make(map[*frameWaiter]struct{})}
}

// publish appends one frame, assigning its sequence number, evicting the
// oldest frame past capacity, and waking exactly the waiters whose cursor
// the new frame satisfies. Ownership of the caller's reference moves to
// the ring.
func (h *frameHub) publish(f *Frame) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		f.Release()
		return
	}
	f.Seq = h.next
	h.next++
	h.bytes += int64(len(f.PNG))
	h.ring = append(h.ring, f)
	var evicted *Frame
	if len(h.ring) > h.max {
		evicted = h.ring[0]
		h.ring = h.ring[1:]
		h.base++
	}
	for w := range h.waiters {
		if w.seq < h.next {
			delete(h.waiters, w)
			h.wakeups.Add(1)
			select {
			case w.ch <- struct{}{}:
			default:
			}
		}
	}
	h.mu.Unlock()
	if evicted != nil {
		evicted.Release()
	}
}

// frameAt reads the frame at cursor. A cursor below the retention horizon
// skips forward, returning how many frames were shed. The returned frame
// is retained for the caller, who must Release it.
func (h *frameHub) frameAt(cursor uint64) (f *Frame, next uint64, skipped int64, st frameStatus) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if cursor < h.base {
		skipped = int64(h.base - cursor)
		cursor = h.base
		h.shed.Add(skipped)
	}
	if cursor < h.next {
		f = h.ring[cursor-h.base]
		f.retain()
		return f, cursor + 1, skipped, frameReady
	}
	if h.closed {
		return nil, cursor, skipped, frameClosed
	}
	return nil, cursor, skipped, frameWait
}

// await blocks until a frame with Seq >= cursor is published, the hub
// closes, or d elapses. The caller re-probes with frameAt afterwards.
func (h *frameHub) await(cursor uint64, d time.Duration) {
	h.mu.Lock()
	if h.closed || cursor < h.next {
		h.mu.Unlock()
		return
	}
	w := &frameWaiter{seq: cursor, ch: make(chan struct{}, 1)}
	h.waiters[w] = struct{}{}
	h.mu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-w.ch:
	case <-t.C:
		h.mu.Lock()
		delete(h.waiters, w)
		h.mu.Unlock()
	}
}

// close marks the hub done and wakes every parked reader. Retained ring
// frames stay readable: a reader behind the head still drains the tail
// after the query ends.
func (h *frameHub) close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	ws := h.waiters
	h.waiters = make(map[*frameWaiter]struct{})
	h.mu.Unlock()
	for w := range ws {
		select {
		case w.ch <- struct{}{}:
		default:
		}
	}
}

// drop closes the hub and releases the ring's references so pooled PNG
// backings return to the pool deterministically (leak baselines; query
// teardown). Readers holding retained frames are unaffected.
func (h *frameHub) drop() {
	h.close()
	h.mu.Lock()
	ring := h.ring
	h.ring = nil
	h.base = h.next
	h.mu.Unlock()
	for _, f := range ring {
		f.Release()
	}
}

// shedCount reads the total frames readers skipped over.
func (h *frameHub) shedCount() int64 { return h.shed.Load() }

// oldest returns the cursor of the oldest retained frame.
func (h *frameHub) oldest() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.base
}

// ringLen reads the current ring occupancy.
func (h *frameHub) ringLen() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.ring)
}

// published reports how many frames were published and their total PNG
// bytes, read together so a handle's attach point is consistent.
func (h *frameHub) published() (frames uint64, bytes int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.next, h.bytes
}

// FrameSub is one subscriber's cursor over a query's shared frame cache.
// It starts at the oldest retained frame its handle may see and observes
// every frame from there on, except those evicted while it lagged
// (counted by Shed). It ends when the product stops or its handle is
// deregistered. Not safe for concurrent use by multiple goroutines.
type FrameSub struct {
	hub    *frameHub
	gone   <-chan struct{}
	cursor uint64
	shed   atomic.Int64
	gauged bool
}

// SubscribeFrames attaches a new fan-out subscription to the query's
// frame cache. Close it when done so the subscriber gauge stays honest.
func (r *Registered) SubscribeFrames() *FrameSub {
	s := r.frameCursor(r.frames.oldest())
	s.gauged = true
	r.frames.subs.Add(1)
	return s
}

// frameCursor is an ungauged cursor at seq, moved up to the handle's
// attach point: a handle never reads a frame published before it
// registered.
func (r *Registered) frameCursor(seq uint64) *FrameSub {
	if seq < r.attach {
		seq = r.attach
	}
	return &FrameSub{hub: r.frames, gone: r.gone, cursor: seq}
}

// Next blocks up to wait for the frame at the subscription's cursor; ok
// is false when the query ended and the cursor is drained, or the wait
// elapsed. The caller must Release the returned frame after writing it
// out.
func (s *FrameSub) Next(wait time.Duration) (*Frame, bool) {
	deadline := time.Now().Add(wait)
	for {
		f, next, skipped, st := s.hub.frameAt(s.cursor)
		s.cursor = next
		if skipped > 0 {
			s.shed.Add(skipped)
		}
		switch st {
		case frameReady:
			return f, true
		case frameClosed:
			return nil, false
		}
		rem := time.Until(deadline)
		if rem <= 0 || isClosed(s.gone) {
			return nil, false
		}
		s.hub.await(s.cursor, rem)
	}
}

// Shed reports how many frames this subscriber skipped because it fell
// behind the retention horizon.
func (s *FrameSub) Shed() int64 { return s.shed.Load() }

// Ended reports whether the query stopped and this subscription has read
// every retained frame, or its handle was deregistered — the signal to
// finish a transport cleanly rather than re-poll.
func (s *FrameSub) Ended() bool {
	if isClosed(s.gone) {
		return true
	}
	h := s.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.closed && s.cursor >= h.next
}

// isClosed reports whether a done-style channel has been closed; a nil
// channel never is.
func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// Cursor reports the subscription's current position.
func (s *FrameSub) Cursor() uint64 { return s.cursor }

// Close detaches the subscription.
func (s *FrameSub) Close() {
	if s.gauged {
		s.gauged = false
		s.hub.subs.Add(-1)
	}
}
