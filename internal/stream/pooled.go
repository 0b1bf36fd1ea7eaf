package stream

import (
	"sync"
	"sync/atomic"

	"geostreams/internal/exec"
	"geostreams/internal/geom"
)

// Pool-backed chunks: the zero-copy ingest path decodes wire frames
// straight into exec.AllocVals buffers and hands the result through the
// hub and the operator pipelines without copying. That is only safe if the
// buffer goes back to the pool exactly when the last consumer is done, so
// pool-backed chunks carry a reference count.
//
// Ownership contract (DESIGN.md §12):
//
//   - A chunk travels a channel with exactly one reference: sending
//     transfers ownership to the receiver.
//   - A fan-out point that hands one chunk to n consumers calls Retain
//     n−1 times BEFORE the first hand-off (Tee, Fanout.broadcast, hub
//     routing, egress tap offers).
//   - A consumer calls Release exactly once when it stops using the chunk:
//     after deriving its output, after copying values out, or when
//     dropping the chunk. Release must be the consumer's LAST touch of the
//     chunk — after the final Release the struct and buffer are reused.
//   - Code that cannot prove it holds the last reference simply does not
//     call Release: a missed Release downgrades the chunk to ordinary
//     garbage-collected memory (the pre-PR-7 behaviour), which is always
//     safe. Releasing more times than retained is the only corruption
//     hazard, and panics.
//
// Retain and Release are no-ops on chunks without pool state (every chunk
// built by the plain constructors), so operators apply the protocol
// unconditionally.

// poolState is the reference count of one pool-backed chunk plus the
// back-pointer Release needs to return the containing box to its pool.
type poolState struct {
	refs atomic.Int32
	box  *gridBox
}

// gridBox bundles the chunk header, its grid patch, and the pool state in
// one pooled allocation, so a steady-state decode allocates nothing.
type gridBox struct {
	c  Chunk
	g  GridPatch
	ps poolState
}

var gridBoxPool = sync.Pool{New: func() any { return new(gridBox) }}

// pooledLive counts live pool-backed chunks (built minus recycled); the
// leak tests in this package and internal/dsms use it.
var pooledLive atomic.Int64

// NewPooledGridChunk builds a pool-backed grid chunk with one reference,
// adopting vals (which should come from exec.AllocVals — the final Release
// recycles it there). The caller owns the single reference and transfers
// it by sending the chunk downstream.
func NewPooledGridChunk(t geom.Timestamp, lat geom.Lattice, vals []float64) (*Chunk, error) {
	b := gridBoxPool.Get().(*gridBox)
	b.g = GridPatch{Lat: lat, Vals: vals}
	if err := b.g.Validate(); err != nil {
		b.g = GridPatch{}
		gridBoxPool.Put(b)
		return nil, err
	}
	b.c = Chunk{Kind: KindGrid, T: t, Grid: &b.g, pool: &b.ps}
	b.ps.box = b
	b.ps.refs.Store(1)
	pooledLive.Add(1)
	return &b.c, nil
}

// Pooled reports whether the chunk is pool-backed (and so participates in
// reference counting).
func (c *Chunk) Pooled() bool { return c != nil && c.pool != nil }

// Retain adds one reference to a pool-backed chunk; a no-op otherwise.
// Fan-out points call it once per extra consumer before handing the chunk
// to any of them.
func (c *Chunk) Retain() {
	if c == nil || c.pool == nil {
		return
	}
	c.pool.refs.Add(1)
}

// Release drops one reference; the last one recycles the value buffer into
// the exec pool and the chunk struct into its own pool. No-op on ordinary
// chunks. Release must be the caller's last touch of the chunk.
func (c *Chunk) Release() {
	if c == nil || c.pool == nil {
		return
	}
	n := c.pool.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("stream: pooled chunk over-released")
	}
	b := c.pool.box
	vals := b.g.Vals
	// Poison before recycling so a use-after-release trips loudly (nil
	// Grid) instead of silently reading a reused buffer.
	b.c = Chunk{}
	b.g = GridPatch{}
	exec.Recycle(vals)
	pooledLive.Add(-1)
	gridBoxPool.Put(b)
}

// PooledLive returns the number of live pool-backed chunks; leak tests
// assert it returns to a baseline.
func PooledLive() int64 { return pooledLive.Load() }

// DrainReleasing consumes whatever is already buffered on ch without
// blocking, releasing each chunk. Operator wiring calls it on the input
// channel when an operator exits early (a panic or cancellation), so
// pool-backed chunks parked in the queue go back to the pool instead of
// bleeding out of it. Chunks still held by a blocked upstream sender are
// not reachable here; they fall to the garbage collector, which is safe.
func DrainReleasing(ch <-chan *Chunk) {
	for {
		select {
		case c, ok := <-ch:
			if !ok {
				return
			}
			c.Release()
		default:
			return
		}
	}
}
