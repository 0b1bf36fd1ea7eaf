package stream

import (
	"context"
	"fmt"
)

// DefaultBuffer is the channel depth between pipeline stages. A small
// buffer decouples producer/consumer scheduling without hiding the
// blocking behaviour the buffering tests pin.
const DefaultBuffer = 4

// Stream is the physical form of a GeoStream: static Info plus a channel
// of chunks. The channel is closed by the producing stage when the stream
// ends (or the pipeline is cancelled).
type Stream struct {
	Info Info
	C    <-chan *Chunk
}

// Operator is a unary stream operator: the query algebra's closure
// property (§3) is this signature — a GeoStream in, a GeoStream out.
//
// OutInfo validates the input metadata and computes the output metadata at
// plan time; Run moves the data at execution time. Run must forward or
// drop every input chunk, send outputs via Send (so cancellation works),
// and return when `in` closes. Run must not close `out`; the wiring in
// Apply does that.
type Operator interface {
	Name() string
	OutInfo(in Info) (Info, error)
	Run(ctx context.Context, in <-chan *Chunk, out chan<- *Chunk, st *Stats) error
}

// BinaryOperator is a two-input operator (stream composition, §3.3).
type BinaryOperator interface {
	Name() string
	OutInfo(a, b Info) (Info, error)
	Run(ctx context.Context, a, b <-chan *Chunk, out chan<- *Chunk, st *Stats) error
}

// Send delivers a chunk to out unless the context is cancelled; it returns
// the context error on cancellation so stages unwind promptly even when
// their consumer is gone.
func Send(ctx context.Context, out chan<- *Chunk, c *Chunk) error {
	select {
	case out <- c:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// EmitCounted sends a chunk downstream and records it in st (when st is
// non-nil). Sending transfers the chunk's reference to the receiver, so
// EmitCounted holds an extra reference across the send — the stats read
// after delivery would otherwise race with a fast consumer releasing a
// pool-backed chunk. On a cancelled send the chunk is fully released
// (undelivered chunks are dropped); the caller must not touch it after an
// error either way.
func EmitCounted(ctx context.Context, out chan<- *Chunk, c *Chunk, st *Stats) error {
	c.Retain()
	if err := Send(ctx, out, c); err != nil {
		c.Release() // the stats reference
		c.Release() // the undelivered transfer reference
		return err
	}
	if st != nil {
		st.CountOut(c)
	}
	c.Release()
	return nil
}

// Apply wires a unary operator onto a stream inside the group, returning
// the output stream and the operator's stats instance.
func Apply(g *Group, op Operator, in *Stream) (*Stream, *Stats, error) {
	outInfo, err := op.OutInfo(in.Info)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", op.Name(), err)
	}
	if err := outInfo.Validate(); err != nil {
		return nil, nil, fmt.Errorf("%s: produces invalid stream: %w", op.Name(), err)
	}
	st := NewStats(op.Name())
	out := make(chan *Chunk, DefaultBuffer)
	st.watchQueue(out)
	inC := in.C
	g.Go(func(ctx context.Context) error {
		defer close(out)
		// On any exit — including a panic unwinding through Group.Go's
		// recover — hand queued pool-backed input chunks back to the
		// buffer pool. Without this a panicking query permanently bleeds
		// whatever its input queue held out of the size-classed pool.
		defer DrainReleasing(inC)
		st.markRunning()
		if err := op.Run(ctx, inC, out, st); err != nil {
			return fmt.Errorf("%s: %w", op.Name(), err)
		}
		return nil
	})
	return &Stream{Info: outInfo, C: out}, st, nil
}

// Apply2 wires a binary operator onto two streams.
func Apply2(g *Group, op BinaryOperator, a, b *Stream) (*Stream, *Stats, error) {
	outInfo, err := op.OutInfo(a.Info, b.Info)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", op.Name(), err)
	}
	if err := outInfo.Validate(); err != nil {
		return nil, nil, fmt.Errorf("%s: produces invalid stream: %w", op.Name(), err)
	}
	st := NewStats(op.Name())
	out := make(chan *Chunk, DefaultBuffer)
	st.watchQueue(out)
	aC, bC := a.C, b.C
	g.Go(func(ctx context.Context) error {
		defer close(out)
		defer DrainReleasing(aC)
		defer DrainReleasing(bC)
		st.markRunning()
		if err := op.Run(ctx, aC, bC, out, st); err != nil {
			return fmt.Errorf("%s: %w", op.Name(), err)
		}
		return nil
	})
	return &Stream{Info: outInfo, C: out}, st, nil
}

// FromChunks builds a source stream that replays the given chunks inside
// the group — the standard way tests and benchmarks feed pipelines.
func FromChunks(g *Group, info Info, chunks []*Chunk) *Stream {
	out := make(chan *Chunk, DefaultBuffer)
	g.Go(func(ctx context.Context) error {
		defer close(out)
		for _, c := range chunks {
			if err := Send(ctx, out, c); err != nil {
				return nil // consumer gone; not an error for a source
			}
		}
		return nil
	})
	return &Stream{Info: info, C: out}
}

// Generate builds a source stream from a producer callback. The producer
// sends chunks via the provided emit function and returns when done; emit
// returns false when the pipeline was cancelled.
func Generate(g *Group, info Info, produce func(ctx context.Context, emit func(*Chunk) bool) error) *Stream {
	out := make(chan *Chunk, DefaultBuffer)
	g.Go(func(ctx context.Context) error {
		defer close(out)
		emit := func(c *Chunk) bool { return Send(ctx, out, c) == nil }
		return produce(ctx, emit)
	})
	return &Stream{Info: info, C: out}
}

// Collect drains a stream into a slice; tests and sinks use it.
func Collect(ctx context.Context, s *Stream) ([]*Chunk, error) {
	var out []*Chunk
	for {
		select {
		case c, ok := <-s.C:
			if !ok {
				return out, nil
			}
			out = append(out, c)
		case <-ctx.Done():
			return out, ctx.Err()
		}
	}
}

// Drain consumes and discards a stream, returning totals; benchmark sinks
// use it.
func Drain(ctx context.Context, s *Stream) (chunks, points int64, err error) {
	for {
		select {
		case c, ok := <-s.C:
			if !ok {
				return chunks, points, nil
			}
			chunks++
			points += int64(c.NumPoints())
			c.Release()
		case <-ctx.Done():
			return chunks, points, ctx.Err()
		}
	}
}

// Tee duplicates a stream to n consumers. Every chunk pointer is shared —
// chunks are immutable by contract — and delivery is synchronous per
// consumer, so one slow consumer exerts backpressure on all (the same
// semantics a shared restriction stage has in the DSMS server).
func Tee(g *Group, in *Stream, n int) []*Stream {
	outs := make([]chan *Chunk, n)
	streams := make([]*Stream, n)
	for i := range outs {
		outs[i] = make(chan *Chunk, DefaultBuffer)
		streams[i] = &Stream{Info: in.Info, C: outs[i]}
	}
	inC := in.C
	g.Go(func(ctx context.Context) error {
		defer func() {
			for _, o := range outs {
				close(o)
			}
		}()
		defer DrainReleasing(inC)
		for {
			select {
			case c, ok := <-inC:
				if !ok {
					return nil
				}
				// Each consumer gets its own reference; the incoming one
				// covers the first. Retain before any hand-off — a fast
				// consumer may otherwise release the last reference while
				// the chunk is still queued for the next.
				for i := 1; i < len(outs); i++ {
					c.Retain()
				}
				for i, o := range outs {
					if err := Send(ctx, o, c); err != nil {
						for j := i; j < len(outs); j++ {
							c.Release()
						}
						return nil
					}
				}
			case <-ctx.Done():
				return nil
			}
		}
	})
	return streams
}
