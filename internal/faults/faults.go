// Package faults injects deterministic, seeded faults into a stream: chunk
// drop, stall, duplication, adjacent reordering, early close, and panic.
// It is the chaos-engineering companion of the DSMS robustness layer — the
// same wrapper drives the -race chaos tests, so a failure seen in CI
// replays bit-identically from its seed.
//
// Faults apply to data chunks only: end-of-sector punctuation always
// passes through (in arrival order), because downstream operators need it
// to flush state — exactly the guarantee the hub's shedding path gives.
package faults

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"geostreams/internal/stream"
)

// Policy describes which faults to inject and how often. All probabilities
// are per data chunk in [0, 1]; zero values disable the corresponding
// fault, so Policy{} is a transparent pass-through.
type Policy struct {
	// Seed makes the fault sequence deterministic and replayable.
	Seed int64
	// Drop is the probability of silently discarding a data chunk
	// (simulated uplink loss).
	Drop float64
	// Duplicate is the probability of delivering a data chunk twice
	// (at-least-once transport).
	Duplicate float64
	// Reorder is the probability of holding a data chunk back and emitting
	// it after its successor (adjacent swap — bounded disorder).
	Reorder float64
	// StallEvery stalls the stream for Stall on every Nth data chunk
	// (0 = never): a bursty, jittery link.
	StallEvery int
	Stall      time.Duration
	// CloseAfter ends the stream early after N data chunks (0 = never):
	// a source drop. The wrapper keeps draining its input so the upstream
	// producer is not wedged mid-send.
	CloseAfter int
	// PanicAfter panics the wrapper goroutine after N data chunks
	// (0 = never) — the fault the stream.Group panic isolation exists for.
	PanicAfter int
}

// Injector applies a Policy and counts what it did.
type Injector struct {
	Policy Policy

	Passed     atomic.Int64
	Dropped    atomic.Int64
	Duplicated atomic.Int64
	Reordered  atomic.Int64
	Stalled    atomic.Int64
}

// New builds an Injector for the policy.
func New(p Policy) *Injector { return &Injector{Policy: p} }

// Wrap is shorthand for New(p).Wrap(g, in) when the counters are not
// needed.
func Wrap(g *stream.Group, in *stream.Stream, p Policy) *stream.Stream {
	return New(p).Wrap(g, in)
}

// Wrap interposes the injector between in and the returned stream. The
// fault goroutine runs inside g, so an injected panic is recovered by the
// group exactly as an operator panic would be.
//
// The wrapper follows the pooled-chunk ownership contract (DESIGN.md §12)
// like any operator: a duplicate takes its extra reference before the
// first hand-off, and every chunk it drops — by policy, early close, a
// held chunk at exit, or input left buffered — is released.
func (f *Injector) Wrap(g *stream.Group, in *stream.Stream) *stream.Stream {
	out := make(chan *stream.Chunk, stream.DefaultBuffer)
	inC := in.C
	g.Go(func(ctx context.Context) error {
		defer close(out)
		defer stream.DrainReleasing(inC)
		return f.run(ctx, inC, out)
	})
	return &stream.Stream{Info: in.Info, C: out}
}

func (f *Injector) run(ctx context.Context, in <-chan *stream.Chunk, out chan<- *stream.Chunk) error {
	p := f.Policy
	rng := rand.New(rand.NewSource(p.Seed))
	// send transfers one reference downstream; a send abandoned on
	// cancellation releases it instead.
	send := func(c *stream.Chunk) bool {
		select {
		case out <- c:
			return true
		case <-ctx.Done():
			c.Release()
			return false
		}
	}
	var held *stream.Chunk // data chunk delayed by a reorder fault
	// A chunk still held at exit — cancellation, early close, an injected
	// panic — is the wrapper's to release.
	defer func() { held.Release() }()
	data := 0 // data chunks consumed so far
	for {
		select {
		case c, ok := <-in:
			if !ok {
				if held != nil {
					send(held)
					held = nil
				}
				return nil
			}
			if !c.IsData() {
				// Punctuation: release any held chunk first so it stays
				// inside its sector, then pass the punctuation through.
				if held != nil {
					ok := send(held)
					held = nil
					if !ok {
						c.Release()
						return nil
					}
				}
				if !send(c) {
					return nil
				}
				continue
			}
			data++
			if p.PanicAfter > 0 && data > p.PanicAfter {
				c.Release()
				panic(fmt.Sprintf("faults: injected panic after %d data chunks", data-1))
			}
			if p.CloseAfter > 0 && data > p.CloseAfter {
				// Early close: stop emitting but keep draining the input so
				// the upstream producer can finish its sends and exit.
				c.Release()
				drain(ctx, in)
				return nil
			}
			if p.StallEvery > 0 && data%p.StallEvery == 0 && p.Stall > 0 {
				f.Stalled.Add(1)
				select {
				case <-time.After(p.Stall):
				case <-ctx.Done():
					c.Release()
					return nil
				}
			}
			if p.Drop > 0 && rng.Float64() < p.Drop {
				f.Dropped.Add(1)
				c.Release()
				continue
			}
			if held == nil && p.Reorder > 0 && rng.Float64() < p.Reorder {
				f.Reordered.Add(1)
				held = c
				continue
			}
			// The duplicate's reference is taken before the first hand-off:
			// once sent, the receiver may release c at any moment.
			dup := p.Duplicate > 0 && rng.Float64() < p.Duplicate
			if dup {
				c.Retain()
			}
			if !send(c) {
				if dup {
					c.Release()
				}
				return nil
			}
			f.Passed.Add(1)
			if dup {
				f.Duplicated.Add(1)
				if !send(c) {
					return nil
				}
			}
			if held != nil {
				ok := send(held)
				held = nil
				if !ok {
					return nil
				}
				f.Passed.Add(1)
			}
		case <-ctx.Done():
			return nil
		}
	}
}

// drain consumes and releases the input until it closes or ctx ends.
func drain(ctx context.Context, in <-chan *stream.Chunk) {
	for {
		select {
		case c, ok := <-in:
			if !ok {
				return
			}
			c.Release()
		case <-ctx.Done():
			return
		}
	}
}
