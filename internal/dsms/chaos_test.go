package dsms

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geostreams/internal/faults"
	"geostreams/internal/stream"
)

// TestChaosChurnWithFaultsAndPanics is the everything-at-once fault drill,
// meant to run under -race: queries register and deregister concurrently
// while the supervised source flaps on a fast retry schedule and a third
// of the pipelines carry a panicking or lossy fault stage. The server must
// neither crash nor leak — every query reaches a terminal state, panics
// are counted but isolated, and the goroutine count returns to baseline
// after Close.
func TestChaosChurnWithFaultsAndPanics(t *testing.T) {
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := NewServer(ctx)

	// A source that flaps forever: 4 sectors per connection, one failed
	// reconnect attempt before each new connection.
	ss := newSegmentedSource(t, 4, 1<<30, 1)
	err := s.AddSourceSpec(SourceSpec{
		Stream:    ss.segment(s.Group()),
		Reconnect: ss.reconnect(s.Group()),
		Retry: RetryPolicy{
			MaxAttempts: 10, Base: time.Millisecond, Max: 5 * time.Millisecond, Seed: 11,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every third pipeline panics shortly after startup; every third is
	// lossy and duplicating; the rest run clean.
	var pipelines atomic.Int64
	s.mu.Lock()
	s.pipelineWrap = func(g *stream.Group, out *stream.Stream) *stream.Stream {
		switch n := pipelines.Add(1); n % 3 {
		case 0:
			return faults.Wrap(g, out, faults.Policy{Seed: n, PanicAfter: 2})
		case 1:
			return faults.Wrap(g, out, faults.Policy{Seed: n, Drop: 0.2, Duplicate: 0.1})
		default:
			return out
		}
	}
	s.mu.Unlock()
	s.Start()

	const workers = 8
	const perWorker = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				x := -122.0 + float64((w*perWorker+i)%8)*0.2
				q := fmt.Sprintf("rselect(vis, rect(%g, 36.2, %g, 37.4))", x, x+0.5)
				reg, err := s.Register(q, DeliveryOptions{})
				if err != nil {
					errs <- err
					return
				}
				// Consume briefly; panicked pipelines close the frame queue
				// on their own, so this never wedges on a dead query.
				sub := reg.SubscribeFrames()
				sub.Next(30 * time.Millisecond)
				sub.Close()
				if err := s.Deregister(reg.ID); err != nil {
					errs <- err
					return
				}
				// Terminal-state invariant: Deregister waited for stopped,
				// so Err() must now be decided — nil, or a recovered panic.
				if err := reg.Err(); err != nil && !stream.IsPanic(err) {
					errs <- fmt.Errorf("query %d died of a non-panic: %w", reg.ID, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if n := len(s.Queries()); n != 0 {
		t.Fatalf("%d queries leaked after chaos churn", n)
	}
	if s.QueryPanics() == 0 {
		t.Fatal("fault stage never panicked — the drill tested nothing")
	}
	hs := s.HubStats()
	if len(hs) != 1 || hs[0].Subscribers != 0 {
		t.Fatalf("hub leaked subscribers: %+v", hs)
	}
	if hs[0].Reconnects == 0 {
		t.Fatal("source never flapped — the drill tested nothing")
	}

	if err := s.Close(); err != nil && !stream.IsPanic(err) {
		t.Fatalf("Close after chaos: %v", err)
	}
	cancel()

	// Goroutine leak check: poll back down to (near) baseline. Slack
	// absorbs runtime/test-framework goroutines that come and go.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+8 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				base, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
