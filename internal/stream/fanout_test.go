package stream

import (
	"context"
	"testing"
	"time"

	"geostreams/internal/geom"
)

func fanGrid(t *testing.T, ts int) *Chunk {
	t.Helper()
	lat := testLattice(t, 4, 1)
	vals := make([]float64, 4)
	for i := range vals {
		vals[i] = float64(ts*10 + i)
	}
	c, err := NewGridChunk(geom.Timestamp(ts), lat, vals)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func fanoutChunks(t *testing.T, n int) []*Chunk {
	t.Helper()
	out := make([]*Chunk, 0, n+1)
	for i := 0; i < n; i++ {
		out = append(out, fanGrid(t, i))
	}
	out = append(out, NewEndOfSector(0, testLattice(t, 4, 1)))
	return out
}

func TestFanoutBroadcastsToAllTaps(t *testing.T) {
	g := NewGroup(context.Background())
	chunks := fanoutChunks(t, 8)
	f := NewFanout(g, FromChunks(g, testInfo(), chunks))
	t1 := f.AddTap()
	t2 := f.AddTap()
	f.Start() // both taps attached: each must see chunk 0

	got1c := make(chan []*Chunk, 1)
	go func() {
		got, _ := Collect(context.Background(), t1.Stream())
		got1c <- got
	}()
	got2, err := Collect(context.Background(), t2.Stream())
	if err != nil {
		t.Fatal(err)
	}
	got1 := <-got1c
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(got1) != len(chunks) || len(got2) != len(chunks) {
		t.Fatalf("taps saw %d and %d chunks, want %d", len(got1), len(got2), len(chunks))
	}
	for i := range chunks {
		if got1[i] != chunks[i] || got2[i] != chunks[i] {
			t.Fatalf("chunk %d: taps did not receive the shared chunk pointer", i)
		}
	}
	if f.Delivered() != int64(2*len(chunks)) {
		t.Fatalf("Delivered() = %d, want %d", f.Delivered(), 2*len(chunks))
	}
}

func TestFanoutDetachUnblocksTrunk(t *testing.T) {
	g := NewGroup(context.Background())
	chunks := fanoutChunks(t, 64)
	f := NewFanout(g, FromChunks(g, testInfo(), chunks))
	stuck := f.AddTap() // never read: fills its buffer and blocks the trunk
	live := f.AddTap()
	f.Start()

	done := make(chan []*Chunk, 1)
	go func() {
		got, _ := Collect(context.Background(), live.Stream())
		done <- got
	}()
	// Give the broadcaster time to wedge against the unread tap, then
	// detach it: the live tap must still receive the full stream.
	time.Sleep(20 * time.Millisecond)
	stuck.Close()
	got := <-done
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	// The live tap sees every chunk: detaching the stuck tap only skips
	// deliveries to the detached channel.
	if len(got) != len(chunks) {
		t.Fatalf("live tap saw %d chunks, want %d", len(got), len(chunks))
	}
	if n := f.TapCount(); n != 0 {
		t.Fatalf("TapCount() after finish = %d, want 0", n)
	}
}

// TestFanoutDetachReleasesBufferedChunks: a tap that detaches with
// pool-backed chunks still sitting in its buffer must not strand their
// references — the broadcaster reaps the tap on its next delivery, and the
// fanout's finish drains taps that detached after the last delivery. Either
// way PooledLive returns to its baseline.
func TestFanoutDetachReleasesBufferedChunks(t *testing.T) {
	pooled := func(ts int) *Chunk {
		lat := testLattice(t, 4, 1)
		c, err := NewPooledGridChunk(geom.Timestamp(ts), lat, []float64{1, 2, 3, 4})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	base := PooledLive()
	g := NewGroup(context.Background())
	n := 2*DefaultBuffer + 8
	chunks := make([]*Chunk, 0, n)
	for i := 0; i < n; i++ {
		chunks = append(chunks, pooled(i))
	}
	f := NewFanout(g, FromChunks(g, testInfo(), chunks))
	stuck := f.AddTap() // fills its buffer, then detaches without reading
	live := f.AddTap()
	f.Start()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for c := range live.Stream().C {
			c.Release()
		}
	}()
	time.Sleep(20 * time.Millisecond)
	stuck.Close()
	<-done
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}

	// A tap that detaches only after the fanout has finished: with no
	// broadcaster left, Close itself drains the buffered residue.
	g2 := NewGroup(context.Background())
	f2 := NewFanout(g2, FromChunks(g2, testInfo(), []*Chunk{pooled(100), pooled(101)}))
	lazy := f2.AddTap()
	f2.Start()
	if err := g2.Wait(); err != nil { // both chunks fit the tap buffer; stream ends
		t.Fatal(err)
	}
	lazy.Close()

	deadline := time.Now().Add(5 * time.Second)
	for PooledLive() != base {
		if time.Now().After(deadline) {
			t.Fatalf("detached tap stranded pooled chunks: live = %d, baseline = %d",
				PooledLive(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFanoutAddTapAfterEndIsClosed(t *testing.T) {
	g := NewGroup(context.Background())
	f := NewFanout(g, FromChunks(g, testInfo(), fanoutChunks(t, 1)))
	first := f.AddTap()
	f.Start()
	if _, err := Collect(context.Background(), first.Stream()); err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	late := f.AddTap()
	select {
	case _, ok := <-late.Stream().C:
		if ok {
			t.Fatal("late tap received a chunk from an ended fanout")
		}
	case <-time.After(time.Second):
		t.Fatal("late tap's stream was not closed")
	}
}

func TestFanoutCancelClosesTaps(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := NewGroup(ctx)
	// An endless source: only cancellation can end this fanout.
	src := Generate(g, testInfo(), func(ctx context.Context, emit func(*Chunk) bool) error {
		i := 0
		for {
			if !emit(fanGrid(t, i)) {
				return nil
			}
			i++
		}
	})
	f := NewFanout(g, src)
	tap := f.AddTap()
	f.Start()
	// Read a few chunks, then cancel the group: the tap must end.
	for i := 0; i < 3; i++ {
		if _, ok := <-tap.Stream().C; !ok {
			t.Fatal("tap closed before cancellation")
		}
	}
	cancel()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-tap.Stream().C:
			if !ok {
				if err := g.Wait(); err != nil {
					t.Fatal(err)
				}
				return
			}
		case <-deadline:
			t.Fatal("tap was not closed after group cancellation")
		}
	}
}

func TestFanoutHoldsFirstChunkUntilArmed(t *testing.T) {
	g := NewGroup(context.Background())
	chunks := fanoutChunks(t, 4)
	f := NewFanout(g, FromChunks(g, testInfo(), chunks))
	// Not started: the broadcaster must hold, not drop. Attach and start
	// after a delay and verify nothing was lost.
	time.Sleep(20 * time.Millisecond)
	tap := f.AddTap()
	f.Start()
	got, err := Collect(context.Background(), tap.Stream())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(chunks) {
		t.Fatalf("first tap saw %d chunks, want %d (prefix dropped before Start?)", len(got), len(chunks))
	}
}
