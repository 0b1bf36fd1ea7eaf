package faults

import (
	"context"
	"testing"
	"time"

	"geostreams/internal/coord"
	"geostreams/internal/exec"
	"geostreams/internal/geom"
	"geostreams/internal/stream"
)

func testInfo(lat geom.Lattice) stream.Info {
	return stream.Info{
		Band: "vis", CRS: coord.LatLon{}, Org: stream.ImageByImage,
		SectorGeom: lat, HasSectorMeta: true, VMin: 0, VMax: 1023,
	}
}

// feed builds n sectors: one grid chunk plus end-of-sector punctuation each.
func feed(t *testing.T, lat geom.Lattice, n int) []*stream.Chunk {
	t.Helper()
	var out []*stream.Chunk
	for s := 0; s < n; s++ {
		c, err := stream.NewGridChunk(geom.Timestamp(s), lat, make([]float64, lat.NumPoints()))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c, stream.NewEndOfSector(geom.Timestamp(s), lat))
	}
	return out
}

func testLat(t *testing.T) geom.Lattice {
	t.Helper()
	lat, err := geom.NewLattice(0, 3, 1, -1, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	return lat
}

func runWrapped(t *testing.T, chunks []*stream.Chunk, p Policy) ([]*stream.Chunk, *Injector, error) {
	t.Helper()
	lat := testLat(t)
	g := stream.NewGroup(context.Background())
	f := New(p)
	out := f.Wrap(g, stream.FromChunks(g, testInfo(lat), chunks))
	got, err := stream.Collect(context.Background(), out)
	if err != nil {
		t.Fatal(err)
	}
	return got, f, g.Wait()
}

func kinds(cs []*stream.Chunk) (data, punct int) {
	for _, c := range cs {
		if c.IsData() {
			data++
		} else {
			punct++
		}
	}
	return
}

func TestPassThroughWithZeroPolicy(t *testing.T) {
	lat := testLat(t)
	in := feed(t, lat, 5)
	got, f, err := runWrapped(t, in, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(in) {
		t.Fatalf("pass-through delivered %d of %d chunks", len(got), len(in))
	}
	if f.Dropped.Load()+f.Duplicated.Load()+f.Reordered.Load() != 0 {
		t.Fatal("zero policy injected faults")
	}
}

func TestDropNeverShedsPunctuation(t *testing.T) {
	lat := testLat(t)
	in := feed(t, lat, 50)
	got, f, err := runWrapped(t, in, Policy{Seed: 7, Drop: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	data, punct := kinds(got)
	if punct != 50 {
		t.Fatalf("punctuation dropped: %d of 50 survived", punct)
	}
	if f.Dropped.Load() == 0 || data == 50 {
		t.Fatalf("drop rate 0.5 dropped %d of 50 data chunks", f.Dropped.Load())
	}
	if f.Dropped.Load()+int64(data) != 50 {
		t.Fatalf("dropped %d + delivered %d != 50", f.Dropped.Load(), data)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	lat := testLat(t)
	p := Policy{Seed: 42, Drop: 0.2, Duplicate: 0.1, Reorder: 0.2}
	a, _, err := runWrapped(t, feed(t, lat, 100), p)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := runWrapped(t, feed(t, lat, 100), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].T != b[i].T || a[i].Kind != b[i].Kind {
			t.Fatalf("replay diverged at %d: (%d,%v) vs (%d,%v)",
				i, a[i].T, a[i].Kind, b[i].T, b[i].Kind)
		}
	}
}

func TestReorderIsAdjacentAndSectorBounded(t *testing.T) {
	lat := testLat(t)
	got, f, err := runWrapped(t, feed(t, lat, 100), Policy{Seed: 3, Reorder: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if f.Reordered.Load() == 0 {
		t.Fatal("no reorders at rate 0.5")
	}
	// Punctuation flushes any held chunk, so each sector's data chunk must
	// still precede its own end-of-sector marker.
	seen := map[geom.Timestamp]bool{}
	for _, c := range got {
		if c.IsData() {
			seen[c.T] = true
		} else if !seen[c.T] {
			t.Fatalf("sector %d punctuation before its data", c.T)
		}
	}
}

func TestCloseAfterEndsStreamEarly(t *testing.T) {
	lat := testLat(t)
	got, _, err := runWrapped(t, feed(t, lat, 20), Policy{CloseAfter: 5})
	if err != nil {
		t.Fatal(err)
	}
	data, _ := kinds(got)
	if data != 5 {
		t.Fatalf("close-early delivered %d data chunks, want 5", data)
	}
}

func TestDuplicateDeliversTwice(t *testing.T) {
	lat := testLat(t)
	got, f, err := runWrapped(t, feed(t, lat, 100), Policy{Seed: 9, Duplicate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	data, _ := kinds(got)
	if f.Duplicated.Load() == 0 {
		t.Fatal("no duplicates at rate 0.3")
	}
	if int64(data) != 100+f.Duplicated.Load() {
		t.Fatalf("delivered %d data chunks, want 100+%d", data, f.Duplicated.Load())
	}
}

func TestPanicAfterIsRecoveredByGroup(t *testing.T) {
	lat := testLat(t)
	g := stream.NewGroup(context.Background())
	out := Wrap(g, stream.FromChunks(g, testInfo(lat), feed(t, lat, 20)), Policy{PanicAfter: 3})
	if _, err := stream.Collect(context.Background(), out); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- g.Wait() }()
	select {
	case err := <-done:
		if !stream.IsPanic(err) {
			t.Fatalf("Wait = %v, want recovered panic", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("injected panic did not unwind the group")
	}
}

func TestStallDelaysDelivery(t *testing.T) {
	lat := testLat(t)
	start := time.Now()
	_, f, err := runWrapped(t, feed(t, lat, 4), Policy{StallEvery: 2, Stall: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if f.Stalled.Load() != 2 {
		t.Fatalf("stalled %d times, want 2", f.Stalled.Load())
	}
	if time.Since(start) < 50*time.Millisecond {
		t.Fatal("stalls did not delay the stream")
	}
}

// pooledSource holds n sectors of pool-backed grid chunks plus
// punctuation, fully buffered and closed: no producer can race the
// wrapper's exit, so any leak is the wrapper's.
func pooledSource(t *testing.T, lat geom.Lattice, n int) *stream.Stream {
	t.Helper()
	ch := make(chan *stream.Chunk, 2*n)
	for s := 0; s < n; s++ {
		c, err := stream.NewPooledGridChunk(geom.Timestamp(s), lat, exec.AllocVals(lat.NumPoints()))
		if err != nil {
			t.Fatal(err)
		}
		ch <- c
		ch <- stream.NewEndOfSector(geom.Timestamp(s), lat)
	}
	close(ch)
	return &stream.Stream{Info: testInfo(lat), C: ch}
}

// TestFaultsKeepOwnershipContract: every fault — drop, duplicate, reorder,
// early close, panic, and a consumer that walks away — hands each pooled
// chunk back, so the live count returns to its baseline.
func TestFaultsKeepOwnershipContract(t *testing.T) {
	lat := testLat(t)
	policies := map[string]Policy{
		"drop":      {Seed: 1, Drop: 0.3},
		"duplicate": {Seed: 2, Duplicate: 0.4},
		"reorder":   {Seed: 3, Reorder: 0.5},
		"mixed":     {Seed: 4, Drop: 0.2, Duplicate: 0.2, Reorder: 0.3},
		"close":     {Seed: 5, Reorder: 0.5, CloseAfter: 7},
		"panic":     {Seed: 6, Reorder: 0.5, PanicAfter: 7},
	}
	for name, p := range policies {
		for _, walkAway := range []bool{false, true} {
			base := stream.PooledLive()
			ctx, cancel := context.WithCancel(context.Background())
			g := stream.NewGroup(ctx)
			out := Wrap(g, pooledSource(t, lat, 40), p)
			for n := 0; ; n++ {
				if walkAway && n == 5 {
					cancel()
					break
				}
				c, ok := <-out.C
				if !ok {
					break
				}
				c.Release()
			}
			g.Wait() //nolint:errcheck // the panic policy ends in a recovered panic
			stream.DrainReleasing(out.C)
			cancel()
			if live := stream.PooledLive(); live != base {
				t.Fatalf("%s (walk away %v): pooled chunks live = %d, want baseline %d",
					name, walkAway, live, base)
			}
		}
	}
}
