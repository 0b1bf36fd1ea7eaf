package dsms

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"geostreams/internal/cascade"
	"geostreams/internal/faults"
	"geostreams/internal/geom"
	"geostreams/internal/stream"
)

// TestSharedIdenticalQueriesShareTrunkAndSource: two identical plans run
// one trunk, and the band hub carries one subscription (the trunk's), not
// one per query. The colormaps differ, so these are two products — two
// pipelines mounting one trunk — rather than two handles on one product.
func TestSharedIdenticalQueriesShareTrunkAndSource(t *testing.T) {
	s, stop := startServer(t, 3)
	defer stop()
	const q = "rselect(vis, rect(-121.6, 36.4, -120.4, 37.6))"

	r1, err := s.Register(q, DeliveryOptions{Colormap: "gray"})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Register(q, DeliveryOptions{Colormap: "thermal"})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Status().SharedTrunks) == 0 || len(r2.Status().SharedTrunks) == 0 {
		t.Fatal("shared queries report no shared trunks")
	}
	if r1.product == r2.product {
		t.Fatal("queries with different colormaps share one product")
	}
	if r1.Status().SharedTrunks[0] != r2.Status().SharedTrunks[0] {
		t.Fatalf("identical queries mounted different trunks: %v vs %v",
			r1.Status().SharedTrunks, r2.Status().SharedTrunks)
	}
	st := s.ServerStats()
	if st.Shared.Reused == 0 {
		t.Fatalf("second identical query did not reuse the trunk: %+v", *st.Shared)
	}
	for _, h := range st.Hubs {
		if h.Band == "vis" && h.Subscribers != 1 {
			t.Fatalf("vis hub has %d subscribers, want 1 (the shared trunk)", h.Subscribers)
		}
	}

	// Both queries still deliver full frame sequences.
	s.Start()
	for _, r := range []*Registered{r1, r2} {
		got := 0
		view := viewFrames(t, r)
		for {
			if _, ok := view.Next(5 * time.Second); !ok {
				break
			}
			got++
		}
		if got != 3 {
			t.Fatalf("query %d received %d frames, want 3", r.ID, got)
		}
		if r.Err() != nil {
			t.Fatalf("query %d error: %v", r.ID, r.Err())
		}
	}
}

// TestSharedCommutativeTrunks: A+B and B+A share one trunk; A−B and B−A
// must not.
func TestSharedCommutativeTrunks(t *testing.T) {
	s, stop := startServer(t, 2)
	defer stop()

	add1, err := s.Register("(nir + vis)", DeliveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	add2, err := s.Register("(vis + nir)", DeliveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := add1.Status().SharedTrunks, add2.Status().SharedTrunks; a[0] != b[0] {
		t.Fatalf("A+B and B+A mounted different trunks: %v vs %v", a, b)
	}
	sub1, err := s.Register("(nir - vis)", DeliveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sub2, err := s.Register("(vis - nir)", DeliveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := sub1.Status().SharedTrunks, sub2.Status().SharedTrunks; a[0] == b[0] {
		t.Fatalf("A-B and B-A mounted the same trunk %v", a)
	}
}

// TestSharedSuffixPanicIsolation: a panic in one query's private stage
// kills that query only — its co-mounted twin keeps its trunk and delivers
// every frame, and no shared trunk dies. The twins differ in colormap so
// they are distinct products, each with its own suffix, over one trunk.
func TestSharedSuffixPanicIsolation(t *testing.T) {
	s, stop := startServer(t, 3)
	defer stop()
	const q = "rselect(vis, rect(-121.6, 36.4, -120.4, 37.6))"

	victim, err := s.Register(q, DeliveryOptions{Colormap: "gray"})
	if err != nil {
		t.Fatal(err)
	}
	// Arm the fault-injection seam for the next registration only: its
	// private delivery feed panics on the second chunk.
	var armed atomic.Bool
	armed.Store(true)
	s.mu.Lock()
	s.pipelineWrap = func(g *stream.Group, out *stream.Stream) *stream.Stream {
		if !armed.Swap(false) {
			return out
		}
		return faults.Wrap(g, out, faults.Policy{PanicAfter: 2})
	}
	s.mu.Unlock()
	_ = victim

	doomed, err := s.Register(q, DeliveryOptions{Colormap: "thermal"})
	if err != nil {
		t.Fatal(err)
	}
	survivor := victim
	if a, b := survivor.Status().SharedTrunks, doomed.Status().SharedTrunks; len(a) == 0 || a[0] != b[0] {
		t.Fatalf("twins do not mount one trunk: %v vs %v", a, b)
	}
	s.Start()

	got := 0
	view := viewFrames(t, survivor)
	for {
		if _, ok := view.Next(5 * time.Second); !ok {
			break
		}
		got++
	}
	if got != 3 {
		t.Fatalf("survivor received %d frames, want 3", got)
	}
	if survivor.Err() != nil {
		t.Fatalf("survivor failed: %v", survivor.Err())
	}

	<-doomed.stopped
	if doomed.Err() == nil || !stream.IsPanic(doomed.Err()) {
		t.Fatalf("doomed query error = %v, want panic", doomed.Err())
	}
	st := s.ServerStats()
	if st.Shared.Panicked != 0 {
		t.Fatalf("a shared trunk died (%d); the panic was in a private suffix", st.Shared.Panicked)
	}
	if st.QueryPanics != 1 {
		t.Fatalf("QueryPanics = %d, want 1", st.QueryPanics)
	}
}

// TestSharedDeregisterReleasesTrunks: deregistering every query tears the
// trunk DAG down to empty, including the hub subscriptions the trunks held.
func TestSharedDeregisterReleasesTrunks(t *testing.T) {
	s, stop := startServer(t, 2)
	defer stop()
	const q = "vselect(ndvi(nir, vis), above(0.2))"

	r1, err := s.Register(q, DeliveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Register(q, DeliveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(s.ServerStats().Shared.Trunks); n == 0 {
		t.Fatal("no trunks running before deregistration")
	}
	if err := s.Deregister(r1.ID); err != nil {
		t.Fatal(err)
	}
	if n := len(s.ServerStats().Shared.Trunks); n == 0 {
		t.Fatal("trunks torn down while a query still references them")
	}
	if err := s.Deregister(r2.ID); err != nil {
		t.Fatal(err)
	}
	if n := len(s.ServerStats().Shared.Trunks); n != 0 {
		t.Fatalf("%d trunks still running after all queries deregistered", n)
	}
	for _, h := range s.ServerStats().Hubs {
		if h.Subscribers != 0 {
			t.Fatalf("band %s still has %d subscribers after trunk teardown", h.Band, h.Subscribers)
		}
	}
}

// TestQueryIDsDenseAndHubSubscriptionsOwned: query ids count registrations
// only, not the hub subscriptions trunks and routers make, and each
// deregistration detaches exactly the hub subscriptions its query holds.
// A is a routed crop (the vis band router's subscription), B a source
// trunk (one nir subscription), C a vis source trunk beside a nir crop
// (the vis trunk's and the nir router's subscriptions), so every victim
// leaves a distinct count.
func TestQueryIDsDenseAndHubSubscriptionsOwned(t *testing.T) {
	queries := []struct {
		text string
		subs map[string]int
	}{
		{"rselect(vis, rect(-121.6, 36.4, -120.4, 37.6))", map[string]int{"vis": 1}},
		{"scale(nir, 2, 1)", map[string]int{"nir": 1}},
		{"(vis - rselect(nir, rect(-121.5, 36.5, -120.5, 37.5)))", map[string]int{"vis": 1, "nir": 1}},
	}
	hubSubs := func(s *Server) map[string]int {
		out := map[string]int{}
		for _, h := range s.ServerStats().Hubs {
			out[h.Band] = h.Subscribers
		}
		return out
	}
	for victim := range queries {
		s, stop := startServer(t, 2)
		regs := make([]*Registered, len(queries))
		for i, q := range queries {
			r, err := s.Register(q.text, DeliveryOptions{Colormap: "gray"})
			if err != nil {
				t.Fatal(err)
			}
			if r.ID != cascade.QueryID(i+1) {
				t.Fatalf("query %d registered as id %d, want %d", i, r.ID, i+1)
			}
			regs[i] = r
		}
		if err := s.Deregister(regs[victim].ID); err != nil {
			t.Fatal(err)
		}
		want := map[string]int{"vis": 0, "nir": 0}
		for i, q := range queries {
			if i == victim {
				continue
			}
			for band, n := range q.subs {
				want[band] += n
			}
		}
		if got := hubSubs(s); got["vis"] != want["vis"] || got["nir"] != want["nir"] {
			t.Fatalf("after deregistering query %d: hub subscribers %v, want %v", victim+1, got, want)
		}
		s.Start()
		for i, r := range regs {
			if i == victim {
				continue
			}
			if _, ok := viewFrames(t, r).Next(5 * time.Second); !ok {
				t.Fatalf("query %d delivered no frame after query %d left", i+1, victim+1)
			}
		}
		stop()
	}
}

// TestSharedStretchStaysPrivate: the stretch stage must not appear on a
// trunk — only the subtree below it is shared — and the query still
// delivers frames.
func TestSharedStretchStaysPrivate(t *testing.T) {
	s, stop := startServer(t, 2)
	defer stop()

	r, err := s.Register(
		"stretch(rselect(ndvi(nir, vis), rect(-121.6, 36.4, -120.4, 37.6)), linear, 0, 255)",
		DeliveryOptions{Colormap: "ndvi"})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(r.Status().SharedTrunks); n != 1 {
		t.Fatalf("stretch query mounts %d trunks, want 1 (the subtree below stretch)", n)
	}
	for _, tr := range s.ServerStats().Shared.Trunks {
		if strings.HasPrefix(tr.Label, "stretch") {
			t.Fatalf("a stretch operator is running on a shared trunk: %s", tr.Label)
		}
	}
	s.Start()
	got := 0
	view := viewFrames(t, r)
	for {
		if _, ok := view.Next(5 * time.Second); !ok {
			break
		}
		got++
	}
	if got != 2 {
		t.Fatalf("received %d frames, want 2", got)
	}
}

// TestSharedExplainAnnotates: EXPLAIN marks trunk-mounted operators.
func TestSharedExplainAnnotates(t *testing.T) {
	s, stop := startServer(t, 2)
	defer stop()
	out, err := s.Explain("vselect(ndvi(nir, vis), above(0.2))")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "[shared ") {
		t.Fatalf("EXPLAIN output has no shared annotations:\n%s", out)
	}
}

// TestDeregisterUnblocksSharedSuffixOnLiveSource pins the teardown
// contract for shared queries with a private suffix. Releasing a trunk
// mount detaches its tap but leaves the tap channel open (the trunk
// keeps feeding other subscribers), so a suffix operator blocked in a
// bare receive on it — stretch, here — would hang Deregister forever on
// a source that never ends. guardMount must unwind it promptly.
func TestDeregisterUnblocksSharedSuffixOnLiveSource(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := NewServer(ctx)
	defer s.Close() //nolint:errcheck
	info := wireTestInfo(t, "vis")
	src := make(chan *stream.Chunk, 64)
	if err := s.AddSource(&stream.Stream{Info: info, C: src}); err != nil {
		t.Fatal(err)
	}
	r, err := s.Register("stretch(vis, linear, 0, 255)", DeliveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	// One full sector, then the channel stays open: a live feed.
	full := info.SectorGeom
	for row := 0; row < full.H; row++ {
		rl, err := geom.NewLattice(full.X0, full.Y0+float64(row)*full.DY,
			full.DX, full.DY, full.W, 1)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]float64, full.W)
		for i := range vals {
			vals[i] = float64(row*10 + i)
		}
		c, err := stream.NewGridChunk(1, rl, vals)
		if err != nil {
			t.Fatal(err)
		}
		src <- c
	}
	src <- stream.NewEndOfSector(1, full)
	if _, ok := viewFrames(t, r).Next(5 * time.Second); !ok {
		t.Fatal("no frame delivered before deregister")
	}
	done := make(chan error, 1)
	go func() { done <- s.Deregister(r.ID) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Deregister hung: shared suffix never unwound on a live source")
	}
}
