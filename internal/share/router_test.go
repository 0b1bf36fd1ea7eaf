package share

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"geostreams/internal/query"
	"geostreams/internal/stream"
)

// cropQueries are the routed-execution differential workload: pushed-down
// rectangular crops in every position the router must handle — plain
// frontier, under a map, under a two-band composition (two routers at
// once), a zero-area rect, and a rect entirely outside the frame
// (punctuation-only delivery).
var cropQueries = []string{
	"rselect(nir, rect(-121.6, 36.4, -120.4, 37.6))",
	"rselect(vis, rect(-122, 36, -121, 37))",
	"scale(rselect(nir, rect(-121.5, 36.5, -120.5, 37.5)), 2, 1)",
	"rselect(ndvi(nir, vis), rect(-121.8, 36.2, -120.2, 37.8))",
	"clamp(rselect(vis, rect(-121.9, 36.1, -120.1, 37.9)), 0, 2000)",
	"rselect(nir, rect(-121, 37, -121, 37))",
	"rselect(nir, rect(-130, 50, -125, 55))",
}

// liveRouters counts snapshot entries with a running router (entries
// persist with cumulative counters after teardown, marked not-live).
func liveRouters(s Snapshot) int {
	n := 0
	for _, ri := range s.Routers {
		if ri.Live {
			n++
		}
	}
	return n
}

// collectFP drains a mount, fingerprints the output, and releases the
// collected chunks (routed crops are pool-backed; the collector holds the
// last reference).
func collectFP(mt *Mount) (query.Fingerprint, error) {
	chunks, err := stream.Collect(context.Background(), mt.Out)
	if err != nil {
		return query.Fingerprint{}, err
	}
	fp := query.FingerprintChunks(chunks)
	for _, c := range chunks {
		c.Release()
	}
	return fp, nil
}

// TestRoutedVsPrivateBitIdentical is the router acceptance property: every
// crop workload query produces bit-identical output under all three routing
// modes — shared tree routing, shared naive routing, and private per-query
// scans — including the punctuation sequence.
func TestRoutedVsPrivateBitIdentical(t *testing.T) {
	w := testWorkload(t)
	for _, mode := range []RoutingMode{RoutingOff, RoutingNaive, RoutingTree} {
		for _, q := range cropQueries {
			want, err := runPrivate(t, w, mustPlan(t, w, q))
			if err != nil {
				t.Fatalf("[%s] private run of %q: %v", mode, q, err)
			}
			sub := newReplaySub(w, true)
			m := NewManager(context.Background(), sub)
			m.SetRouting(mode)
			mt, err := m.Acquire(mustPlan(t, w, q))
			if err != nil {
				t.Fatalf("[%s] Acquire(%q): %v", mode, q, err)
			}
			if mode != RoutingOff && len(m.Snapshot().Routers) == 0 {
				t.Fatalf("[%s] %q: no band router built", mode, q)
			}
			if mode == RoutingOff && len(m.Snapshot().Routers) != 0 {
				t.Fatalf("[off] %q: router built with routing disabled", q)
			}
			sub.open()
			got, err := collectFP(mt)
			if err != nil {
				t.Fatalf("[%s] routed collect of %q: %v", mode, q, err)
			}
			if d := want.Diff(got, "private", "routed"); d != "" {
				t.Fatalf("[%s] %q diverged:\n%s", mode, q, d)
			}
			mt.Release()
		}
	}
}

// TestRoutedSnapshotAndDedup: identical crop rects dedup to one routed node
// and one router frontier; distinct rects add frontiers to the same router;
// the snapshot reports the routing mode, the routed flag, and index names.
func TestRoutedSnapshotAndDedup(t *testing.T) {
	w := testWorkload(t)
	for _, mode := range []RoutingMode{RoutingTree, RoutingNaive} {
		sub := newReplaySub(w, true)
		m := NewManager(context.Background(), sub)
		m.SetRouting(mode)

		q := "rselect(nir, rect(-121.6, 36.4, -120.4, 37.6))"
		m1, err := m.Acquire(mustPlan(t, w, q))
		if err != nil {
			t.Fatal(err)
		}
		m2, err := m.Acquire(mustPlan(t, w, q))
		if err != nil {
			t.Fatal(err)
		}
		if !m2.Reused || m1.Sig != m2.Sig {
			t.Fatalf("[%s] identical rects did not share one routed node", mode)
		}
		m3, err := m.Acquire(mustPlan(t, w, "rselect(nir, rect(-121.2, 36.8, -120.8, 37.2))"))
		if err != nil {
			t.Fatal(err)
		}
		if m3.Reused {
			t.Fatalf("[%s] distinct rects must not share a node", mode)
		}

		snap := m.Snapshot()
		if snap.Routing != mode.String() {
			t.Fatalf("snapshot routing = %q, want %q", snap.Routing, mode)
		}
		if len(snap.Routers) != 1 {
			t.Fatalf("[%s] %d routers, want 1 (one band)", mode, len(snap.Routers))
		}
		ri := snap.Routers[0]
		if ri.Band != "nir" || ri.Frontiers != 2 {
			t.Fatalf("[%s] router = %+v, want band nir with 2 frontiers", mode, ri)
		}
		wantIdx := "cascade-tree"
		if mode == RoutingNaive {
			wantIdx = "naive"
		}
		if ri.Index != wantIdx {
			t.Fatalf("[%s] index = %q, want %q", mode, ri.Index, wantIdx)
		}
		routed := 0
		for _, tr := range snap.Trunks {
			if tr.Routed {
				routed++
			}
		}
		if routed != 2 {
			t.Fatalf("[%s] %d routed trunks in snapshot, want 2", mode, routed)
		}
		if n := sub.subscriptions("nir"); n != 1 {
			t.Fatalf("[%s] band subscribed %d times, want 1 (router shares the feed)", mode, n)
		}

		sub.open()
		want, err := runPrivate(t, w, mustPlan(t, w, q))
		if err != nil {
			t.Fatal(err)
		}
		type res struct {
			fp  query.Fingerprint
			err error
		}
		c1, c2 := make(chan res, 1), make(chan res, 1)
		go func() { fp, err := collectFP(m1); c1 <- res{fp, err} }()
		go func() { fp, err := collectFP(m2); c2 <- res{fp, err} }()
		go stream.Drain(context.Background(), m3.Out) //nolint:errcheck
		r1, r2 := <-c1, <-c2
		if r1.err != nil || r2.err != nil {
			t.Fatalf("[%s] routed collects: %v / %v", mode, r1.err, r2.err)
		}
		if d := want.Diff(r1.fp, "private", "routed#1"); d != "" {
			t.Fatalf("[%s] diverged:\n%s", mode, d)
		}
		if d := want.Diff(r2.fp, "private", "routed#2"); d != "" {
			t.Fatalf("[%s] diverged:\n%s", mode, d)
		}
		ri = m.Snapshot().Routers[0]
		if ri.Probes == 0 {
			t.Fatalf("[%s] router probed nothing", mode)
		}
		for _, mt := range []*Mount{m1, m2, m3} {
			mt.Release()
		}
		if n := liveRouters(m.Snapshot()); n != 0 {
			t.Fatalf("[%s] %d routers still live after all releases", mode, n)
		}
	}
}

// TestRoutedCropSharing: two rects with distinct signatures but identical
// lattice clips (they differ far below the cell size) must be served by one
// crop computation per chunk, visible as crop_shares in the router counters
// — and both stay bit-identical to private execution.
func TestRoutedCropSharing(t *testing.T) {
	w := testWorkload(t)
	qa := "rselect(nir, rect(-121.6, 36.4, -120.4, 37.6))"
	qb := "rselect(nir, rect(-121.600000001, 36.4, -120.4, 37.6))"

	sub := newReplaySub(w, true)
	m := NewManager(context.Background(), sub)
	ma, err := m.Acquire(mustPlan(t, w, qa))
	if err != nil {
		t.Fatal(err)
	}
	mb, err := m.Acquire(mustPlan(t, w, qb))
	if err != nil {
		t.Fatal(err)
	}
	if mb.Reused {
		t.Fatal("nudged rect unexpectedly canonicalized to the same signature")
	}
	sub.open()

	type res struct {
		fp  query.Fingerprint
		err error
	}
	ca, cb := make(chan res, 1), make(chan res, 1)
	go func() { fp, err := collectFP(ma); ca <- res{fp, err} }()
	go func() { fp, err := collectFP(mb); cb <- res{fp, err} }()
	ra, rb := <-ca, <-cb
	if ra.err != nil || rb.err != nil {
		t.Fatalf("routed collects: %v / %v", ra.err, rb.err)
	}

	snap := m.Snapshot()
	if len(snap.Routers) != 1 {
		t.Fatalf("%d routers, want 1", len(snap.Routers))
	}
	ri := snap.Routers[0]
	if ri.Crops == 0 || ri.CropShares == 0 {
		t.Fatalf("router counters %+v: want shared crops (crops > 0, crop_shares > 0)", ri)
	}

	for q, r := range map[string]res{qa: ra, qb: rb} {
		want, err := runPrivate(t, w, mustPlan(t, w, q))
		if err != nil {
			t.Fatal(err)
		}
		if d := want.Diff(r.fp, "private", "shared-crop"); d != "" {
			t.Fatalf("%q diverged:\n%s", q, d)
		}
	}
	ma.Release()
	mb.Release()
}

// TestRoutedLeakFree: every pool-backed chunk the routed path creates goes
// back to the pool — across full collection, a mount abandoned mid-stream,
// and a composed plan reading a routed child through a tap.
func TestRoutedLeakFree(t *testing.T) {
	w := testWorkload(t)
	base := stream.PooledLive()

	sub := newReplaySub(w, true)
	m := NewManager(context.Background(), sub)
	full, err := m.Acquire(mustPlan(t, w, "rselect(nir, rect(-121.6, 36.4, -120.4, 37.6))"))
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := m.Acquire(mustPlan(t, w, "rselect(nir, rect(-121.9, 36.1, -120.1, 37.9))"))
	if err != nil {
		t.Fatal(err)
	}
	comp, err := m.Acquire(mustPlan(t, w, "scale(rselect(vis, rect(-121.5, 36.5, -120.5, 37.5)), 2, 1)"))
	if err != nil {
		t.Fatal(err)
	}
	sub.open()

	// Abandon the lazy mount after one chunk: its buffered crops must
	// drain-release on detach, not bleed out of the pool.
	if c, ok := <-lazy.Out.C; ok {
		c.Release()
	}
	lazy.Release()

	for _, mt := range []*Mount{full, comp} {
		if _, err := collectFP(mt); err != nil {
			t.Fatal(err)
		}
		mt.Release()
	}

	// Teardown is asynchronous (fanout drains, router finishes); poll.
	deadline := time.Now().Add(5 * time.Second)
	for stream.PooledLive() != base {
		if time.Now().After(deadline) {
			t.Fatalf("pooled chunks leaked on the routed path: live = %d, baseline = %d",
				stream.PooledLive(), base)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRoutedEndedRouterNotReused: after the band replay drains and the
// router's run loop exits, a fresh acquisition must build a new router (and
// a second band subscription) instead of attaching to the dead one.
func TestRoutedEndedRouterNotReused(t *testing.T) {
	w := testWorkload(t)
	sub := newReplaySub(w, true)
	m := NewManager(context.Background(), sub)

	q := "rselect(nir, rect(-121.6, 36.4, -120.4, 37.6))"
	first, err := m.Acquire(mustPlan(t, w, q))
	if err != nil {
		t.Fatal(err)
	}
	sub.open()
	fp1, err := collectFP(first)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		if _, ok := m.Lookup(first.Sig); !ok {
			break
		}
		if i > 1000 {
			t.Fatal("drained routed node never retired")
		}
		time.Sleep(time.Millisecond)
	}
	second, err := m.Acquire(mustPlan(t, w, q))
	if err != nil {
		t.Fatal(err)
	}
	if second.Reused {
		t.Fatal("acquisition attached to a dead routed node")
	}
	fp2, err := collectFP(second)
	if err != nil {
		t.Fatal(err)
	}
	if n := sub.subscriptions("nir"); n != 2 {
		t.Fatalf("nir subscribed %d times, want 2 (fresh router)", n)
	}
	if d := fp1.Diff(fp2, "first router", "second router"); d != "" {
		t.Fatalf("fresh router diverged:\n%s", d)
	}
	first.Release()
	second.Release()
}

// TestRoutedChurn: queries register and deregister while chunks flow. Run
// under -race this pins the router's locking; functionally it pins that a
// mount released mid-stream never stalls or corrupts its co-mounted
// queries, across repeated router build/teardown cycles.
func TestRoutedChurn(t *testing.T) {
	w := testWorkload(t)
	base := stream.PooledLive()
	sub := newReplaySub(w, false) // ungated: chunks flow from the first Acquire
	m := NewManager(context.Background(), sub)

	iters := 30
	if testing.Short() {
		iters = 8
	}
	var wg sync.WaitGroup
	for worker := 0; worker < 8; worker++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				band := "nir"
				if rng.Intn(2) == 0 {
					band = "vis"
				}
				x0 := -122 + rng.Float64()
				y0 := 36 + rng.Float64()
				q := fmt.Sprintf("rselect(%s, rect(%g, %g, %g, %g))",
					band, x0, y0, x0+rng.Float64(), y0+rng.Float64())
				mt, err := m.Acquire(mustPlan(t, w, q))
				if err != nil {
					t.Errorf("Acquire(%q): %v", q, err)
					return
				}
				switch rng.Intn(3) {
				case 0: // drain fully
					if _, err := collectFP(mt); err != nil {
						t.Errorf("collect(%q): %v", q, err)
					}
				case 1: // read a little, then walk away
					for n := rng.Intn(3); n > 0; n-- {
						c, ok := <-mt.Out.C
						if !ok {
							break
						}
						c.Release()
					}
				}
				m.Snapshot()
				mt.Release()
			}
		}(int64(worker + 1))
	}
	wg.Wait()
	if n := liveRouters(m.Snapshot()); n != 0 {
		t.Fatalf("%d routers still live after churn drained", n)
	}
	// Mounts walked away from mid-stream still hand every crop back.
	deadline := time.Now().Add(5 * time.Second)
	for stream.PooledLive() != base {
		if time.Now().After(deadline) {
			t.Fatalf("pooled chunks leaked under churn: live = %d, baseline = %d",
				stream.PooledLive(), base)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
