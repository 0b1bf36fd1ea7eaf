package share

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"geostreams/internal/geom"
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
// crop workload query produces bit-identical output through the shared
// tree router and through a private per-query scan, including the
// punctuation sequence.
func TestRoutedVsPrivateBitIdentical(t *testing.T) {
	w := testWorkload(t)
	for _, q := range cropQueries {
		want, err := runPrivate(t, w, mustPlan(t, w, q))
		if err != nil {
			t.Fatalf("private run of %q: %v", q, err)
		}
		sub := newReplaySub(w, true)
		m := NewManager(context.Background(), sub)
		mt, err := m.Acquire(mustPlan(t, w, q))
		if err != nil {
			t.Fatalf("Acquire(%q): %v", q, err)
		}
		if len(m.Snapshot().Routers) == 0 {
			t.Fatalf("%q: no band router built", q)
		}
		sub.open()
		got, err := collectFP(mt)
		if err != nil {
			t.Fatalf("routed collect of %q: %v", q, err)
		}
		if d := want.Diff(got, "private", "routed"); d != "" {
			t.Fatalf("%q diverged:\n%s", q, d)
		}
		mt.Release()
	}
}

// TestRoutedSnapshotAndDedup: identical crop rects dedup to one routed node
// and one router frontier; distinct rects add frontiers to the same router;
// the snapshot reports the routed flag.
func TestRoutedSnapshotAndDedup(t *testing.T) {
	w := testWorkload(t)
	sub := newReplaySub(w, true)
	m := NewManager(context.Background(), sub)

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
		t.Fatal("identical rects did not share one routed node")
	}
	m3, err := m.Acquire(mustPlan(t, w, "rselect(nir, rect(-121.2, 36.8, -120.8, 37.2))"))
	if err != nil {
		t.Fatal(err)
	}
	if m3.Reused {
		t.Fatal("distinct rects must not share a node")
	}

	snap := m.Snapshot()
	if len(snap.Routers) != 1 {
		t.Fatalf("%d routers, want 1 (one band)", len(snap.Routers))
	}
	ri := snap.Routers[0]
	if ri.Band != "nir" || ri.Frontiers != 2 {
		t.Fatalf("router = %+v, want band nir with 2 frontiers", ri)
	}
	routed := 0
	for _, tr := range snap.Trunks {
		if tr.Routed {
			routed++
		}
	}
	if routed != 2 {
		t.Fatalf("%d routed trunks in snapshot, want 2", routed)
	}
	if n := sub.subscriptions("nir"); n != 1 {
		t.Fatalf("band subscribed %d times, want 1 (router shares the feed)", n)
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
		t.Fatalf("routed collects: %v / %v", r1.err, r2.err)
	}
	if d := want.Diff(r1.fp, "private", "routed#1"); d != "" {
		t.Fatalf("diverged:\n%s", d)
	}
	if d := want.Diff(r2.fp, "private", "routed#2"); d != "" {
		t.Fatalf("diverged:\n%s", d)
	}
	ri = m.Snapshot().Routers[0]
	if ri.Probes == 0 {
		t.Fatal("router probed nothing")
	}
	for _, mt := range []*Mount{m1, m2, m3} {
		mt.Release()
	}
	if n := liveRouters(m.Snapshot()); n != 0 {
		t.Fatalf("%d routers still live after all releases", n)
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

// TestRoutedCountsSublinearInN pins the router's work counters exactly on
// seeded layouts of 64 and 512 distinct crop rects over one band: one
// index probe per data chunk whatever N is, one match per (chunk,
// intersecting rect), and one crop per distinct lattice clip among the
// matches. Each rect is 1/√N of the region high, so a row chunk meets
// ~√N of them: growing N 8× must grow the matched work well under 8×.
func TestRoutedCountsSublinearInN(t *testing.T) {
	w := testWorkload(t)
	region := geom.R(-122, 36, -120, 38)
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	matches := map[int]int64{}
	for _, n := range []int{64, 512} {
		rng := rand.New(rand.NewSource(int64(n)))
		side := region.Width() / math.Sqrt(float64(n))
		sub := newReplaySub(w, true)
		m := NewManager(context.Background(), sub)
		rects := make([]geom.Rect, 0, n)
		mounts := make([]*Mount, 0, n)
		for i := 0; i < n; i++ {
			x := region.MinX + rng.Float64()*(region.Width()-side)
			y := region.MinY + rng.Float64()*(region.Height()-side)
			plan := mustPlan(t, w, fmt.Sprintf("rselect(vis, rect(%s, %s, %s, %s))",
				num(x), num(y), num(x+side), num(y+side)))
			_, rr, ok := query.CascadeRoutable(plan)
			if !ok {
				t.Fatalf("N=%d: crop %d is not cascade-routable: %s", n, i, query.Format(plan))
			}
			rects = append(rects, rr.Rect)
			mt, err := m.Acquire(plan)
			if err != nil {
				t.Fatal(err)
			}
			mounts = append(mounts, mt)
		}
		sub.open()
		var wg sync.WaitGroup
		for _, mt := range mounts {
			wg.Add(1)
			go func(mt *Mount) {
				defer wg.Done()
				stream.Drain(context.Background(), mt.Out) //nolint:errcheck
			}(mt)
		}
		wg.Wait()

		var want RouterInfo
		for _, c := range w.chunks["vis"] {
			if !c.IsData() {
				continue
			}
			want.Probes++
			clips := map[[4]int]bool{}
			for _, r := range rects {
				if !r.Intersects(c.Bounds()) {
					continue
				}
				want.Matches++
				if c0, r0, c1, r1, ok := c.Grid.Lat.ClipRect(r); ok {
					clips[[4]int{c0, r0, c1, r1}] = true
				}
			}
			want.Crops += int64(len(clips))
		}
		snap := m.Snapshot()
		if len(snap.Routers) != 1 {
			t.Fatalf("N=%d: %d routers, want 1", n, len(snap.Routers))
		}
		got := snap.Routers[0]
		if got.Frontiers != n || got.Probes != want.Probes || got.Matches != want.Matches || got.Crops != want.Crops {
			t.Fatalf("N=%d: frontiers %d probes %d matches %d crops %d, want %d, %d, %d, %d",
				n, got.Frontiers, got.Probes, got.Matches, got.Crops, n, want.Probes, want.Matches, want.Crops)
		}
		matches[n] = got.Matches
		for _, mt := range mounts {
			mt.Release()
		}
	}
	t.Logf("matches: %d at N=64, %d at N=512", matches[64], matches[512])
	if matches[64] == 0 || matches[512] >= 4*matches[64] {
		t.Fatalf("matched work grew from %d at N=64 to %d at N=512: want under 4x for 8x the rects",
			matches[64], matches[512])
	}
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
