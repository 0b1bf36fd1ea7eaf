package share

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"geostreams/internal/geom"
	"geostreams/internal/query"
	"geostreams/internal/sat"
	"geostreams/internal/stream"
)

var testBands = map[string]bool{"nir": true, "vis": true}

// workload is the deterministic pre-rendered chunk replay every test runs
// against: rendering the satellite scene once and replaying immutable chunk
// pointers keeps the 1000-trial harness fast and makes private and shared
// executions consume byte-identical input.
type workload struct {
	infos   map[string]stream.Info
	chunks  map[string][]*stream.Chunk
	catalog map[string]stream.Info
}

var (
	wlOnce sync.Once
	wl     *workload
	wlErr  error
)

func testWorkload(t *testing.T) *workload {
	t.Helper()
	wlOnce.Do(func() {
		g := stream.NewGroup(context.Background())
		scene := sat.DefaultScene(99)
		im, err := sat.NewLatLonImager(geom.R(-122, 36, -120, 38), 16, 12, scene,
			[]string{"nir", "vis"}, stream.RowByRow, 2)
		if err != nil {
			wlErr = err
			return
		}
		streams, err := im.Streams(g)
		if err != nil {
			wlErr = err
			return
		}
		w := &workload{
			infos:  map[string]stream.Info{},
			chunks: map[string][]*stream.Chunk{},
			catalog: map[string]stream.Info{
				"nir": im.Info(im.Bands[0]),
				"vis": im.Info(im.Bands[1]),
			},
		}
		var mu sync.Mutex
		var cg sync.WaitGroup
		for band, s := range streams {
			cg.Add(1)
			go func(band string, s *stream.Stream) {
				defer cg.Done()
				chunks, err := stream.Collect(context.Background(), s)
				mu.Lock()
				defer mu.Unlock()
				if err != nil && wlErr == nil {
					wlErr = err
				}
				w.infos[band] = s.Info
				w.chunks[band] = chunks
			}(band, s)
		}
		cg.Wait()
		if err := g.Wait(); err != nil && wlErr == nil {
			wlErr = err
		}
		wl = w
	})
	if wlErr != nil {
		t.Fatal(wlErr)
	}
	return wl
}

// replaySub replays the pre-rendered chunks. With a gate, no chunk flows
// before the gate closes — so a test can attach every mount first and then
// start the broadcast, making "all subscribers see the whole stream" a
// deterministic property rather than a race.
type replaySub struct {
	wl   *workload
	gate chan struct{}

	mu   sync.Mutex
	subs map[string]int
}

func newReplaySub(wl *workload, gated bool) *replaySub {
	r := &replaySub{wl: wl, subs: map[string]int{}}
	if gated {
		r.gate = make(chan struct{})
	}
	return r
}

func (r *replaySub) open() { close(r.gate) }

func (r *replaySub) Subscribe(band string, g *stream.Group) (*stream.Stream, func(), error) {
	info, ok := r.wl.infos[band]
	if !ok {
		return nil, nil, fmt.Errorf("replay: unknown band %q", band)
	}
	r.mu.Lock()
	r.subs[band]++
	r.mu.Unlock()
	chunks := r.wl.chunks[band]
	gate := r.gate
	s := stream.Generate(g, info, func(ctx context.Context, emit func(*stream.Chunk) bool) error {
		if gate != nil {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil
			}
		}
		for _, c := range chunks {
			if !emit(c) {
				return nil
			}
		}
		return nil
	})
	return s, func() {}, nil
}

func (r *replaySub) subscriptions(band string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.subs[band]
}

func mustPlan(t *testing.T, w *workload, q string) query.Node {
	t.Helper()
	n, err := query.Parse(q, testBands)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	opt, err := query.Optimize(n, w.catalog)
	if err != nil {
		t.Fatalf("Optimize(%q): %v", q, err)
	}
	return query.Fuse(opt)
}

// runPrivate executes a plan the unshared way — query.Build over its own
// replay streams — and fingerprints the output.
func runPrivate(t *testing.T, w *workload, plan query.Node) (query.Fingerprint, error) {
	t.Helper()
	g := stream.NewGroup(context.Background())
	sources := map[string]*stream.Stream{}
	for band := range w.infos {
		sources[band] = stream.FromChunks(g, w.infos[band], w.chunks[band])
	}
	used := query.Bands(plan)
	for band, s := range sources {
		if used[band] == 0 {
			go stream.Drain(context.Background(), s) //nolint:errcheck
		}
	}
	out, _, err := query.Build(g, plan, sources)
	if err != nil {
		return query.Fingerprint{}, err
	}
	chunks, err := stream.Collect(context.Background(), out)
	if err != nil {
		return query.Fingerprint{}, err
	}
	if err := g.Wait(); err != nil {
		return query.Fingerprint{}, err
	}
	fp := query.FingerprintChunks(chunks)
	for _, c := range chunks {
		c.Release()
	}
	return fp, nil
}

// TestSharedVsPrivateBitIdentical is the harness acceptance property: over
// ≥1000 generated plans, mounting on a shared trunk produces bit-identical
// output — same points, same value bits, same punctuation — to a private
// pipeline. Each trial also mounts the plan twice to exercise fan-out.
func TestSharedVsPrivateBitIdentical(t *testing.T) {
	w := testWorkload(t)
	trials := 1000
	if testing.Short() {
		trials = 60
	}
	rng := rand.New(rand.NewSource(20060328))
	for i := 0; i < trials; i++ {
		q := query.RandPlanText(rng, false)
		want, err := runPrivate(t, w, mustPlan(t, w, q))
		if err != nil {
			t.Fatalf("trial %d: private run of %q: %v", i, q, err)
		}

		sub := newReplaySub(w, true)
		m := NewManager(context.Background(), sub)
		m1, err := m.Acquire(mustPlan(t, w, q))
		if err != nil {
			t.Fatalf("trial %d: Acquire(%q): %v", i, q, err)
		}
		m2, err := m.Acquire(mustPlan(t, w, q))
		if err != nil {
			t.Fatalf("trial %d: second Acquire(%q): %v", i, q, err)
		}
		if !m2.Reused {
			t.Fatalf("trial %d: second mount of %q did not reuse the trunk", i, q)
		}
		sub.open()

		type res struct {
			fp  query.Fingerprint
			err error
		}
		c1, c2 := make(chan res, 1), make(chan res, 1)
		collect := func(mt *Mount, ch chan res) {
			chunks, err := stream.Collect(context.Background(), mt.Out)
			ch <- res{query.FingerprintChunks(chunks), err}
		}
		go collect(m1, c1)
		go collect(m2, c2)
		r1, r2 := <-c1, <-c2
		if r1.err != nil || r2.err != nil {
			t.Fatalf("trial %d: shared collect of %q: %v / %v", i, q, r1.err, r2.err)
		}
		m1.Release()
		m2.Release()
		if d := want.Diff(r1.fp, "private", "shared#1"); d != "" {
			t.Fatalf("trial %d: %q\n%s", i, q, d)
		}
		if d := want.Diff(r2.fp, "private", "shared#2"); d != "" {
			t.Fatalf("trial %d: %q\n%s", i, q, d)
		}
	}
}

// TestCommutativeSwapSharesTrunk: A+B and B+A canonicalize to one
// signature and run on one trunk; A−B and B−A stay separate.
func TestCommutativeSwapSharesTrunk(t *testing.T) {
	w := testWorkload(t)
	sub := newReplaySub(w, true)
	m := NewManager(context.Background(), sub)

	add1, err := m.Acquire(mustPlan(t, w, "(nir + vis)"))
	if err != nil {
		t.Fatal(err)
	}
	add2, err := m.Acquire(mustPlan(t, w, "(vis + nir)"))
	if err != nil {
		t.Fatal(err)
	}
	if add1.Sig != add2.Sig || !add2.Reused {
		t.Fatalf("A+B and B+A must share one trunk (sigs %s vs %s, reused=%v)",
			add1.Short, add2.Short, add2.Reused)
	}

	sub1, err := m.Acquire(mustPlan(t, w, "(nir - vis)"))
	if err != nil {
		t.Fatal(err)
	}
	sub2, err := m.Acquire(mustPlan(t, w, "(vis - nir)"))
	if err != nil {
		t.Fatal(err)
	}
	if sub1.Sig == sub2.Sig || sub2.Reused {
		t.Fatalf("A-B and B-A must not share a trunk")
	}
	// All four queries share the two band source trunks: one subscription
	// per band, ever.
	for _, band := range []string{"nir", "vis"} {
		if n := sub.subscriptions(band); n != 1 {
			t.Errorf("band %q subscribed %d times, want 1", band, n)
		}
	}

	sub.open()
	for _, mt := range []*Mount{add2, sub1, sub2} {
		go stream.Drain(context.Background(), mt.Out) //nolint:errcheck
	}
	if _, err := stream.Collect(context.Background(), add1.Out); err != nil {
		t.Fatal(err)
	}
	for _, mt := range []*Mount{add1, add2, sub1, sub2} {
		mt.Release()
	}
}

// TestReleaseTearsDownTrunks: when the last mount referencing a trunk
// releases, the whole DAG (operators and band subscriptions) tears down and
// the manager is empty.
func TestReleaseTearsDownTrunks(t *testing.T) {
	w := testWorkload(t)
	sub := newReplaySub(w, true) // gate never opens: trunks stay running
	m := NewManager(context.Background(), sub)

	m1, err := m.Acquire(mustPlan(t, w, "vselect(ndvi(nir, vis), above(0.2))"))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := m.Acquire(mustPlan(t, w, "vselect(ndvi(nir, vis), above(0.2))"))
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if len(snap.Trunks) == 0 || snap.Created == 0 {
		t.Fatalf("expected running trunks, got %+v", snap)
	}
	if refs, ok := m.Lookup(m1.Sig); !ok || refs != 2 {
		t.Fatalf("root trunk refs = %d, %v; want 2, true", refs, ok)
	}

	m1.Release()
	m1.Release() // idempotent
	if refs, ok := m.Lookup(m1.Sig); !ok || refs != 1 {
		t.Fatalf("after one release: refs = %d, %v; want 1, true", refs, ok)
	}
	m2.Release()
	if _, ok := m.Lookup(m1.Sig); ok {
		t.Fatal("root trunk still registered after last release")
	}
	if n := len(m.Snapshot().Trunks); n != 0 {
		t.Fatalf("%d trunks still registered after all releases", n)
	}
}

// TestIdenticalQueriesShareTrunks: 64 identical queries run the trunk set
// of one, 8 distinct thresholds over the same ndvi add exactly one trunk
// each, and however many queries mount, each band is subscribed once.
func TestIdenticalQueriesShareTrunks(t *testing.T) {
	w := testWorkload(t)
	sub := newReplaySub(w, true) // gate never opens: trunks stay running
	m := NewManager(context.Background(), sub)

	var mounts []*Mount
	acquire := func(q string) {
		t.Helper()
		mt, err := m.Acquire(mustPlan(t, w, q))
		if err != nil {
			t.Fatal(err)
		}
		mounts = append(mounts, mt)
	}
	acquire("vselect(ndvi(nir, vis), above(0.2))")
	trunks := len(m.Snapshot().Trunks)
	if trunks == 0 {
		t.Fatal("one query runs no trunk")
	}
	for i := 1; i < 64; i++ {
		acquire("vselect(ndvi(nir, vis), above(0.2))")
	}
	if n := len(m.Snapshot().Trunks); n != trunks {
		t.Fatalf("64 identical queries run %d trunks, 1 query ran %d", n, trunks)
	}
	for i := 0; i < 8; i++ {
		acquire(fmt.Sprintf("vselect(ndvi(nir, vis), above(%g))", 0.1+0.01*float64(i)))
	}
	if n := len(m.Snapshot().Trunks); n != trunks+8 {
		t.Fatalf("8 distinct thresholds run %d trunks, want %d", n, trunks+8)
	}
	if n := sub.subscriptions("nir") + sub.subscriptions("vis"); n != 2 {
		t.Fatalf("%d band subscriptions, want one per band", n)
	}
	for _, mt := range mounts {
		mt.Release()
	}
	if n := len(m.Snapshot().Trunks); n != 0 {
		t.Fatalf("%d trunks still registered after all releases", n)
	}
}

// TestDetachedMountDoesNotBlockTrunk: a mount that stops reading and
// releases mid-stream must not stall delivery to its co-mounted query.
func TestDetachedMountDoesNotBlockTrunk(t *testing.T) {
	w := testWorkload(t)
	sub := newReplaySub(w, true)
	m := NewManager(context.Background(), sub)

	lazy, err := m.Acquire(mustPlan(t, w, "scale(nir, 2, 1)"))
	if err != nil {
		t.Fatal(err)
	}
	live, err := m.Acquire(mustPlan(t, w, "scale(nir, 2, 1)"))
	if err != nil {
		t.Fatal(err)
	}
	sub.open()
	// Read one chunk from the lazy mount, then abandon and release it.
	<-lazy.Out.C
	lazy.Release()

	chunks, err := stream.Collect(context.Background(), live.Out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runPrivate(t, w, mustPlan(t, w, "scale(nir, 2, 1)"))
	if err != nil {
		t.Fatal(err)
	}
	if d := want.Diff(query.FingerprintChunks(chunks), "private", "surviving mount"); d != "" {
		t.Fatalf("surviving mount diverged after co-mount detached:\n%s", d)
	}
	live.Release()
}

// TestEndedTrunkIsNotReused: after the replay drains and the trunk group
// ends, a new acquisition must build a fresh trunk instead of attaching to
// the dead one.
func TestEndedTrunkIsNotReused(t *testing.T) {
	w := testWorkload(t)
	sub := newReplaySub(w, true)
	m := NewManager(context.Background(), sub)

	first, err := m.Acquire(mustPlan(t, w, "clamp(vis, 0, 500)"))
	if err != nil {
		t.Fatal(err)
	}
	sub.open()
	if _, err := stream.Collect(context.Background(), first.Out); err != nil {
		t.Fatal(err)
	}
	// The trunk's input is exhausted; wait for the watchers to retire it
	// and the vis source trunk beneath it, which ends on its own watcher.
	// A live server meets a drained source trunk only once its band has
	// ended for good, when a fresh hub subscription ends at once as well;
	// this replay band restarts, so the test waits for both.
	for _, sig := range []string{first.Sig, query.Signature(mustPlan(t, w, "vis"))} {
		for i := 0; ; i++ {
			if _, ok := m.Lookup(sig); !ok {
				break
			}
			if i > 1000 {
				t.Fatalf("drained trunk %s never retired", sig)
			}
			time.Sleep(time.Millisecond)
		}
	}
	second, err := m.Acquire(mustPlan(t, w, "clamp(vis, 0, 500)"))
	if err != nil {
		t.Fatal(err)
	}
	if second.Reused {
		t.Fatal("acquisition attached to a dead trunk")
	}
	if n := sub.subscriptions("vis"); n != 2 {
		t.Fatalf("vis subscribed %d times, want 2 (fresh trunk)", n)
	}
	chunks, err := stream.Collect(context.Background(), second.Out)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) == 0 {
		t.Fatal("fresh trunk delivered nothing")
	}
	first.Release()
	second.Release()
}

// TestStretchRejected: per-query product state must not mount on a trunk.
func TestStretchRejected(t *testing.T) {
	w := testWorkload(t)
	m := NewManager(context.Background(), newReplaySub(w, false))
	plan := mustPlan(t, w, "stretch(ndvi(nir, vis), linear, 0, 255)")
	if _, err := m.Acquire(plan); err == nil {
		t.Fatal("Acquire accepted a stretch plan; want shareability error")
	}
	// Its frontier, though, is shareable and must mount.
	fr := query.ShareFrontier(plan)
	if len(fr) != 1 {
		t.Fatalf("frontier has %d roots, want 1", len(fr))
	}
	mt, err := m.Acquire(fr[0])
	if err != nil {
		t.Fatalf("Acquire(frontier root): %v", err)
	}
	mt.Release()
}
