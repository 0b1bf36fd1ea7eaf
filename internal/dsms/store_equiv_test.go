package dsms

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"geostreams/internal/geom"
	"geostreams/internal/query"
	"geostreams/internal/store"
	"geostreams/internal/stream"
)

// The replay≡live property suite for the historical store (DESIGN.md
// §14): a query registered after the data has already flowed — so its
// temporal restriction lowers to a store scan spliced into live — must
// produce the bit-identical output fingerprint of the same query
// registered before the first sector, including punctuation order.

// startOrgServer is startServer with a configurable point organization
// and an optional historical store.
func startOrgServer(t *testing.T, sectors int, org stream.Organization, st *store.Store) (*Server, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	s := NewServer(ctx)
	if st != nil {
		s.SetStore(st)
	}
	streams, err := testImager(t, org, sectors).Streams(s.Group())
	if err != nil {
		t.Fatal(err)
	}
	for _, band := range []string{"vis", "nir"} {
		if err := s.AddSource(streams[band]); err != nil {
			t.Fatal(err)
		}
	}
	return s, func() {
		cancel()
		s.Close() //nolint:errcheck
	}
}

var testCanonicalNaN = math.Float64bits(math.NaN())

func foldFingerprint(fp *query.Fingerprint, c *stream.Chunk) {
	if c.Kind == stream.KindEndOfSector {
		fp.Punct = append(fp.Punct, c.T)
		return
	}
	c.ForEachPoint(func(p geom.Point, v float64) {
		bits := math.Float64bits(v)
		if math.IsNaN(v) {
			bits = testCanonicalNaN
		}
		fp.Values[query.Key(p)] = bits
	})
}

// fingerprintWrap is a pipelineWrap that folds every output chunk into fp
// before forwarding it. fp is written by the single tee goroutine; read
// it only after the query's pipeline has stopped.
func fingerprintWrap(fp *query.Fingerprint) func(g *stream.Group, out *stream.Stream) *stream.Stream {
	return func(g *stream.Group, out *stream.Stream) *stream.Stream {
		ch := make(chan *stream.Chunk, stream.DefaultBuffer)
		g.Go(func(ctx context.Context) error {
			defer close(ch)
			defer stream.DrainReleasing(out.C)
			for c := range out.C {
				foldFingerprint(fp, c)
				if err := stream.Send(ctx, ch, c); err != nil {
					c.Release()
					return nil
				}
			}
			return nil
		})
		return &stream.Stream{Info: out.Info, C: ch}
	}
}

// runStoreFingerprint starts the server's sources, waits until they are
// fully drained (bands dead, history stored), then registers q — its
// temporal restriction forces execution from the store — and returns the
// bit-exact output fingerprint once the pipeline finishes.
func runStoreFingerprint(t *testing.T, s *Server, st *store.Store, q string) query.Fingerprint {
	t.Helper()
	s.Start()
	waitStoreSealed(t, st, "vis", "nir")
	fp := query.Fingerprint{Values: map[query.PointKey]uint64{}}
	s.mu.Lock()
	s.pipelineWrap = fingerprintWrap(&fp)
	s.mu.Unlock()
	r, err := s.Register(q, DeliveryOptions{})
	if err != nil {
		t.Fatalf("register %q: %v", q, err)
	}
	select {
	case <-r.stopped:
	case <-time.After(30 * time.Second):
		t.Fatalf("query %q did not finish", q)
	}
	if r.Err() != nil {
		t.Fatalf("query %q failed: %v", q, r.Err())
	}
	return fp
}

// runLiveFingerprint is the semantic reference: the same parse → validate
// → optimize → fuse chain Register runs, built directly over the imager
// streams, with the hub's cascade-tree routing semantics reproduced as a
// lossless pre-filter (data chunks outside the plan's interest rect are
// dropped, punctuation always passes — exactly what hub.route delivers to
// a subscriber that never falls behind). This is "subscribed from the
// start" on an infinitely fast consumer: no deque, so nothing can shed
// under burst load and the reference is exact.
func runLiveFingerprint(t *testing.T, q string, org stream.Organization, sectors int) query.Fingerprint {
	t.Helper()
	g := stream.NewGroup(context.Background())
	im := testImager(t, org, sectors)
	sources, err := im.Streams(g)
	if err != nil {
		t.Fatal(err)
	}
	catalog := map[string]stream.Info{}
	bands := map[string]bool{}
	for _, b := range im.Bands {
		info := im.Info(b)
		catalog[info.Band] = info
		bands[info.Band] = true
	}
	plan, err := query.Parse(q, bands)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	if err := query.Validate(plan, catalog); err != nil {
		t.Fatalf("validate %q: %v", q, err)
	}
	opt, err := query.Optimize(plan, catalog)
	if err != nil {
		t.Fatalf("optimize %q: %v", q, err)
	}
	opt = query.Fuse(opt)
	interests := query.Interests(opt)
	filtered := map[string]*stream.Stream{}
	for band, src := range sources {
		rect, used := interests[band]
		if !used {
			go stream.Drain(context.Background(), src) //nolint:errcheck
			continue
		}
		src, rect := src, rect
		ch := make(chan *stream.Chunk, stream.DefaultBuffer)
		g.Go(func(ctx context.Context) error {
			defer close(ch)
			defer stream.DrainReleasing(src.C)
			for c := range src.C {
				if c.IsData() && !c.Bounds().Intersects(rect) {
					c.Release()
					continue
				}
				if err := stream.Send(ctx, ch, c); err != nil {
					c.Release()
					return nil
				}
			}
			return nil
		})
		filtered[band] = &stream.Stream{Info: src.Info, C: ch}
	}
	out, _, err := query.Build(g, opt, filtered)
	if err != nil {
		t.Fatalf("build %q: %v", q, err)
	}
	chunks, err := stream.Collect(context.Background(), out)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	return query.FingerprintChunks(chunks)
}

func waitStoreSealed(t *testing.T, st *store.Store, bands ...string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		sealed := true
		for _, band := range bands {
			b, ok := st.Lookup(band)
			if !ok || !b.Sealed() {
				sealed = false
			}
		}
		if sealed {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("sources never drained into the store")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStoreReplayEqualsLiveProperty: for random plans wrapped in a
// temporal restriction over the past, executing from the store after the
// fact is bit-identical to having subscribed from the start — same value
// bits at the same points, same punctuation order — under both chunk
// organizations, from a memory-only store's ring and from a segment log.
func TestStoreReplayEqualsLiveProperty(t *testing.T) {
	trials := 8
	if testing.Short() {
		trials = 3
	}
	// Ring configs mount a memory-only store. Disk configs mount a segment
	// log with small segments, so replay crosses many sealed segments;
	// the log is their whole history, with nothing in the ring.
	for _, cfg := range []struct {
		name    string
		org     stream.Organization
		disk    bool
		sectors int
	}{
		{"row-by-row/ring", stream.RowByRow, false, 3},
		{"row-by-row/disk", stream.RowByRow, true, 8},
		{"image-by-image/ring", stream.ImageByImage, false, 3},
		{"image-by-image/disk", stream.ImageByImage, true, 70},
	} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			seed := int64(0x9E0 + int(cfg.org))
			if cfg.disk {
				seed++
			}
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < trials; i++ {
				q := fmt.Sprintf("tselect(%s, interval(0, 99))",
					query.RandPlanText(rng, true))
				ref := runLiveFingerprint(t, q, cfg.org, cfg.sectors)

				opts := store.Options{}
				if cfg.disk {
					opts = store.Options{Dir: t.TempDir(), SegmentBytes: 16 << 10}
				}
				st, err := store.Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				srv, stop := startOrgServer(t, cfg.sectors, cfg.org, st)
				got := runStoreFingerprint(t, srv, st, q)
				if cfg.disk {
					var replayed int64
					for _, snap := range st.Snapshot() {
						if snap.RingChunks != 0 {
							t.Fatalf("band %s kept %d ring chunks beside its segment log", snap.Band, snap.RingChunks)
						}
						replayed += snap.Replayed
					}
					if replayed == 0 {
						t.Fatal("no record was replayed from the segment log")
					}
				}
				stop()
				st.Close() //nolint:errcheck

				if d := ref.Diff(got, "live", "store-replay"); d != "" {
					t.Fatalf("plan %q replay diverges from live: %s", q, d)
				}
				if len(ref.Punct) == 0 || len(ref.Values) == 0 {
					t.Fatalf("plan %q produced an empty fingerprint (vacuous trial)", q)
				}
			}
		})
	}
}

// TestStoreScanExplainAndStats: a temporally restricted plan is annotated
// [store] by EXPLAIN when a store is mounted, and /stats carries the
// per-band store snapshots.
func TestStoreScanExplainAndStats(t *testing.T) {
	st, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s, stop := startOrgServer(t, 2, stream.RowByRow, st)
	defer stop()

	out, err := s.Explain("tselect(vis, since(1))")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "[store]") {
		t.Fatalf("EXPLAIN of a temporal restriction lacks the [store] tag:\n%s", out)
	}
	out, err = s.Explain("vis")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "[store]") {
		t.Fatalf("EXPLAIN of an unrestricted plan carries a [store] tag:\n%s", out)
	}

	s.Start()
	waitStoreSealed(t, st, "vis", "nir")
	stats := s.ServerStats()
	if len(stats.Store) != 2 {
		t.Fatalf("ServerStats.Store has %d bands, want 2", len(stats.Store))
	}
	for _, bs := range stats.Store {
		if bs.Appended == 0 || bs.LastSeq == 0 || !bs.Sealed {
			t.Fatalf("band %q store snapshot not populated: %+v", bs.Band, bs)
		}
	}
}
