package share

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"geostreams/internal/cascade"
	"geostreams/internal/core"
	"geostreams/internal/geom"
	"geostreams/internal/query"
	"geostreams/internal/stream"
)

// router is the shared spatial-restriction stage for one band: the §4
// dynamic cascade tree wired into live execution. Every routed query's
// crop rect registers in the index; each incoming chunk is probed once
// against all of them, and each distinct surviving crop is computed once
// and fanned to every query that wants it (queries sharing a rect share
// the chunk pointer, ref-counted). Cost per chunk is probe + matched work,
// not a scan of every registered query.
//
// Concurrency: the outlets map and lifecycle flags are guarded by mu
// (manager code takes m.mu before mu; the routing goroutine takes mu
// alone); the index has its own internal lock (cascade.Locked) so probes
// don't serialize against outlet bookkeeping.
//
// Ownership (DESIGN.md §12): the router owns each chunk it receives from
// the band subscription. Crops are fresh chunks — one reference per
// recipient is held before the first hand-off. Punctuation passes the
// incoming pointer through, transferring the incoming reference to the
// first recipient. An outlet that detaches mid-send is skipped and its
// reference released; on teardown buffered chunks drain-release.
type router struct {
	band    string
	srcInfo stream.Info // the band stream's metadata, inherited by outlets
	m       *Manager

	group     *stream.Group
	cancel    context.CancelFunc
	srcCancel func() // stops the band subscription feed
	// src is the band feed until the first outlet starts the run loop, nil
	// after. Guarded by m.mu.
	src <-chan *stream.Chunk

	idx *cascade.Locked
	st  *stream.Stats

	mu      sync.Mutex
	outlets map[cascade.QueryID]*outlet
	nextID  cascade.QueryID
	refs    int  // routed nodes holding an outlet
	dead    bool // run loop exited; no longer usable

	probes      atomic.Int64 // data chunks probed against the index
	matches     atomic.Int64 // outlet matches summed over probes
	crops       atomic.Int64 // distinct crops computed
	cropShares  atomic.Int64 // crop deliveries served by an already-computed crop
	filtered    atomic.Int64 // data chunks matching no registered rect
	punctFanned atomic.Int64 // punctuation chunks broadcast to all outlets
	routeNanos  atomic.Int64 // wall nanoseconds inside route(), all chunks
}

// outlet is one routed query's attachment to the router: the channel its
// node's fanout reads, the crop operator, and per-outlet stats that stand
// in for the private rselect's operator stats in EXPLAIN pairing.
type outlet struct {
	id   cascade.QueryID
	op   core.SpatialRestrict
	out  chan *stream.Chunk
	done chan struct{}
	st   *stream.Stats
}

// bandRouter returns the live router for a band, building one (and its
// band subscription) on first use. Caller holds m.mu.
func (m *Manager) bandRouter(band string) (*router, error) {
	if rt, ok := m.routers[band]; ok && !rt.isDead() {
		return rt, nil
	}
	ctx, cancel := context.WithCancel(m.ctx)
	g := stream.NewGroup(ctx)
	rt := &router{
		band:    band,
		m:       m,
		group:   g,
		cancel:  cancel,
		idx:     cascade.NewLocked(cascade.NewTree()),
		st:      stream.NewStats("cascade(" + band + ")"),
		outlets: make(map[cascade.QueryID]*outlet),
	}
	src, stop, err := m.sub.Subscribe(band, g)
	if err != nil {
		cancel()
		return nil, err
	}
	rt.srcInfo = src.Info
	rt.srcCancel = stop
	if m.trace != nil {
		// Router spans belong to the shared ring, like trunk operators: one
		// routing stage serves many queries.
		rt.st.AttachTrace(m.trace)
	}
	// The run loop starts with the first outlet (addOutlet): started here,
	// it could route — or, on a finite feed, finish — before anyone is
	// attached, and the first query would see an empty stream.
	rt.src = src.C
	m.routers[band] = rt
	return rt, nil
}

func (rt *router) isDead() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.dead
}

// addOutlet registers a routed query's crop rect and returns the stream its
// node's fanout will broadcast, the stats standing in for the crop
// operator, and the removal closure (idempotence handled by the caller's
// node lifecycle: srcCancel runs once per node teardown). A router whose
// run loop already exited hands back a closed stream — the same contract a
// late hub subscriber gets. Caller holds m.mu.
func (rt *router) addOutlet(region geom.RectRegion) (*stream.Stream, *stream.Stats, func()) {
	op := core.SpatialRestrict{Region: region}
	st := stream.NewStats(op.Name())
	if rt.m.trace != nil {
		st.AttachTrace(rt.m.trace)
	}
	rt.mu.Lock()
	if rt.dead {
		rt.mu.Unlock()
		closed := make(chan *stream.Chunk)
		close(closed)
		return &stream.Stream{Info: rt.srcInfo, C: closed}, st, func() {}
	}
	rt.nextID++
	o := &outlet{
		id:   rt.nextID,
		op:   op,
		out:  make(chan *stream.Chunk, stream.DefaultBuffer),
		done: make(chan struct{}),
		st:   st,
	}
	rt.outlets[o.id] = o
	rt.refs++
	rt.mu.Unlock()
	rt.idx.Insert(o.id, region.Rect)
	if src := rt.src; src != nil {
		rt.src = nil
		rt.group.Go(func(ctx context.Context) error { return rt.run(ctx, src) })
	}
	return &stream.Stream{Info: rt.srcInfo, C: o.out}, st, func() { rt.removeOutlet(o) }
}

// removeOutlet detaches an outlet. Called under m.mu (node teardown path).
// The routing goroutine observes done on its next interaction with the
// outlet and skips it; chunks already buffered are drained by the outlet's
// fanout (still running until the node's group cancels) or by the
// drain-release below.
func (rt *router) removeOutlet(o *outlet) {
	rt.mu.Lock()
	if _, live := rt.outlets[o.id]; !live {
		rt.mu.Unlock()
		return
	}
	delete(rt.outlets, o.id)
	rt.refs--
	last := rt.refs == 0
	rt.mu.Unlock()
	rt.idx.Remove(o.id)
	close(o.done)
	// Free anything the fanout no longer drains (it exits on node cancel
	// with a non-blocking drain of its own; receives never double-free).
	stream.DrainReleasing(o.out)
	if last {
		// Last routed query left: tear the router down. Caller holds m.mu,
		// so the registry delete — and folding this generation's counters
		// into the band's cumulative totals — is safe here.
		if rt.m.routers[rt.band] == rt {
			delete(rt.m.routers, rt.band)
		}
		hist := rt.m.routerHist[rt.band]
		hist.Band = rt.band
		hist.addCounters(rt.info())
		rt.m.routerHist[rt.band] = hist
		rt.cancel()
		rt.srcCancel()
	}
}

// run is the routing loop: one goroutine per band consumes the shared
// subscription and routes every chunk once.
func (rt *router) run(ctx context.Context, in <-chan *stream.Chunk) error {
	defer rt.finish()
	for {
		select {
		case c, ok := <-in:
			if !ok {
				return nil
			}
			rt.route(ctx, c)
		case <-ctx.Done():
			stream.DrainReleasing(in)
			return nil
		}
	}
}

// finish marks the router dead and closes every outlet channel: downstream
// fanouts end, their nodes retire through the normal dead-watcher path, and
// later acquisitions build a fresh router.
func (rt *router) finish() {
	rt.mu.Lock()
	rt.dead = true
	outlets := make([]*outlet, 0, len(rt.outlets))
	for _, o := range rt.outlets {
		outlets = append(outlets, o)
	}
	rt.mu.Unlock()
	for _, o := range outlets {
		close(o.out)
	}
}

// route hands one chunk to every outlet that wants it. Data chunks probe
// the index with their bounds; the matched outlets are grouped by the crop
// they produce (for rect crops of one grid chunk, the output depends only
// on the clipped index range) so each distinct crop is computed once and
// shared by reference. Punctuation goes to everyone.
func (rt *router) route(ctx context.Context, c *stream.Chunk) {
	begin := time.Now()
	defer func() { rt.routeNanos.Add(int64(time.Since(begin))) }()
	rt.st.CountIn(c)

	if !c.IsData() {
		rt.mu.Lock()
		targets := make([]*outlet, 0, len(rt.outlets))
		for _, o := range rt.outlets {
			targets = append(targets, o)
		}
		rt.mu.Unlock()
		rt.punctFanned.Add(1)
		if len(targets) == 0 {
			c.Release()
			return
		}
		// Punctuation passes through by pointer, as in the private
		// operator. One reference per recipient is taken up front; the
		// incoming reference stays with the router so the chunk is still
		// readable for CountOut after the last hand-off.
		for range targets {
			c.Retain()
		}
		for _, o := range targets {
			o.st.CountIn(c)
			rt.send(ctx, o, c)
		}
		rt.st.CountOut(c)
		c.Release()
		return
	}

	ids := rt.idx.Probe(c.Bounds(), nil)
	rt.probes.Add(1)
	rt.matches.Add(int64(len(ids)))
	if len(ids) == 0 {
		rt.filtered.Add(1)
		c.Release()
		return
	}
	rt.mu.Lock()
	targets := make([]*outlet, 0, len(ids))
	for _, id := range ids {
		if o, ok := rt.outlets[id]; ok {
			targets = append(targets, o)
		}
	}
	rt.mu.Unlock()
	if len(targets) == 0 {
		c.Release()
		return
	}

	// Group matched outlets by the crop they produce. For a grid chunk a
	// rect crop is fully determined by the clipped index range, so outlets
	// whose rects clip identically against this chunk share one crop chunk
	// (the common case when queries tile or repeat regions). Point chunks
	// key by the full rect — filtering is per-point, so only identical
	// rects share.
	type group struct {
		crop *stream.Chunk
		outs []*outlet
	}
	groups := make(map[[4]float64]*group)
	order := make([][4]float64, 0, len(targets))
	for _, o := range targets {
		var key [4]float64
		if c.Kind == stream.KindGrid {
			b := o.op.Region.Bounds()
			c0, r0, c1, r1, ok := c.Grid.Lat.ClipRect(b)
			if !ok {
				// Bounds intersect but no lattice point falls inside: the
				// private operator would emit nothing for this chunk.
				continue
			}
			key = [4]float64{float64(c0), float64(r0), float64(c1), float64(r1)}
		} else {
			b := o.op.Region.Bounds()
			key = [4]float64{b.MinX, b.MinY, b.MaxX, b.MaxY}
		}
		g, ok := groups[key]
		if !ok {
			g = &group{}
			groups[key] = g
			order = append(order, key)
		}
		g.outs = append(g.outs, o)
	}

	for _, key := range order {
		g := groups[key]
		// The crop is computed by the representative outlet's operator —
		// the exact private code path — and is identical for every outlet
		// in the group by the clip-range argument above.
		crop := g.outs[0].op.RestrictChunk(c)
		rt.crops.Add(1)
		rt.cropShares.Add(int64(len(g.outs) - 1))
		if crop == nil {
			continue // nothing survived (non-rect interior, all-NaN rows)
		}
		g.crop = crop
		for i := 1; i < len(g.outs); i++ {
			crop.Retain()
		}
		for _, o := range g.outs {
			o.st.CountIn(c)
			rt.send(ctx, o, g.crop)
		}
	}
	rt.st.CountOut(c)
	c.Release() // the router's own reference to the source chunk
}

// send delivers one chunk reference to an outlet, mirroring
// stream.EmitCounted's guard reference plus the fanout's detach semantics:
// an outlet that detached (or detaches while we block on its full channel)
// is skipped and the undelivered reference released, so a departing query
// never stalls the band's routing.
//
// Draining is split by time: removeOutlet drains what was buffered before
// done closed, and the sender drains anything it deposits after. A send
// racing the close is caught by the re-check that follows every deposit.
func (rt *router) send(ctx context.Context, o *outlet, c *stream.Chunk) {
	// A detached outlet is skipped, not sent to: with both the send and the
	// done arm ready, select would sometimes deposit a chunk nobody reads.
	select {
	case <-o.done:
		c.Release()
		stream.DrainReleasing(o.out)
		return
	default:
	}
	c.Retain() // guard: keep c readable for CountOut after hand-off
	select {
	case o.out <- c:
		o.st.CountOut(c)
		c.Release()
		select {
		case <-o.done:
			stream.DrainReleasing(o.out)
		default:
		}
	case <-o.done:
		c.Release() // the guard
		c.Release() // the undelivered transfer reference
		// The outlet's fanout may already be gone; free buffered residue.
		stream.DrainReleasing(o.out)
	case <-ctx.Done():
		c.Release()
		c.Release()
	}
}

// RouterInfo is one band's routing-stage state for /stats and metrics.
// Counters are cumulative across router generations (a band's router is
// torn down with its last query and rebuilt on the next; teardown folds
// its counters into the manager so totals never go backwards). Live and
// Frontiers describe the currently running router, if any.
type RouterInfo struct {
	Band        string  `json:"band"`
	Live        bool    `json:"live"`
	Frontiers   int     `json:"frontiers"`
	Probes      int64   `json:"probes"`
	Matches     int64   `json:"matches"`
	Crops       int64   `json:"crops"`
	CropShares  int64   `json:"crop_shares"`
	Filtered    int64   `json:"filtered_chunks"`
	PunctFanned int64   `json:"punct_fanned"`
	RouteNanos  int64   `json:"route_nanos"`
	BusySeconds float64 `json:"busy_seconds"`
}

// addCounters folds another generation's counters into ri, leaving the
// identity/liveness fields alone.
func (ri *RouterInfo) addCounters(o RouterInfo) {
	ri.Probes += o.Probes
	ri.Matches += o.Matches
	ri.Crops += o.Crops
	ri.CropShares += o.CropShares
	ri.Filtered += o.Filtered
	ri.PunctFanned += o.PunctFanned
	ri.RouteNanos += o.RouteNanos
	ri.BusySeconds += o.BusySeconds
}

func (rt *router) info() RouterInfo {
	rt.mu.Lock()
	frontiers := len(rt.outlets)
	rt.mu.Unlock()
	return RouterInfo{
		Band:        rt.band,
		Frontiers:   frontiers,
		Probes:      rt.probes.Load(),
		Matches:     rt.matches.Load(),
		Crops:       rt.crops.Load(),
		CropShares:  rt.cropShares.Load(),
		Filtered:    rt.filtered.Load(),
		PunctFanned: rt.punctFanned.Load(),
		RouteNanos:  rt.routeNanos.Load(),
		BusySeconds: rt.st.BusyTime().Seconds(),
	}
}

// acquireRouted builds the node for a cascade-routable crop: instead of a
// private trunk operator scanning the whole band, the node's fanout reads
// an outlet of the band router. The node is signature-keyed like any trunk
// (identical rects still dedup to one node — and then to one outlet), and
// its teardown releases the outlet via srcCancel, tearing the router down
// with the last routed query. Caller holds m.mu.
func (m *Manager) acquireRouted(plan query.Node, sig, band string, region geom.RectRegion, seen map[query.Node]*node) (*node, error) {
	rt, err := m.bandRouter(band)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(m.ctx)
	g := stream.NewGroup(ctx)
	n := &node{sig: sig, label: plan.Label(), refs: 1, group: g, cancel: cancel, routed: true}
	out, st, remove := rt.addOutlet(region)
	n.st = st
	n.srcCancel = remove
	n.fan = stream.NewFanout(g, out)
	if m.trace != nil {
		n.fan.AttachTrace(m.trace, query.ShortSigOf(sig))
	}
	n.stats = subtreeStats(n)
	m.nodes[sig] = n
	m.created++
	seen[plan] = n
	go func() {
		err := g.Wait()
		m.mu.Lock()
		defer m.mu.Unlock()
		n.dead = true
		if m.nodes[n.sig] == n {
			delete(m.nodes, n.sig)
		}
		if stream.IsPanic(err) {
			m.panicked++
		}
	}()
	return n, nil
}
