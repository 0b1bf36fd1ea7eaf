// Package share implements shared multi-query execution: the common-subplan
// deduplication layer between query registration and the operator pipelines.
//
// After Optimize and Fuse, every plan node canonicalizes to a structural
// signature (query.Signature). The Manager keeps one running trunk per
// distinct signature: when a new query mounts a plan whose prefix is already
// running, the prefix executes once per chunk and fans out through
// ref-counted taps (stream.Fanout) instead of being rebuilt. A subscriber
// detaching — deregistration, cancellation, or a panic in its private
// suffix — closes its tap without disturbing the trunk or its other
// dependents; conversely a trunk panic unwinds its own node group, closes
// every downstream tap, and lets each dependent query end through the
// normal end-of-stream path (the PR 3 isolation contract).
//
// Sharing is restricted to plans query.Shareable admits: per-query product
// state (stretch fit windows) and heavy per-query aggregation state never
// run on a trunk, so co-mounted queries cannot observe each other through
// shared state — equivalence is purely algebraic and bit-exact, which the
// harness in this package verifies against private execution.
package share

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"geostreams/internal/obs/trace"
	"geostreams/internal/query"
	"geostreams/internal/stream"
)

// Subscriber provides band source streams for trunks. Subscribe returns the
// live stream, feeding it from goroutines in g, plus a cancel function that
// stops the feed and lets the stream end. The DSMS backs this with its
// ingest hub; tests and benchmarks use chunk replays.
type Subscriber interface {
	Subscribe(band string, g *stream.Group) (*stream.Stream, func(), error)
}

// Manager owns the shared-trunk DAG: one node per distinct plan signature,
// ref-counted by the mounts (and parent nodes) that consume it.
type Manager struct {
	ctx context.Context
	sub Subscriber

	mu    sync.Mutex
	nodes map[string]*node

	// routers hold the per-band shared spatial-restriction stage (router.go):
	// cascade-routable crop nodes read router outlets instead of running a
	// private scan of the band.
	routers map[string]*router
	// routerHist accumulates counters of torn-down router generations per
	// band, so /stats and metrics totals stay monotonic across the
	// last-query-leaves / next-query-rebuilds cycle.
	routerHist map[string]RouterInfo

	created  int64 // trunks built
	reused   int64 // acquisitions satisfied by a running trunk
	panicked int64 // trunks torn down by an operator panic

	// trace, when set, is attached to every trunk's operator stats and
	// fanout as it is built, so shared-stage spans land in one ring owned
	// by the manager's host rather than in whichever query mounted first.
	trace *trace.Recorder
}

// NewManager creates a manager whose trunks all descend from ctx: cancelling
// it unwinds every trunk.
func NewManager(ctx context.Context, sub Subscriber) *Manager {
	return &Manager{ctx: ctx, sub: sub, nodes: map[string]*node{},
		routers: map[string]*router{}, routerHist: map[string]RouterInfo{}}
}

// SetTrace wires the span recorder trunks attach as they are built. Trunks
// already running keep whatever recorder they claimed first (the attach is
// once per stats); call this before the first Acquire for full coverage.
func (m *Manager) SetTrace(r *trace.Recorder) {
	m.mu.Lock()
	m.trace = r
	m.mu.Unlock()
}

// node is one running shared operator (or band source) plus its fan-out.
type node struct {
	sig    string
	label  string
	refs   int  // mounts + parent nodes holding this node
	dead   bool // group ended (panic or end of input); no longer reusable
	routed bool // fed by a band router outlet, not a private operator

	group  *stream.Group
	cancel context.CancelFunc
	fan    *stream.Fanout
	st     *stream.Stats // nil for band sources

	children  []*node
	childTaps []*stream.Tap
	srcCancel func() // band sources: stop the subscription feed

	// stats is the post-order stats of this node's subtree (children before
	// self, sources contributing none, duplicates once) — the same order
	// query.Build reports for an equivalent private pipeline.
	stats []*stream.Stats
}

// Mount is one query's attachment to a shared trunk.
type Mount struct {
	// Sig is the canonical signature of the mounted subtree, Short its
	// display digest.
	Sig   string
	Short string
	// Out delivers the trunk's output chunks to this subscriber only.
	Out *stream.Stream
	// Stats covers the shared operators below this mount in Build order.
	Stats []*stream.Stats
	// Reused reports whether the acquisition attached to an already-running
	// trunk rather than building one.
	Reused bool

	m    *Manager
	root *node
	tap  *stream.Tap
	once sync.Once
}

// Release detaches the mount: its tap closes immediately (the trunk skips
// this subscriber from the next chunk on) and the trunk itself tears down
// when its last reference goes. Safe to call more than once.
func (mt *Mount) Release() {
	mt.once.Do(func() {
		mt.tap.Close()
		mt.m.mu.Lock()
		defer mt.m.mu.Unlock()
		mt.m.release(mt.root)
	})
}

// Acquire mounts a fully shareable plan onto the trunk DAG, creating the
// nodes that are not yet running and attaching to those that are. The plan
// must satisfy query.Shareable at every node — pass the subtrees
// query.ShareFrontier reports, not arbitrary plans.
func (m *Manager) Acquire(plan query.Node) (*Mount, error) {
	if err := checkShareable(plan); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	rootNode, rootRunning := m.nodes[query.Signature(plan)]
	reused := rootRunning && !rootNode.dead
	root, err := m.acquire(plan, map[query.Node]*node{})
	if err != nil {
		return nil, err
	}
	tap := root.fan.AddTap()
	root.fan.Start()
	return &Mount{
		Sig:    root.sig,
		Short:  query.ShortSigOf(root.sig),
		Out:    tap.Stream(),
		Stats:  root.stats,
		Reused: reused,
		m:      m,
		root:   root,
		tap:    tap,
	}, nil
}

func checkShareable(plan query.Node) error {
	if !query.Shareable(plan) {
		return fmt.Errorf("share: %s is not shareable", plan.Label())
	}
	for _, c := range plan.Children() {
		if err := checkShareable(c); err != nil {
			return err
		}
	}
	return nil
}

// acquire returns the running node for a plan subtree, building it (and
// recursively its children) when no trunk with its signature exists. Caller
// holds m.mu. Every call hands back one counted reference — one ref per
// plan edge, matching release, which drops one per child entry. `seen`
// resolves pointer-shared plan subtrees within one call without counting
// them as cross-query trunk reuse.
func (m *Manager) acquire(plan query.Node, seen map[query.Node]*node) (*node, error) {
	if n, ok := seen[plan]; ok {
		n.refs++
		return n, nil
	}
	sig := query.Signature(plan)
	if n, ok := m.nodes[sig]; ok && !n.dead {
		n.refs++
		m.reused++
		seen[plan] = n
		return n, nil
	}
	if band, region, ok := query.CascadeRoutable(plan); ok {
		return m.acquireRouted(plan, sig, band, region, seen)
	}

	ctx, cancel := context.WithCancel(m.ctx)
	g := stream.NewGroup(ctx)
	n := &node{sig: sig, label: plan.Label(), refs: 1, group: g, cancel: cancel}

	fail := func(err error) (*node, error) {
		for _, t := range n.childTaps {
			t.Close()
		}
		for _, c := range n.children {
			m.release(c)
		}
		cancel()
		return nil, err
	}

	var out *stream.Stream
	if src, ok := plan.(*query.Source); ok {
		s, stop, err := m.sub.Subscribe(src.Band, g)
		if err != nil {
			return fail(err)
		}
		out = s
		n.srcCancel = stop
	} else {
		kids := plan.Children()
		ins := make([]*stream.Stream, len(kids))
		for i, c := range kids {
			// A pointer-shared child reached twice feeds this node through
			// two independent taps and two references: the operator consumes
			// each input stream separately, exactly like Build's tees.
			cn, err := m.acquire(c, seen)
			if err != nil {
				return fail(err)
			}
			n.children = append(n.children, cn)
			tap := cn.fan.AddTap()
			n.childTaps = append(n.childTaps, tap)
			ins[i] = tap.Stream()
		}
		// Start the children only once every tap of this node is attached:
		// a pointer-shared child feeds two of them and both must see its
		// first chunk. Starting an already running trunk is a no-op.
		for _, cn := range n.children {
			cn.fan.Start()
		}
		o, st, err := query.BuildOp(g, plan, ins)
		if err != nil {
			return fail(err)
		}
		out = o
		n.st = st
	}
	n.fan = stream.NewFanout(g, out)
	if m.trace != nil {
		// Claim the trunk's spans for the shared ring before any query's
		// recorder can: operator spans from the trunk stats and fanout
		// spans labelled with the trunk's short signature.
		if n.st != nil {
			n.st.AttachTrace(m.trace)
		}
		n.fan.AttachTrace(m.trace, query.ShortSigOf(sig))
	}
	n.stats = subtreeStats(n)
	m.nodes[sig] = n
	m.created++
	seen[plan] = n

	// The watcher retires the node when its group ends — end of input or an
	// operator panic. Downstream taps are already closed by the fanout;
	// dependents end through normal end-of-stream. The node leaves the map
	// so later acquisitions build a fresh trunk instead of attaching to a
	// dead one; held references still release through the usual path.
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

// subtreeStats assembles post-order stats for a freshly built node: child
// subtrees first (each distinct node once), then the node's own operator.
func subtreeStats(n *node) []*stream.Stats {
	var out []*stream.Stats
	seen := map[*node]bool{}
	var walk func(*node)
	walk = func(n *node) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, c := range n.children {
			walk(c)
		}
		if n.st != nil {
			out = append(out, n.st)
		}
	}
	walk(n)
	return out
}

// release drops one reference; at zero the node tears down: detach from its
// children, stop its source feed, cancel its group, and release the
// children in turn. Caller holds m.mu.
func (m *Manager) release(n *node) {
	n.refs--
	if n.refs > 0 {
		return
	}
	if m.nodes[n.sig] == n {
		delete(m.nodes, n.sig)
	}
	for _, t := range n.childTaps {
		t.Close()
	}
	if n.srcCancel != nil {
		n.srcCancel()
	}
	n.cancel()
	for _, c := range n.children {
		m.release(c)
	}
}

// Lookup reports the reference count of the trunk running a signature, and
// whether one is running at all.
func (m *Manager) Lookup(sig string) (refs int, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.nodes[sig]
	if !ok || n.dead {
		return 0, false
	}
	return n.refs, true
}

// TrunkInfo describes one running trunk for status surfaces.
type TrunkInfo struct {
	Sig       string `json:"sig"`
	Short     string `json:"short"`
	Label     string `json:"label"`
	Refs      int    `json:"refs"`
	Taps      int    `json:"taps"`
	Delivered int64  `json:"delivered_chunks"`
	// Routed marks crop nodes fed by a band router outlet (the shared
	// cascade stage) rather than a private operator.
	Routed bool `json:"routed,omitempty"`
}

// Snapshot is the manager's state for /stats and the metrics endpoint.
type Snapshot struct {
	Trunks   []TrunkInfo  `json:"trunks"`
	Created  int64        `json:"trunks_created"`
	Reused   int64        `json:"trunks_reused"`
	Panicked int64        `json:"trunks_panicked"`
	Routers  []RouterInfo `json:"routers,omitempty"`
}

// Snapshot captures the current trunk set, sorted by signature for stable
// rendering.
func (m *Manager) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{Created: m.created, Reused: m.reused, Panicked: m.panicked}
	for _, n := range m.nodes {
		s.Trunks = append(s.Trunks, TrunkInfo{
			Sig:       n.sig,
			Short:     query.ShortSigOf(n.sig),
			Label:     n.label,
			Refs:      n.refs,
			Taps:      n.fan.TapCount(),
			Delivered: n.fan.Delivered(),
			Routed:    n.routed,
		})
	}
	sort.Slice(s.Trunks, func(i, j int) bool { return s.Trunks[i].Sig < s.Trunks[j].Sig })
	// One entry per band that ever had a router: the live router's state
	// (if running) plus the accumulated counters of torn-down generations.
	bands := map[string]RouterInfo{}
	for band, hist := range m.routerHist {
		bands[band] = hist
	}
	for band, rt := range m.routers {
		ri := rt.info()
		ri.Live = true
		ri.addCounters(bands[band])
		bands[band] = ri
	}
	for _, ri := range bands {
		s.Routers = append(s.Routers, ri)
	}
	sort.Slice(s.Routers, func(i, j int) bool { return s.Routers[i].Band < s.Routers[j].Band })
	return s
}
