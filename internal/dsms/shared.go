package dsms

import (
	"context"
	"fmt"

	"geostreams/internal/query"
	"geostreams/internal/share"
	"geostreams/internal/stream"
)

// hubSubscriber adapts the ingest hubs to share.Subscriber: each band trunk
// (or band router) subscribes once and receives every chunk of the band.
// Spatial restriction happens in the trunk DAG — the band router crops
// chunks for the registered rects, and any other rselect in a shared
// prefix filters bit-exactly — not at the hub.
type hubSubscriber struct{ s *Server }

func (hs hubSubscriber) Subscribe(band string, _ *stream.Group) (*stream.Stream, func(), error) {
	s := hs.s
	s.mu.Lock()
	h, ok := s.hubs[band]
	if !ok {
		s.mu.Unlock()
		return nil, nil, fmt.Errorf("dsms: no source for band %q", band)
	}
	id, st := h.subscribe()
	s.mu.Unlock()
	return st, func() { h.unsubscribe(id) }, nil
}

// buildShared wires one query the shared way: acquire a mount per shareable
// frontier subtree, then build only the private suffix operators on top of
// the mounted streams. Every band source lies inside some frontier subtree
// (sources are shareable leaves), so the query makes no private hub
// subscriptions at all. Returns the output stream, the merged stats, the
// mounted trunk digests, and the detach that releases every mount.
func (s *Server) buildShared(qg *stream.Group, plan query.Node) (*stream.Stream, []*stream.Stats, []string, func(), error) {
	roots := query.ShareFrontier(plan)
	mounts := make(map[query.Node]*share.Mount, len(roots))
	release := func() {
		for _, mt := range mounts {
			mt.Release()
		}
		// Releasing a mount detaches its tap but leaves the tap channel open
		// (the trunk keeps feeding its other subscribers), so the private
		// suffix and delivery stage reading it would block forever. Cancel
		// the query group to unwind them; a no-op when the group already
		// finished (the post-Wait detach).
		qg.Cancel()
	}
	sigs := make([]string, 0, len(roots))
	pre := make(map[query.Node]*stream.Stream, len(roots))
	for _, root := range roots {
		mt, err := s.sharing.Acquire(root)
		if err != nil {
			release()
			return nil, nil, nil, nil, err
		}
		mounts[root] = mt
		sigs = append(sigs, mt.Short)
		pre[root] = guardMount(qg, mt.Out)
	}
	out, suffix, err := query.BuildPartial(qg, plan, nil, pre)
	if err != nil {
		release()
		return nil, nil, nil, nil, err
	}
	return out, mergeShareStats(plan, mounts, suffix), sigs, release, nil
}

// guardMount interposes a cancellation-aware pass-through between a trunk
// tap and the private suffix. A private pipeline's operators may block in
// a bare receive on their input because cancellation always closes the
// channel chain from the source down; a released mount breaks that
// invariant — its tap detaches but the channel stays open (the trunk
// keeps feeding other subscribers), so a suffix operator reading it
// directly would hang past Deregister on a live source. The guard closes
// its downstream channel when the query group cancels, restoring the
// invariant.
func guardMount(qg *stream.Group, in *stream.Stream) *stream.Stream {
	out := make(chan *stream.Chunk, stream.DefaultBuffer)
	inC := in.C
	qg.Go(func(ctx context.Context) error {
		defer close(out)
		for {
			select {
			case c, ok := <-inC:
				if !ok {
					return nil
				}
				if err := stream.Send(ctx, out, c); err != nil {
					c.Release()
					return nil
				}
			case <-ctx.Done():
				return nil
			}
		}
	})
	return &stream.Stream{Info: in.Info, C: out}
}

// mergeShareStats interleaves trunk stats and private-suffix stats into the
// post-order query.Build would have produced for a fully private pipeline,
// so ExplainObserved's node pairing keeps working on shared queries. Mount
// stats follow the trunk's node graph, which dedups structurally equal
// subtrees the plan holds as distinct pointers; in that rare shape the
// pairing degrades gracefully (trailing operators lose their observed
// columns) rather than misreporting.
func mergeShareStats(plan query.Node, mounts map[query.Node]*share.Mount, suffix []*stream.Stats) []*stream.Stats {
	var out []*stream.Stats
	seen := map[query.Node]bool{}
	si := 0
	var walk func(n query.Node)
	walk = func(n query.Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		if mt, ok := mounts[n]; ok {
			out = append(out, mt.Stats...)
			return
		}
		for _, c := range n.Children() {
			walk(c)
		}
		if _, isSource := n.(*query.Source); isSource {
			return
		}
		if si < len(suffix) {
			out = append(out, suffix[si])
			si++
		}
	}
	walk(plan)
	return out
}

// shareAnnotator returns the ExplainAnnotated hook marking every operator
// that would run on (or below) a shared trunk with the digest of the trunk
// it mounts under. Frontier roots the manager hands to the band router
// (cascade-routable crops) additionally carry a [cascade] tag: that
// subtree executes as a registered rect in the shared spatial-restriction
// index, not as a private band scan.
func shareAnnotator(plan query.Node) func(query.Node) string {
	tags := map[query.Node]string{}
	for _, root := range query.ShareFrontier(plan) {
		short := query.ShortSig(root)
		var mark func(query.Node)
		mark = func(n query.Node) {
			if _, ok := tags[n]; ok {
				return
			}
			tags[n] = "[shared " + short + "]"
			// Trunk acquisition recurses child-first, so any
			// cascade-routable node inside the shared subtree — not just
			// the frontier root — executes as a registered rect in the
			// band router instead of a private scan.
			if _, _, ok := query.CascadeRoutable(n); ok {
				tags[n] += " [cascade]"
			}
			for _, c := range n.Children() {
				mark(c)
			}
		}
		mark(root)
	}
	return func(n query.Node) string { return tags[n] }
}
