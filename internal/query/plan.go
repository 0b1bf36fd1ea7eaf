package query

import (
	"fmt"

	"geostreams/internal/core"
	"geostreams/internal/exec"
	"geostreams/internal/stream"
)

// Build wires a logical plan into a running operator pipeline inside the
// group. `sources` supplies one physical stream per band. Subtrees shared
// between plan branches (same Node pointer — the ndvi macro, merged common
// subexpressions) are built once and teed; bands consumed more than once
// are teed likewise.
//
// It returns the output stream and the Stats instance of every operator in
// the pipeline, for the operator tests and the DSMS status endpoint.
func Build(g *stream.Group, plan Node, sources map[string]*stream.Stream) (*stream.Stream, []*stream.Stats, error) {
	return BuildPartial(g, plan, sources, nil)
}

// BuildPartial is Build for a plan whose lower subtrees are already
// running elsewhere: `premounted` maps plan nodes to live streams (shared
// trunk taps), and the planner wires only the operators above them. It
// never descends below a premounted node — neither to build operators nor
// to demand band sources — so a query fully covered by premounted frontier
// roots passes sources == nil. The stats slice covers only the operators
// built here, in construction (post-)order.
func BuildPartial(g *stream.Group, plan Node, sources map[string]*stream.Stream, premounted map[Node]*stream.Stream) (*stream.Stream, []*stream.Stats, error) {
	p := &planner{
		g:     g,
		refs:  map[Node]int{},
		built: map[Node]*outlet{},
		pre:   premounted,
	}
	p.countRefs(plan, map[Node]bool{})
	p.refs[plan]++

	// Tee every band by the number of distinct Source nodes that read it:
	// a *shared* Source node is constructed once and teed at node level,
	// so it consumes only one copy regardless of its refcount. Sources
	// under premounted subtrees were never ref-counted and need nothing.
	p.sources = map[string]*outlet{}
	needs := map[string]int{}
	for n := range p.refs {
		if _, ok := p.pre[n]; ok {
			continue
		}
		if s, ok := n.(*Source); ok {
			needs[s.Band]++
		}
	}
	for band, need := range needs {
		src, ok := sources[band]
		if !ok {
			return nil, nil, fmt.Errorf("query: no source stream for band %q", band)
		}
		if need == 1 {
			p.sources[band] = &outlet{streams: []*stream.Stream{src}}
		} else {
			p.sources[band] = &outlet{streams: stream.Tee(g, src, need)}
		}
	}

	out, err := p.take(plan)
	if err != nil {
		return nil, nil, err
	}
	return out, p.stats, nil
}

// outlet hands out the teed copies of one built node.
type outlet struct {
	streams []*stream.Stream
	next    int
}

func (o *outlet) take() (*stream.Stream, error) {
	if o.next >= len(o.streams) {
		return nil, fmt.Errorf("query: internal: outlet over-consumed")
	}
	s := o.streams[o.next]
	o.next++
	return s, nil
}

type planner struct {
	g       *stream.Group
	refs    map[Node]int
	built   map[Node]*outlet
	sources map[string]*outlet
	pre     map[Node]*stream.Stream
	stats   []*stream.Stats
}

// countRefs counts how many parents each unique node has. It does not
// descend below premounted nodes: their subtrees run elsewhere.
func (p *planner) countRefs(n Node, seen map[Node]bool) {
	if seen[n] {
		return
	}
	seen[n] = true
	if _, ok := p.pre[n]; ok {
		return
	}
	for _, c := range n.Children() {
		p.refs[c]++
		p.countRefs(c, seen)
	}
}

// take returns one consumable copy of the node's physical stream,
// constructing the operator on first demand.
func (p *planner) take(n Node) (*stream.Stream, error) {
	if o, ok := p.built[n]; ok {
		return o.take()
	}
	out, err := p.construct(n)
	if err != nil {
		return nil, err
	}
	o := &outlet{streams: []*stream.Stream{out}}
	if c := p.refs[n]; c > 1 {
		o = &outlet{streams: stream.Tee(p.g, out, c)}
	}
	p.built[n] = o
	return o.take()
}

// construct builds the physical operator for one plan node: premounted
// nodes hand back their live stream, sources draw from the band outlets,
// and everything else goes through BuildOp over its built inputs.
func (p *planner) construct(n Node) (*stream.Stream, error) {
	if s, ok := p.pre[n]; ok {
		return s, nil
	}
	if t, ok := n.(*Source); ok {
		o, ok := p.sources[t.Band]
		if !ok {
			return nil, fmt.Errorf("query: no source stream for band %q", t.Band)
		}
		return o.take()
	}
	kids := n.Children()
	ins := make([]*stream.Stream, len(kids))
	for i, c := range kids {
		in, err := p.take(c)
		if err != nil {
			return nil, err
		}
		ins[i] = in
	}
	out, st, err := BuildOp(p.g, n, ins)
	if err != nil {
		return nil, err
	}
	p.stats = append(p.stats, st)
	return out, nil
}

// BuildOp wires the physical operator of a single non-source plan node
// onto already-built input streams (one per child, in Children() order),
// returning the output stream and the operator's stats. It is the shared
// construction kernel of the planner and of the shared-trunk DAG in
// internal/share.
func BuildOp(g *stream.Group, n Node, ins []*stream.Stream) (*stream.Stream, *stream.Stats, error) {
	want := len(n.Children())
	if len(ins) != want {
		return nil, nil, fmt.Errorf("query: %s needs %d input stream(s), got %d", n.Label(), want, len(ins))
	}
	switch t := n.(type) {
	case *Source:
		return nil, nil, fmt.Errorf("query: BuildOp cannot build a source node (band %q)", t.Band)
	case *RestrictS:
		return stream.Apply(g, core.SpatialRestrict{Region: t.Region}, ins[0])
	case *RestrictT:
		return stream.Apply(g, core.TemporalRestrict{Times: t.Times}, ins[0])
	case *RestrictV:
		return stream.Apply(g, core.ValueRestrict{Values: t.Set}, ins[0])
	case *MapFn:
		return stream.Apply(g, t.Op, ins[0])
	case *Fused:
		op, err := fusedOp(t)
		if err != nil {
			return nil, nil, err
		}
		exec.CountFusion(len(t.Stages))
		return stream.Apply(g, op, ins[0])
	case *StretchFn:
		return stream.Apply(g, core.Stretch{Kind: t.Kind, OutMin: t.Min, OutMax: t.Max}, ins[0])
	case *Zoom:
		if t.Out {
			return stream.Apply(g, core.ZoomOut{K: t.K}, ins[0])
		}
		return stream.Apply(g, core.ZoomIn{K: t.K}, ins[0])
	case *Reproject:
		// Progressive emission whenever the stream carries the §3.2
		// sector metadata; otherwise the operator must block per sector.
		op := core.NewReproject(ins[0].Info.CRS, t.To, t.Interp, ins[0].Info.HasSectorMeta)
		return stream.Apply(g, op, ins[0])
	case *Rotate:
		if !ins[0].Info.HasSectorMeta {
			return nil, nil, fmt.Errorf("query: rotate needs sector metadata to locate the sector center")
		}
		center := ins[0].Info.SectorGeom.Bounds().Center()
		aff, err := core.NewAffineTransform(
			core.Rotation(t.Degrees*degToRad, center), ins[0].Info.CRS, t.Interp(), true)
		if err != nil {
			return nil, nil, err
		}
		return stream.Apply(g, aff, ins[0])
	case *Filter:
		op, err := filterOp(t)
		if err != nil {
			return nil, nil, err
		}
		return stream.Apply(g, op, ins[0])
	case *ComposeOp:
		return stream.Apply2(g, core.Compose{Gamma: t.Gamma}, ins[0], ins[1])
	case *AggT:
		return stream.Apply(g, &core.TemporalAggregate{Fn: t.Fn, Window: t.Window}, ins[0])
	case *AggR:
		return stream.Apply(g, core.RegionalAggregate{Fn: t.Fn, Region: t.Region}, ins[0])
	}
	return nil, nil, fmt.Errorf("query: cannot build plan node %T", n)
}

// filterOp instantiates the physical operator of a Filter node.
func filterOp(t *Filter) (stream.Operator, error) {
	switch t.Kind {
	case "box":
		return core.NewBoxFilter(t.N)
	case "gauss":
		return core.NewGaussianFilter(t.N, t.Sigma)
	case "gradient":
		return core.Gradient{}, nil
	}
	return nil, fmt.Errorf("query: unknown filter kind %q", t.Kind)
}

const degToRad = 3.14159265358979323846 / 180

// Interp picks the resampling for rotations (always bilinear; rotations
// have no parser-level interp parameter).
func (n *Rotate) Interp() core.InterpKind { return core.Bilinear }
