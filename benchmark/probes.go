package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"syscall"
	"time"

	"geostreams/internal/cascade"
	"geostreams/internal/exec"
	"geostreams/internal/geom"
	"geostreams/internal/query"
	"geostreams/internal/raster"
	"geostreams/internal/share"
	"geostreams/internal/store"
	"geostreams/internal/stream"
	"geostreams/internal/wire"
	"geostreams/internal/ws"
)

// Layer probes: each times calls into one package's public functions on
// the workload's own generated chunks, alone, after the server has exited.
// README.md lists every library function called here; that list is the
// only internal surface the benchmark compiles against besides the client.

// probeReps is how many timed repetitions a probe takes the median of.
const probeReps = 5

// timing is a probe's cost per call: median wall and median CPU
// (RUSAGE_SELF, so work the layer hands to other goroutines is included).
type timing struct{ wall, cpu float64 } // ns

func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // RUSAGE_SELF cannot fail
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure calls fn repeatedly for about budget, in probeReps repetitions of
// at least one call each.
func measure(budget time.Duration, fn func() error) (timing, error) {
	var walls, cpus []float64
	for r := 0; r < probeReps; r++ {
		calls := 0
		c0, t0 := selfCPU(), time.Now()
		for calls == 0 || time.Since(t0) < budget/probeReps {
			if err := fn(); err != nil {
				return timing{}, err
			}
			calls++
		}
		walls = append(walls, float64(time.Since(t0))/float64(calls))
		cpus = append(cpus, float64(selfCPU()-c0)/float64(calls))
	}
	return timing{median(walls), median(cpus)}, nil
}

// layers is what the probes measured, per unit of each layer's own work.
type layers struct {
	encode, decode   timing  // per input point
	wireBytesPerPt   float64 // GSP bytes per input point
	appendT, replay  timing  // per stored point
	storeBytesPerPt  float64 // segment-log bytes per appended point
	cascadeProbe     timing  // per data chunk
	routeNsPerChunk  float64 // the router's own stage timer per probed chunk
	cropsPerChunk    float64
	plan             timing // per query
	operator         timing // per input point, the workload's own chunking
	kernel, kernelP1 timing // per input point, whole-frame chunks
	hopNsPerChunk    float64
	assemble         timing   // per output point
	pngEncode        []timing // per pixel of each watched query's frames
	pngBytesPerPx    []float64
	wsWrite          timing // per byte
	chunksPerCycle   int
	inPtsPerCycle    int
}

// flat concatenates the cycle's chunks of one band, restamped 0..7.
func flat(sectors [][]*stream.Chunk) []*stream.Chunk {
	var all []*stream.Chunk
	for s, cs := range sectors {
		stamp(cs, int64(s), 0)
		all = append(all, cs...)
	}
	return all
}

// runPlan builds plan over the given per-band chunk sequences, drains it,
// and hands each output chunk to sink (which takes the reference).
func runPlan(plan query.Node, in *inputs, src map[string][]*stream.Chunk, sink func(*stream.Chunk)) error {
	g := stream.NewGroup(context.Background())
	sources := map[string]*stream.Stream{}
	for _, b := range bands {
		sources[b] = stream.FromChunks(g, in.infos[b], src[b])
	}
	out, _, err := query.Build(g, plan, sources)
	if err != nil {
		return err
	}
	for c := range out.C {
		sink(c)
	}
	return g.Wait()
}

func compile(text string, catalog map[string]stream.Info) (query.Node, error) {
	p, err := query.Parse(text, map[string]bool{"vis": true, "nir": true})
	if err != nil {
		return nil, err
	}
	if p, err = query.Optimize(p, catalog); err != nil {
		return nil, err
	}
	return query.Fuse(p), nil
}

// replaySub feeds share.Manager trunks from the generated chunks, holding
// every band behind the gate until all plans are mounted.
type replaySub struct {
	in   *inputs
	src  map[string][]*stream.Chunk
	gate chan struct{}
}

func (r *replaySub) Subscribe(band string, g *stream.Group) (*stream.Stream, func(), error) {
	chunks, ok := r.src[band]
	if !ok {
		return nil, nil, fmt.Errorf("unknown band %q", band)
	}
	s := stream.Generate(g, r.in.infos[band], func(ctx context.Context, emit func(*stream.Chunk) bool) error {
		select {
		case <-r.gate:
		case <-ctx.Done():
			return nil
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

// runProbes measures every layer within about total.
func runProbes(w workload, in *inputs, refs []*reference, total time.Duration) (*layers, error) {
	const nProbes = 13
	slice := total / nProbes
	L := &layers{inPtsPerCycle: cycleSectors * in.pointsPerSector(),
		chunksPerCycle: cycleSectors * in.chunksPerSector()}
	inPts := float64(L.inPtsPerCycle)
	per := func(t timing, units float64) timing { return timing{t.wall / units, t.cpu / units} }

	// The cycle in both chunkings: the workload's own, and the other one.
	own, frames, rows := map[string][]*stream.Chunk{}, map[string][]*stream.Chunk{}, map[string][]*stream.Chunk{}
	for _, b := range bands {
		own[b] = flat(in.chunks[b])
		for s, f := range in.frames[b] {
			eos := stream.NewEndOfSector(geom.Timestamp(s), in.sector)
			frames[b] = append(append(frames[b], f), eos)
			rows[b] = append(append(rows[b], splitRows(f)...), eos)
		}
	}
	dataChunks := 0
	for _, c := range own[bands[0]] {
		if c.IsData() {
			dataChunks++
		}
	}

	// wire: Writer.Chunk into a buffer, then Reader.Next + pooled decode.
	var enc bytes.Buffer
	wr := wire.NewWriter(&enc)
	t, err := measure(slice, func() error {
		enc.Reset()
		for _, b := range bands {
			for _, c := range own[b] {
				if err := wr.Chunk(c); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("wire encode: %w", err)
	}
	L.encode, L.wireBytesPerPt = per(t, inPts), float64(enc.Len())/inPts
	encoded := enc.Bytes()
	if t, err = measure(slice, func() error {
		rd := wire.NewReader(bytes.NewReader(encoded))
		for {
			f, err := rd.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			c, err := wire.DecodeChunkPooled(f.Payload)
			if err != nil {
				return err
			}
			c.Release()
		}
	}); err != nil {
		return nil, fmt.Errorf("wire decode: %w", err)
	}
	L.decode = per(t, inPts)

	// store: Band.Append under fresh sector numbers, then Tail(0) drained
	// from a sealed two-cycle history.
	if err := probeStore(in, L, slice); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}

	// cascade: Tree.Probe with every registered rect, one probe per chunk.
	tree := cascade.NewTree()
	for i, q := range w.queries {
		tree.Insert(cascade.QueryID(i+1), q.rect)
	}
	var ids []cascade.QueryID
	if t, err = measure(slice, func() error {
		for _, c := range own[bands[0]] {
			if c.IsData() {
				ids = tree.Probe(c.Bounds(), ids[:0])
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	L.cascadeProbe = per(t, float64(dataChunks))

	// query: Parse + Optimize + Fuse for every registered query.
	if t, err = measure(slice, func() error {
		for _, q := range w.queries {
			if _, err := compile(q.text(), in.infos); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("query plan: %w", err)
	}
	L.plan = per(t, float64(len(w.queries)))

	// share: every query's shareable part mounted on one Manager over a
	// gated replay, outputs drained; the router reports its own stage time.
	var plans []query.Node
	for _, q := range w.queries {
		p, err := compile(q.inner, in.infos)
		if err != nil {
			return nil, err
		}
		plans = append(plans, p)
	}
	if _, err = measure(slice, func() error {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		sub := &replaySub{in: in, src: own, gate: make(chan struct{})}
		m := share.NewManager(ctx, sub)
		var wg sync.WaitGroup
		mounts := make([]*share.Mount, 0, len(plans))
		for _, p := range plans {
			mt, err := m.Acquire(p)
			if err != nil {
				return err
			}
			mounts = append(mounts, mt)
			wg.Add(1)
			go func() {
				defer wg.Done()
				stream.Drain(ctx, mt.Out) //nolint:errcheck // only cancellation, which ends the probe
			}()
		}
		close(sub.gate)
		wg.Wait()
		var probes, crops, nanos int64
		for _, ri := range m.Snapshot().Routers {
			probes, crops, nanos = probes+ri.Probes, crops+ri.Crops, nanos+ri.RouteNanos
		}
		for _, mt := range mounts {
			mt.Release()
		}
		if probes > 0 {
			L.routeNsPerChunk, L.cropsPerChunk = float64(nanos)/float64(probes), float64(crops)/float64(probes)
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("share: %w", err)
	}

	// core: the latency query's optimized fused plan over in-memory
	// streams, on the workload's chunking, on whole frames, and on whole
	// frames with one kernel worker; stream: the per-chunk difference.
	plan, err := compile(w.queries[w.watch[0].query].text(), in.infos)
	if err != nil {
		return nil, err
	}
	release := func(c *stream.Chunk) { c.Release() }
	timePlan := func(src map[string][]*stream.Chunk) (timing, error) {
		t, err := measure(slice, func() error { return runPlan(plan, in, src, release) })
		return per(t, inPts), err
	}
	rowT, err := timePlan(rows)
	if err != nil {
		return nil, fmt.Errorf("core operator: %w", err)
	}
	if L.kernel, err = timePlan(frames); err != nil {
		return nil, fmt.Errorf("core kernel: %w", err)
	}
	exec.SetParallelism(1)
	L.kernelP1, err = timePlan(frames)
	exec.SetParallelism(0)
	if err != nil {
		return nil, fmt.Errorf("core kernel p1: %w", err)
	}
	L.operator = L.kernel
	if w.rowwise {
		L.operator = rowT
	}
	rowChunks := float64(cycleSectors * len(bands) * in.sector.H)
	L.hopNsPerChunk = (rowT.wall - L.kernel.wall) * inPts / rowChunks

	// raster: Assembler.Add over one pass of the plan's output, then
	// EncodePNG of the oracle's frames (the same values).
	var outs []*stream.Chunk
	if err := runPlan(plan, in, own, func(c *stream.Chunk) { outs = append(outs, c) }); err != nil {
		return nil, err
	}
	if t, err = measure(slice, func() error {
		for _, c := range outs {
			c.Retain() // Add consumes one reference; keep ours for the next call
		}
		asm := raster.NewAssembler()
		for _, c := range outs {
			imgs, err := asm.Add(c)
			if err != nil {
				return err
			}
			for _, img := range imgs {
				img.Recycle()
			}
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("raster assemble: %w", err)
	}
	outPts := 0
	for _, c := range outs {
		outPts += c.NumPoints()
	}
	L.assemble = per(t, float64(outPts))
	cm, err := raster.ColormapByName(colormap)
	if err != nil {
		return nil, err
	}
	var pngs [][]byte // the latency query's frames
	for i, ref := range refs {
		if i > 0 && ref == refs[0] {
			L.pngEncode, L.pngBytesPerPx = append(L.pngEncode, L.pngEncode[0]), append(L.pngBytesPerPx, L.pngBytesPerPx[0])
			continue
		}
		enc := make([][]byte, len(ref.images))
		if t, err = measure(slice/time.Duration(len(refs)), func() error {
			for i, img := range ref.images {
				var buf bytes.Buffer
				if err := img.EncodePNG(&buf, cm, ref.vmin, ref.vmax); err != nil {
					return err
				}
				enc[i] = buf.Bytes()
			}
			return nil
		}); err != nil {
			return nil, fmt.Errorf("raster encode: %w", err)
		}
		px, pngBytes := float64(cycleSectors*ref.w*ref.h), 0
		for _, p := range enc {
			pngBytes += len(p)
		}
		L.pngEncode, L.pngBytesPerPx = append(L.pngEncode, per(t, px)), append(L.pngBytesPerPx, float64(pngBytes)/px)
		if i == 0 {
			pngs = enc
		}
	}

	// ws: Conn.WriteBinaryParts to a draining loopback reader.
	if L.wsWrite, err = probeWS(pngs, slice); err != nil {
		return nil, fmt.Errorf("ws write: %w", err)
	}
	wsBytes := len(pngs) * wsFrameHeader
	for _, p := range pngs {
		wsBytes += len(p)
	}
	L.wsWrite = per(L.wsWrite, float64(wsBytes))
	return L, nil
}

func probeStore(in *inputs, L *layers, slice time.Duration) error {
	dir, err := os.MkdirTemp("out", "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	open := func(sub string) (*store.Store, []*store.Band, error) {
		st, err := store.Open(store.Options{Dir: dir + "/" + sub, RingChunks: 4 * in.chunksPerSector()})
		if err != nil {
			return nil, nil, err
		}
		var bs []*store.Band
		for _, b := range bands {
			band, err := st.Band(b)
			if err != nil {
				return nil, nil, err
			}
			bs = append(bs, band)
		}
		return st, bs, nil
	}
	next := int64(0)
	appendCycle := func(bs []*store.Band) {
		for s := 0; s < cycleSectors; s++ {
			for bi, b := range bands {
				stamp(in.chunks[b][s], next, 0)
				for _, c := range in.chunks[b][s] {
					bs[bi].Append(c)
				}
			}
			next++
		}
	}
	st, bs, err := open("append")
	if err != nil {
		return err
	}
	t, err := measure(slice, func() error { appendCycle(bs); return nil })
	if err != nil {
		return err
	}
	var disk int64
	for _, b := range bs {
		disk += b.Snapshot().DiskBytes
	}
	inPts := float64(L.inPtsPerCycle)
	L.appendT = timing{t.wall / inPts, t.cpu / inPts}
	L.storeBytesPerPt = float64(disk) / (float64(next) * float64(in.pointsPerSector()))
	if err := st.Close(); err != nil {
		return err
	}

	st, bs, err = open("replay")
	if err != nil {
		return err
	}
	defer st.Close()
	next = 0
	appendCycle(bs)
	appendCycle(bs)
	for _, b := range bs {
		b.SealLive()
	}
	var pts int64
	t, err = measure(slice, func() error {
		pts = 0
		for _, b := range bs {
			tail := b.Tail(0)
			for it := range tail.C() {
				pts += int64(it.C.NumPoints())
				it.C.Release()
			}
			if err := tail.Err(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if pts != 2*int64(L.inPtsPerCycle) {
		return fmt.Errorf("replayed %d points of %d stored", pts, 2*L.inPtsPerCycle)
	}
	L.replay = timing{t.wall / float64(pts), t.cpu / float64(pts)}
	return nil
}

// probeWS times the server side of a WebSocket writing the PNG frames to a
// loopback client that reads and discards them.
func probeWS(pngs [][]byte, slice time.Duration) (timing, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return timing{}, err
	}
	conns := make(chan *ws.Conn, 1)
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := ws.Upgrade(w, r)
		if err != nil {
			return
		}
		conns <- c
	})}
	go srv.Serve(ln) //nolint:errcheck // returns when srv closes below
	defer srv.Close()
	client, err := ws.Dial("ws://"+ln.Addr().String()+"/", nil, 5*time.Second)
	if err != nil {
		return timing{}, err
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			if _, _, err := client.ReadMessage(); err != nil {
				return
			}
		}
	}()
	c := <-conns
	var hdr [wsFrameHeader]byte
	t, err := measure(slice, func() error {
		for _, p := range pngs {
			if err := c.WriteBinaryParts(time.Now().Add(5*time.Second), hdr[:], p); err != nil {
				return err
			}
		}
		return nil
	})
	c.Close()
	<-drained
	client.Close()
	return t, err
}
