package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"time"

	"geostreams/internal/exec"
	"geostreams/internal/geom"
	"geostreams/internal/query"
	"geostreams/internal/raster"
	"geostreams/internal/sat"
	"geostreams/internal/stream"
)

// region is the geographic window every workload scans, and bands the two
// feeds every workload sends (GSP carries one band per connection).
var (
	region = geom.R(-122, 36, -120, 38)
	bands  = []string{"vis", "nir"}
)

// cycleSectors is how many distinct sectors set-up generates; the feeder
// replays them in a cycle under fresh sector timestamps.
const cycleSectors = 8

// colormap is the palette of every registered query.
const colormap = "ndvi"

// viewerKind is the socket a viewer reads frames from.
type viewerKind int

const (
	viewWS   viewerKind = iota // GET /queries/{id}/ws push
	viewPoll                   // GET /queries/{id}/frame?cursor= long-poll
)

// watch is one viewer: which registered query it reads, and how.
type watch struct {
	query int
	kind  viewerKind
}

// querySpec is one registered query: a stretched NDVI product over rect
// (the whole region for a full-sector query). inner is its shareable part,
// the plan below the per-query stretch.
type querySpec struct {
	inner string
	rect  geom.Rect
}

// text is the query as registered.
func (q querySpec) text() string { return "stretch(" + q.inner + ", linear, 0, 255)" }

// workload is one traffic mix. The first entry of watch is the viewer the
// latency and closed-loop flow control are taken on.
type workload struct {
	name    string
	w, h    int         // sector size in points
	rowwise bool        // one-row chunks (GOES-shaped) instead of one chunk per sector
	queries []querySpec // registered in order
	watch   []watch
	store   bool    // -store-dir/-history plus the resume subscriber
	rate    float64 // paced sectors/s; see README "Rates" for the calibration
}

// ndviCrop is the canonical product: NDVI over a rectangle.
func ndviCrop(r geom.Rect) querySpec {
	return querySpec{fmt.Sprintf("rselect(ndvi(nir, vis), rect(%g, %g, %g, %g))",
		r.MinX, r.MinY, r.MaxX, r.MaxY), r}
}

// centralCrop is the central 70 % of the region.
func centralCrop() querySpec {
	dx, dy := 0.15*region.Width(), 0.15*region.Height()
	return ndviCrop(geom.R(region.MinX+dx, region.MinY+dy, region.MaxX-dx, region.MaxY-dy))
}

// multiQueries is the 64-query mix: 48 crops tiling the region 8×6, then
// 16 full-sector NDVI queries that differ only in spacing, so they parse
// to one plan signature and share one trunk.
func multiQueries() []querySpec {
	var qs []querySpec
	tw, th := region.Width()/8, region.Height()/6
	for j := 0; j < 6; j++ {
		for i := 0; i < 8; i++ {
			x0, y0 := region.MinX+float64(i)*tw, region.MinY+float64(j)*th
			qs = append(qs, ndviCrop(geom.R(x0, y0, x0+tw, y0+th)))
		}
	}
	for k := 0; k < 16; k++ {
		qs = append(qs, querySpec{fmt.Sprintf("ndvi(%snir, vis)", strings.Repeat(" ", k)), region})
	}
	return qs
}

// workloads lists the fixed traffic mixes; BENCHMARK.json names the same
// four. Rates are sectors/s at the sector size given.
func workloads() []workload {
	return []workload{
		{name: "ndvi-row", w: 256, h: 192, rowwise: true, queries: []querySpec{centralCrop()},
			watch: []watch{{0, viewWS}}, rate: 20},
		{name: "ndvi-image", w: 256, h: 192, queries: []querySpec{centralCrop()},
			watch: []watch{{0, viewWS}, {0, viewPoll}}, rate: 24},
		{name: "multiquery-64", w: 64, h: 48, rowwise: true, queries: multiQueries(),
			watch: []watch{{48, viewWS}, {27, viewWS}}, rate: 20},
		{name: "history-replay", w: 256, h: 192, rowwise: true, queries: []querySpec{centralCrop()},
			watch: []watch{{0, viewWS}}, store: true, rate: 20},
	}
}

// inputs is what set-up generates from the seed: per band and cycle
// sector, the chunks the feeder writes (data chunks then end-of-sector).
type inputs struct {
	sector  geom.Lattice
	infos   map[string]stream.Info
	chunks  map[string][][]*stream.Chunk // band → cycle sector → chunks
	frames  map[string][]*stream.Chunk   // band → cycle sector → whole-frame chunk
	genTime time.Duration                // Imager.Streams drained
}

// pointsPerSector is the input points of one sector over all bands.
func (in *inputs) pointsPerSector() int { return len(bands) * in.sector.NumPoints() }

// chunksPerSector is the data chunks of one sector over all bands.
func (in *inputs) chunksPerSector() int {
	return len(bands) * (len(in.chunks[bands[0]][0]) - 1)
}

// generate renders the cycle from sat.DefaultScene(seed). The imager scans
// image-by-image; a row-wise workload feeds the same values split into the
// one-row chunks a row-by-row imager emits.
func generate(seed int64, w, h int, rowwise bool) (*inputs, error) {
	im, err := sat.NewLatLonImager(region, w, h, sat.DefaultScene(seed), bands, stream.ImageByImage, cycleSectors)
	if err != nil {
		return nil, err
	}
	in := &inputs{
		sector: im.Sector,
		infos:  map[string]stream.Info{},
		chunks: map[string][][]*stream.Chunk{},
		frames: map[string][]*stream.Chunk{},
	}
	start := time.Now()
	g := stream.NewGroup(context.Background())
	streams, err := im.Streams(g)
	if err != nil {
		return nil, err
	}
	// One collector per band: each producer blocks on its own channel.
	collected := make([][]*stream.Chunk, len(bands))
	for i, b := range bands {
		s := streams[b]
		g.Go(func(ctx context.Context) error {
			cs, err := stream.Collect(ctx, s)
			collected[i] = cs
			return err
		})
	}
	if err := g.Wait(); err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	in.genTime = time.Since(start)
	for i, band := range im.Bands {
		info := im.Info(band)
		if rowwise {
			info.Org = stream.RowByRow
		}
		in.infos[bands[i]] = info
	}
	for i, b := range bands {
		for _, c := range collected[i] {
			if !c.IsData() {
				continue
			}
			in.frames[b] = append(in.frames[b], c)
			var cs []*stream.Chunk
			if rowwise {
				cs = splitRows(c)
			} else {
				cs = []*stream.Chunk{c}
			}
			in.chunks[b] = append(in.chunks[b], append(cs, stream.NewEndOfSector(c.T, im.Sector)))
		}
		if len(in.chunks[b]) != cycleSectors {
			return nil, fmt.Errorf("generate: band %s has %d sectors, want %d", b, len(in.chunks[b]), cycleSectors)
		}
	}
	return in, nil
}

// splitRows cuts a whole-frame chunk into one-row chunks sharing its
// value buffer — the chunks a RowByRow imager emits for the same sector.
func splitRows(c *stream.Chunk) []*stream.Chunk {
	lat := c.Grid.Lat
	rows := make([]*stream.Chunk, lat.H)
	for r := range rows {
		rows[r] = &stream.Chunk{Kind: stream.KindGrid, T: c.T, Grid: &stream.GridPatch{
			Lat: lat.Rows(r, r+1), Vals: c.Grid.Vals[r*lat.W : (r+1)*lat.W],
		}}
	}
	return rows
}

// stamp rewrites the sector timestamp of one cycle sector's chunks, so the
// cycle can be replayed as sector n.
func stamp(chunks []*stream.Chunk, sector int64, ingest int64) {
	for _, c := range chunks {
		c.T = geom.Timestamp(sector)
		c.Ingest = ingest
		if c.Sector != nil {
			c.Sector.T = c.T
		}
	}
}

// reference is the oracle's product for one watched query: a PNG digest
// per cycle sector and the frame geometry.
type reference struct {
	digests    [cycleSectors][sha256.Size]byte
	w, h       int
	vmin, vmax float64         // render range: the output stream's nominal range
	images     []*raster.Image // kept for the raster probes on traced runs
}

// referenceFrames runs the query on the scalar, unfused, unshared,
// parallelism-1 library path — Parse → Build without Optimize or Fuse →
// Assembler → EncodePNG — the oracle side of the repo's equivalence suites.
// keepImages retains the assembled frames for the raster probes.
func referenceFrames(in *inputs, text string, keepImages bool) (*reference, error) {
	exec.SetParallelism(1)
	defer exec.SetParallelism(0)
	plan, err := query.Parse(text, map[string]bool{"vis": true, "nir": true})
	if err != nil {
		return nil, err
	}
	g := stream.NewGroup(context.Background())
	sources := map[string]*stream.Stream{}
	for _, b := range bands {
		var all []*stream.Chunk
		for s, cs := range in.chunks[b] {
			stamp(cs, int64(s), 0)
			all = append(all, cs...)
		}
		sources[b] = stream.FromChunks(g, in.infos[b], all)
	}
	out, _, err := query.Build(g, plan, sources)
	if err != nil {
		return nil, err
	}
	cm, err := raster.ColormapByName(colormap)
	if err != nil {
		return nil, err
	}
	ref := &reference{vmin: out.Info.VMin, vmax: out.Info.VMax}
	asm := raster.NewAssembler()
	var buf bytes.Buffer
	n := 0
	for c := range out.C {
		imgs, err := asm.Add(c)
		if err != nil {
			return nil, err
		}
		for _, img := range imgs {
			if n == cycleSectors {
				return nil, fmt.Errorf("oracle: more than %d frames", cycleSectors)
			}
			buf.Reset()
			if err := img.EncodePNG(&buf, cm, ref.vmin, ref.vmax); err != nil {
				return nil, err
			}
			ref.digests[n] = sha256.Sum256(buf.Bytes())
			ref.w, ref.h = img.Lat.W, img.Lat.H
			if keepImages {
				ref.images = append(ref.images, img)
			}
			n++
		}
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	if n != cycleSectors {
		return nil, fmt.Errorf("oracle: %d frames, want %d", n, cycleSectors)
	}
	return ref, nil
}
