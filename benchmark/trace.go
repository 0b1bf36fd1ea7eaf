package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// traceBlock is how many consecutive sectors share one tracing state in a
// traced run: blocks alternate between spans on and off, so both halves
// see the same server load and their latency difference is the tracing
// overhead.
const traceBlock = 16

// tracedRun is the --trace 1 run: one paced phase over half the time with
// client spans on every other block, the server's counters, then the layer
// probes and the CPU budget over the other half.
func tracedRun(e *env, genNsPerPt float64) (*result, error) {
	w := e.w
	tr := &tracer{t0: time.Now()}
	n := int(0.5 * e.cfg.seconds.Seconds() * e.w.rate)
	cpu0, err := e.srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	e.feed.blocked = 0
	p, err := e.paced(n, func(i int) {
		if i%traceBlock == 0 {
			if (i/traceBlock)%2 == 0 {
				e.setTracer(tr)
			} else {
				e.setTracer(nil)
			}
		}
		if i == n/2 && e.rep != nil {
			close(e.rep.resume)
		}
	})
	if err != nil {
		return nil, err
	}
	wall := time.Since(p.start)
	blocked := e.feed.blocked
	lagP95, _, err := e.validate(e.lagMs(p), p)
	if err != nil {
		return nil, err
	}
	cpu1, err := e.srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	frames, shed, encErr := e.renderOnce()
	if encErr != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, encErr)
	}
	counters, err := e.counters()
	if err != nil {
		return nil, err
	}
	e.close()

	res := &result{Metrics: map[string]metric{}}
	res.Attempted, res.Failed, _, _ = e.score(p)
	replayed := 0
	if e.rep != nil {
		att, fail := e.rep.check()
		res.Attempted, res.Failed = res.Attempted+att, res.Failed+fail
		replayed = len(e.rep.sectors)
	}
	res.Correct = res.Failed == 0 && encErr == nil

	// Root and server spans need both sides' records, so they are added
	// here; the traced and untraced latencies split by block.
	var onMs, offMs, readMs []float64
	v := e.viewers[0]
	for s := p.first; s <= p.last; s++ {
		rec, ok := v.recs[s]
		if !ok || !rec.ok {
			continue
		}
		sent := e.feed.sent[s]
		lat := float64(rec.last.Sub(sent.due)) / 1e6
		if rec.first.IsZero() || rec.checked.IsZero() {
			offMs = append(offMs, lat)
			continue
		}
		onMs = append(onMs, lat)
		readMs = append(readMs, float64(rec.last.Sub(rec.first))/1e6)
		tr.add("sector", s, "", sent.due, rec.checked)
		tr.add("server", s, "sector", sent.end, rec.first)
	}
	if err := writeSpans(w.name, tr); err != nil {
		return nil, err
	}

	L, err := runProbes(w, e.in, e.refs, e.cfg.seconds/2)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}

	m := res.Metrics
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	set("sat.gen_ns_per_pt", genNsPerPt, "ns/pt")
	set("wire.encode_ns_per_pt", L.encode.wall, "ns/pt")
	set("wire.bytes_per_pt", L.wireBytesPerPt, "B/pt")
	set("wire.decode_ns_per_pt", L.decode.wall, "ns/pt")
	set("wire.decode_ns_per_chunk", L.decode.wall*float64(L.inPtsPerCycle)/float64(L.chunksPerCycle), "ns/chunk")
	set("store.append_ns_per_pt", L.appendT.wall, "ns/pt")
	set("store.bytes_per_pt", L.storeBytesPerPt, "B/pt")
	set("store.replay_ns_per_pt", L.replay.wall, "ns/pt")
	set("store.replay_mpts_s", 0, "Mpts/s")
	if e.rep != nil && !e.rep.caughtUp.IsZero() {
		set("store.replay_mpts_s", e.rep.mptsPerSec(), "Mpts/s")
	}
	set("cascade.probe_ns_per_chunk", L.cascadeProbe.wall, "ns/chunk")
	set("share.route_ns_per_chunk", L.routeNsPerChunk, "ns/chunk")
	set("share.crops_per_chunk", L.cropsPerChunk, "count")
	set("query.plan_us", L.plan.wall/1e3, "us")
	set("core.operator_ns_per_pt", L.operator.wall, "ns/pt")
	set("core.kernel_ns_per_pt", L.kernel.wall, "ns/pt")
	set("core.kernel_p1_ns_per_pt", L.kernelP1.wall, "ns/pt")
	set("stream.hop_ns_per_chunk", L.hopNsPerChunk, "ns/chunk")
	set("raster.assemble_ns_per_pt", L.assemble.wall, "ns/pt")
	set("raster.encode_ns_per_px", L.pngEncode[0].wall, "ns/px")
	set("raster.png_bytes_per_px", L.pngBytesPerPx[0], "B/px")
	set("ws.write_ns_per_byte", L.wsWrite.wall, "ns/B")
	for name, c := range counters {
		m[name] = c
	}
	set("dsms.frames_encoded", float64(frames), "count")
	set("dsms.frames_shed", float64(shed), "count")
	set("feed.lag_p95_ms", lagP95, "ms")
	set("feed.write_blocked_share", blocked.Seconds()/wall.Seconds(), "ratio")
	set("viewer.read_ms_p50", median(readMs), "ms")
	set("trace.overhead_share", median(onMs)/median(offMs)-1, "ratio")

	// The budget: each layer's probed CPU per unit of its own work, scaled
	// to units of that work per input point on this workload, against the
	// server's measured CPU per input point.
	sectors := float64(len(e.feed.sent))
	inPts := float64(e.in.pointsPerSector())
	sectorPx := float64(e.in.sector.NumPoints()) // every frame spans the whole sector
	// Per sector: the points every query's crop keeps, the PNG encode time
	// of every query's frame (taken from the watched query whose crop is
	// nearest in size), and the bytes pushed to WebSocket viewers.
	var cropPts, encodeNs, wsBytes float64
	watched := make([]float64, len(w.watch)) // crop points of each watched query
	for i, wt := range w.watch {
		watched[i] = float64(e.cropPoints(w.queries[wt.query]))
		if wt.kind == viewWS {
			wsBytes += sectorPx*L.pngBytesPerPx[i] + wsFrameHeader
		}
	}
	for _, q := range w.queries {
		n := float64(e.cropPoints(q))
		cropPts += n
		near := 0
		for i := range watched {
			if math.Abs(watched[i]-n) < math.Abs(watched[near]-n) {
				near = i
			}
		}
		encodeNs += L.pngEncode[near].cpu * sectorPx
	}
	latencyPts := watched[0]
	type row struct {
		layer string
		ns    float64
	}
	rows := []row{
		{"wire.decode", L.decode.cpu},
		{"share.route", L.routeNsPerChunk * float64(e.in.chunksPerSector()) / inPts},
		// One query's operators cost in proportion to its output; sharing
		// makes the server's real cost on multiquery-64 lower than this.
		{"core.operator", L.operator.cpu * cropPts / latencyPts},
		{"raster.assemble", L.assemble.cpu * cropPts / inPts},
		{"raster.encode", encodeNs / inPts},
		{"ws.write", L.wsWrite.wall * wsBytes / inPts},
	}
	if w.store {
		rows = append(rows,
			row{"store.append", L.appendT.cpu},
			row{"store.replay", L.replay.cpu * float64(replayed) / sectors})
	}
	budget := (cpu1 - cpu0) * 1e9 / (sectors * inPts)
	attributed := 0.0
	tw := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "%s budget\tCPU ns/input pt\tshare\t\n", w.name)
	for _, r := range rows {
		attributed += r.ns
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f%%\t\n", r.layer, r.ns, 100*r.ns/budget)
	}
	fmt.Fprintf(tw, "unattributed\t%.1f\t%.1f%%\t\n", budget-attributed, 100*(1-attributed/budget))
	fmt.Fprintf(tw, "server\t%.1f\t100.0%%\t\n", budget)
	tw.Flush()
	set("budget.cpu_ns_per_pt", budget, "ns/pt")
	set("budget.attributed_share", attributed/budget, "ratio")
	set("budget.unattributed_share", 1-attributed/budget, "ratio")
	for name, mv := range m {
		if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, mv.Value)
		}
	}
	return res, nil
}

// writeSpans writes the run's spans to out/trace-<workload>.json.
func writeSpans(name string, tr *tracer) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	b, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile("out/trace-"+name+".json", b, 0o644)
}

// counters scrapes the server's own counts: /stats for ingest, hub, router
// and store, /metrics for the buffer pool.
func (e *env) counters() (map[string]metric, error) {
	st, err := e.client.Stats()
	if err != nil {
		return nil, err
	}
	if st.Ingest == nil {
		return nil, fmt.Errorf("/stats has no ingest section")
	}
	var hubShed, cropShares, evicted int64
	for _, h := range st.Hubs {
		hubShed += h.Dropped
	}
	if st.Shared != nil {
		for _, r := range st.Shared.Routers {
			cropShares += r.CropShares
		}
	}
	for _, b := range st.Store {
		evicted += b.Evicted
	}
	text, err := e.client.Metrics()
	if err != nil {
		return nil, err
	}
	pool := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if name, val, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, "geostreams_exec_pool_") {
			pool[name], _ = strconv.ParseFloat(val, 64)
		}
	}
	hits, misses := pool["geostreams_exec_pool_hits_total"], pool["geostreams_exec_pool_misses_total"]
	if hits+misses == 0 {
		return nil, fmt.Errorf("/metrics has no geostreams_exec_pool_ counters")
	}
	return map[string]metric{
		"dsms.ingest_chunks":   {float64(st.Ingest.Chunks), "count"},
		"dsms.hub_shed_chunks": {float64(hubShed), "count"},
		"share.crop_shares":    {float64(cropShares), "count"},
		"store.evicted_chunks": {float64(evicted), "count"},
		"exec.pool_miss_share": {misses / (hits + misses), "ratio"},
	}, nil
}

// declared is the part of BENCHMARK.json the A/A table and the self-test
// read: the names, units and bounds the benchmark is held to.
type declared struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared() (*declared, error) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var d declared
	return &d, json.Unmarshal(raw, &d)
}

// runAA runs n full sets — every workload once per set — back to back on
// the same build and prints, per workload and end-to-end metric, every
// set's value, the largest relative difference from the first set, and the
// bound BENCHMARK.json fixes. It exits non-zero when a difference exceeds
// its bound.
func runAA(ws []workload, seed int64, cfg config, n int) int {
	decl, err := readDeclared()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	code := 0
	runs := make([][]*result, len(ws)) // workload → set
	for set := 0; set < n; set++ {
		for i, w := range ws {
			res, err := runWorkload(w, seed, cfg, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
				return 1
			}
			if !res.Correct {
				code = 1
			}
			runs[i] = append(runs[i], res)
		}
	}
	fmt.Println("| workload | metric | values | max rel. diff | bound |")
	fmt.Println("|---|---|---|---|---|")
	for i, w := range ws {
		for _, m := range decl.EndToEnd {
			var vals []string
			worst := 0.0
			for _, r := range runs[i] {
				v := r.Metrics[m.Name].Value
				vals = append(vals, fmt.Sprintf("%.4g", v))
				worst = math.Max(worst, math.Abs(v/runs[i][0].Metrics[m.Name].Value-1))
			}
			fmt.Printf("| %s | %s (%s) | %s | %.1f %% | %.0f %% |\n",
				w.name, m.Name, m.Unit, strings.Join(vals, ", "), 100*worst, 100*m.Bound)
			if worst > m.Bound {
				code = 1
			}
		}
	}
	return code
}
