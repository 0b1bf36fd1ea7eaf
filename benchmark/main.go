// Command benchmark is the repo's benchmark spine: it runs the geoserver
// built from this checkout as a child process, drives it only through its
// sockets — GSP ingest, HTTP registration, WebSocket, long-poll and GSP
// delivery — and reports socket-to-socket frame latency, throughput and
// the server's CPU per input point on four workloads. A traced run adds
// client-side spans and single-layer probes that split the server's CPU
// per point by package. README.md defines every metric and workload.
//
// It is run through run.sh, which builds both binaries:
//
//	bash benchmark/run.sh --workload ndvi-row --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"geostreams/internal/dsms"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is the scale of a run.
type config struct {
	seconds time.Duration // measured time, split over the phases
	setups  int           // set-up repetitions; setup_s is their median
}

// rounds is how many times an untraced run alternates a paced and a
// closed-loop stretch.
const rounds = 4

// errInvalid marks a run whose load generator could not hold its schedule
// or whose backlog was still growing: it has no numbers to report.
var errInvalid = errors.New("invalid run")

func main() {
	name := flag.String("workload", "", "workload to run (empty: all four in turn)")
	seed := flag.Int64("seed", 1, "scene seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "seconds of measurement per workload")
	trace := flag.Int("trace", 0, "1: traced run with client spans and layer probes, printing the per-layer metrics")
	quick := flag.Bool("quick", false, "self-test scale: 64x48 sectors at 20/s, one set-up")
	aa := flag.Int("aa", 0, "run every workload this many times on the same build and print an A/A table")
	flag.Parse()

	cfg := config{seconds: time.Duration(*seconds) * time.Second, setups: 7}
	if *quick {
		cfg.setups = 1
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killServer()
		os.Exit(130)
	}()
	os.Exit(run(*name, *seed, cfg, *quick, *trace == 1, *aa))
}

// run returns the process exit code. The server is killed on every path
// out of it, a panic on this goroutine included.
func run(name string, seed int64, cfg config, quick, traced bool, aa int) int {
	defer killServer()
	var ws []workload
	for _, w := range workloads() {
		if quick {
			w.w, w.h, w.rate = 64, 48, 20
		}
		if name == "" || name == w.name {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", name)
		return 2
	}
	if aa > 0 {
		return runAA(ws, seed, cfg, aa)
	}
	code := 0
	for _, w := range ws {
		res, err := runWorkload(w, seed, cfg, traced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// env is one set-up: inputs, oracle references, the server and every
// load-side connection.
type env struct {
	w       workload
	cfg     config
	in      *inputs
	refs    []*reference // one per watch entry
	srv     *server
	client  *dsms.Client
	feed    *feeder
	viewers []*viewer
	rep     *replayer
}

// setup generates the inputs, computes the reference digests, boots the
// server, announces both bands, registers the queries and attaches the
// viewers.
func setup(w workload, seed int64, cfg config, keepImages bool) (_ *env, err error) {
	e := &env{w: w, cfg: cfg}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if e.in, err = generate(seed, w.w, w.h, w.rowwise); err != nil {
		return nil, err
	}
	byQuery := map[int]*reference{}
	for _, wt := range w.watch {
		if byQuery[wt.query] == nil {
			if byQuery[wt.query], err = referenceFrames(e.in, w.queries[wt.query].text(), keepImages); err != nil {
				return nil, fmt.Errorf("oracle: %w", err)
			}
		}
		e.refs = append(e.refs, byQuery[wt.query])
	}
	history := 0
	if w.store {
		// About four seconds of chunks per band in the ring; older history
		// is served from the segment log.
		history = int(4 * e.w.rate * float64(len(e.in.chunks[bands[0]][0])))
	}
	if e.srv, err = startServer(history); err != nil {
		return nil, err
	}
	e.client = dsms.NewClient("http://" + e.srv.httpAddr)
	if e.feed, err = dialFeeds(e.srv.ingest, e.in); err != nil {
		return nil, err
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		cat, err := e.client.Catalog()
		if err != nil {
			return nil, err
		}
		if len(cat) == len(bands) {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("server mounted %d of %d bands", len(cat), len(bands))
		}
	}
	ids := make([]int64, len(w.queries))
	for i, q := range w.queries {
		info, err := e.client.Register(q.text(), colormap)
		if err != nil {
			return nil, fmt.Errorf("register %q: %w", q.text(), err)
		}
		ids[i] = int64(info.ID)
	}
	for i, wt := range w.watch {
		v := newViewer(e.refs[i])
		e.viewers = append(e.viewers, v)
		switch wt.kind {
		case viewWS:
			if err := watchWS(e.srv.httpAddr, ids[wt.query], v); err != nil {
				close(v.done) // no reader was started
				return nil, fmt.Errorf("attach viewer: %w", err)
			}
		case viewPoll:
			watchPoll(e.client, ids[wt.query], v)
		}
	}
	if w.store {
		if e.rep, err = startReplayer(e.client, ids[w.watch[0].query], e.viewers[0], e.cropPoints(w.queries[w.watch[0].query])); err != nil {
			return nil, fmt.Errorf("attach cursor subscription: %w", err)
		}
	}
	return e, nil
}

// cropPoints is how many lattice points of a sector a query's rect keeps:
// the data points of one sector of its output.
func (e *env) cropPoints(q querySpec) int {
	c0, r0, c1, r1, _ := e.in.sector.ClipRect(q.rect)
	return (c1 - c0) * (r1 - r0)
}

// close kills the server, which ends every reader goroutine, and waits
// for them.
func (e *env) close() {
	if e.srv != nil {
		e.srv.stop()
	}
	if e.feed != nil {
		e.feed.close()
	}
	for _, v := range e.viewers {
		<-v.done
	}
	if e.rep != nil {
		<-e.rep.done
	}
}

// setTracer switches span recording on the feeder and every viewer.
func (e *env) setTracer(tr *tracer) {
	e.feed.tr = tr
	for _, v := range e.viewers {
		v.tr.Store(tr)
	}
}

// phase is one measured stretch of sectors.
type phase struct {
	first, last int64 // sector numbers, inclusive
	start       time.Time
	backlog     []int // paced: sectors sent minus frames received, at each send
	skipped     int   // paced: slots the generator slept through
}

// drain waits until every viewer has the phase's last sector or the
// latency limit has passed since it was sent.
func (e *env) drain(p *phase) {
	deadline := e.feed.sent[p.last].end.Add(latencyLimit)
	for _, v := range e.viewers {
		v.waitSector(p.last, deadline)
	}
}

// paced is the open-loop phase: n sectors due on a fixed schedule, each
// written as one burst when due, however far behind the server is.
// before(i), when set, runs ahead of slot i. A slot the generator itself
// slept through by more than a whole interval — it was idle, not held up
// by the previous send — is skipped rather than sent late in a burst: a
// frozen load generator must not look like an overloaded server.
func (e *env) paced(n int, before func(i int)) (*phase, error) {
	interval := time.Duration(float64(time.Second) / e.w.rate)
	p := &phase{first: int64(len(e.feed.sent)), start: time.Now().Add(10 * time.Millisecond)}
	idleSince := time.Now()
	for i := 0; i < n; i++ {
		if before != nil {
			before(i)
		}
		due := p.start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		if idleSince.Before(due) && time.Since(due) > interval {
			p.skipped++
			continue
		}
		sent := int64(len(e.feed.sent)) - p.first
		p.backlog = append(p.backlog, int(sent-(e.viewers[0].maxSector.Load()-p.first+1)))
		if err := e.feed.send(due); err != nil {
			return nil, err
		}
		idleSince = time.Now()
	}
	p.last = int64(len(e.feed.sent)) - 1
	e.drain(p)
	return p, nil
}

// closed is the capacity probe: at most two sectors in flight — sector n
// is sent once frame n-2 has arrived at every viewer — which saturates the
// server below the hub's four-sector shed budget.
func (e *env) closed(d time.Duration) (*phase, error) {
	p := &phase{first: int64(len(e.feed.sent)), start: time.Now()}
	for end := p.start.Add(d); time.Now().Before(end); {
		n := int64(len(e.feed.sent))
		if n-2 >= p.first {
			// A frame that never comes costs the latency limit, then the
			// loop moves on and the frame counts as failed.
			for _, v := range e.viewers {
				v.waitSector(n-2, e.feed.sent[n-2].end.Add(latencyLimit))
			}
		}
		if err := e.feed.send(time.Now()); err != nil {
			return nil, err
		}
	}
	p.last = int64(len(e.feed.sent)) - 1
	e.drain(p)
	return p, nil
}

// score checks every due frame of every viewer in the phase. A frame that
// is missing, duplicated, late or whose PNG digest differs from the
// oracle's fails. It returns the latencies (ms from due to last byte) of
// the first viewer's good frames and when its last good frame arrived.
func (e *env) score(p *phase) (attempted, failed int, latMs []float64, lastGood time.Time) {
	for vi, v := range e.viewers {
		v.mu.Lock()
		for s := p.first; s <= p.last; s++ {
			attempted++
			rec, ok := v.recs[s]
			lat := rec.last.Sub(e.feed.sent[s].due)
			if !ok || !rec.ok || lat > latencyLimit {
				failed++
				if failed <= 3 {
					fmt.Fprintf(os.Stderr, "%s: viewer %d sector %d failed: received=%v digest-ok=%v latency=%v\n",
						e.w.name, vi, s, ok, rec.ok, lat)
				}
				continue
			}
			if vi == 0 {
				latMs = append(latMs, float64(lat)/1e6)
				if rec.last.After(lastGood) {
					lastGood = rec.last
				}
			}
		}
		v.mu.Unlock()
	}
	return attempted, failed, latMs, lastGood
}

// lagMs is how late the generator started each sector of the phase.
func (e *env) lagMs(p *phase) []float64 {
	lag := make([]float64, 0, p.last-p.first+1)
	for s := p.first; s <= p.last; s++ {
		lag = append(lag, float64(e.feed.sent[s].start.Sub(e.feed.sent[s].due))/1e6)
	}
	return lag
}

// validate rejects paced samples the generator could not drive on
// schedule: the p95 of how late it started a sector exceeds a tenth of the
// sector interval, it skipped more than one slot in twenty, or in some
// paced stretch the backlog (sectors sent minus frames received) was still
// growing — its mean over the last third exceeds the middle third's by
// more than two sectors. It returns the lag p95 in ms and the slots
// skipped.
func (e *env) validate(lagMs []float64, paced ...*phase) (float64, int, error) {
	intervalMs := 1e3 / e.w.rate
	p95 := quantile(lagMs, 0.95)
	if p95 > intervalMs/10 {
		return 0, 0, fmt.Errorf("%w: generator lag p95 %.2f ms exceeds 10%% of the %.1f ms sector interval",
			errInvalid, p95, intervalMs)
	}
	skipped := 0
	for _, p := range paced {
		skipped += p.skipped
	}
	if 20*skipped > len(lagMs) {
		return 0, 0, fmt.Errorf("%w: generator slept through %d slots beside %d sent", errInvalid, skipped, len(lagMs))
	}
	for _, p := range paced {
		third := len(p.backlog) / 3
		if mid, late := mean(p.backlog[third:2*third]), mean(p.backlog[2*third:]); late > mid+2 {
			return 0, 0, fmt.Errorf("%w: paced backlog still growing (%.1f then %.1f sectors)", errInvalid, mid, late)
		}
	}
	return p95, skipped, nil
}

func mean(xs []int) float64 {
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

// quantile is the exact q-quantile of the raw samples (nearest rank).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// renderOnce checks that the server encoded exactly one frame per query
// and sector, however many viewers read it, and returns the delivery
// stage's frame and shed counts over every query. Queries nobody watches
// may still be encoding the last sector, so it polls briefly.
func (e *env) renderOnce() (frames, shed int64, err error) {
	want := int64(len(e.feed.sent) * len(e.w.queries))
	for deadline := time.Now().Add(latencyLimit); ; time.Sleep(5 * time.Millisecond) {
		qs, err := e.client.Queries()
		if err != nil {
			return 0, 0, err
		}
		frames, shed = 0, 0
		for _, q := range qs {
			if q.Delivery != nil {
				frames += q.Delivery.Frames
				shed += q.Delivery.ShedFrames
			}
		}
		if frames == want {
			return frames, shed, nil
		}
		if time.Now().After(deadline) {
			return frames, shed, fmt.Errorf("server encoded %d frames for %d published", frames, want)
		}
	}
}

// runWorkload is one benchmark run of one workload.
func runWorkload(w workload, seed int64, cfg config, traced bool) (*result, error) {
	var e *env
	var setups []float64
	var gen []float64
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			e.close()
		}
		start := time.Now()
		var err error
		if e, err = setup(w, seed, cfg, traced); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		gen = append(gen, float64(e.in.genTime.Nanoseconds())/float64(cycleSectors*e.in.pointsPerSector()))
	}
	defer e.close()
	if traced {
		return tracedRun(e, median(gen))
	}

	cpu0, err := e.srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	// 55 % of the time paced, 40 % closed-loop, the rest drain — in
	// alternating rounds, so both phases sample the whole run: this host's
	// speed drifts in episodes of several seconds, and a metric taken in one
	// contiguous stretch would carry whichever episode it met.
	nPaced := int(0.55 * cfg.seconds.Seconds() * e.w.rate / rounds)
	var lag, lat []float64
	var paced []*phase
	var closedSectors, closedGood int
	var closedWall time.Duration
	res := &result{Metrics: map[string]metric{}}
	for r := 0; r < rounds; r++ {
		pp, err := e.paced(nPaced, func(i int) {
			if r == rounds/2 && i == 0 && e.rep != nil {
				close(e.rep.resume)
			}
		})
		if err != nil {
			return nil, err
		}
		paced = append(paced, pp)
		lag = append(lag, e.lagMs(pp)...)
		att, fail, plat, _ := e.score(pp)
		lat = append(lat, plat...)
		cp, err := e.closed(time.Duration(0.40 * float64(cfg.seconds) / rounds))
		if err != nil {
			return nil, err
		}
		catt, cfail, clat, lastGood := e.score(cp)
		if len(plat) == 0 || len(clat) == 0 {
			return nil, errors.New("no frame was delivered correctly and on time")
		}
		res.Attempted, res.Failed = res.Attempted+att+catt, res.Failed+fail+cfail
		closedSectors += int(cp.last - cp.first + 1)
		closedGood += len(clat)
		closedWall += lastGood.Sub(cp.start)
	}
	cpu1, err := e.srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	lagP95, skipped, err := e.validate(lag, paced...)
	if err != nil {
		return nil, err
	}
	_, _, encErr := e.renderOnce()
	e.close()

	if e.rep != nil {
		ratt, rfail := e.rep.check()
		res.Attempted, res.Failed = res.Attempted+ratt, res.Failed+rfail
		if e.rep.err != nil && e.rep.caughtUp.IsZero() {
			fmt.Fprintf(os.Stderr, "%s: replay subscriber: %v\n", w.name, e.rep.err)
		}
	}
	if encErr != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, encErr)
	}
	res.Correct = res.Failed == 0 && encErr == nil
	points := float64(len(e.feed.sent) * e.in.pointsPerSector())
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["frame_latency_p50_ms"] = metric{quantile(lat, 0.5), "ms"}
	res.Metrics["frame_latency_p95_ms"] = metric{quantile(lat, 0.95), "ms"}
	res.Metrics["throughput_mpts_s"] = metric{
		float64(closedGood*e.in.pointsPerSector()) / closedWall.Seconds() / 1e6, "Mpts/s"}
	res.Metrics["cpu_s_per_gpt"] = metric{(cpu1 - cpu0) / points * 1e9, "s/Gpt"}
	res.Metrics["peak_rss_mb"] = metric{float64(e.srv.maxRSSKB) / 1024, "MB"}
	fmt.Fprintf(os.Stderr, "%s: seed %d, %dx%d, %d rounds, paced %d sectors at %.0f/s (%d latency samples, generator lag p95 %.2f ms, %d slots skipped), closed %d sectors, failed %d of %d\n",
		w.name, seed, e.w.w, e.w.h, rounds, len(lag), e.w.rate, len(lat), lagP95, skipped, closedSectors, res.Failed, res.Attempted)
	if e.rep != nil && !e.rep.caughtUp.IsZero() {
		fmt.Fprintf(os.Stderr, "%s: replayed %d sectors, %.2f Mpts/s to the live edge\n", w.name, len(e.rep.sectors), e.rep.mptsPerSec())
	}
	return res, nil
}
