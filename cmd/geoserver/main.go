// Command geoserver runs the GeoStreams DSMS (the paper's Fig. 3
// architecture) over a simulated GOES-class instrument and serves the
// HTTP query API.
//
// Usage:
//
//	geoserver [-addr :8080] [-goes] [-subsat -75]
//	          [-region "-122,36,-120,38"] [-w 256] [-h 192]
//	          [-sectors 0] [-interval 2s] [-seed 42]
//	          [-max-queries 0] [-drain-timeout 10s]
//	          [-ingest :9090] [-local=false]
//	          [-store-dir /var/lib/geostreams] [-history 4096]
//	          [-trace-sample 64] [-frame-age-slo 0]
//	          [-log-format text|json] [-log-level info] [-debug]
//
// With -sectors 0 the instrument scans forever. -ingest opens a GSP
// listener for remote instrument feeds (cmd/geofeed): each remote band
// mounts as a supervised source, so a network flap shows up as a
// reconnecting hub, not a dead band. -local=false skips the built-in
// simulated imager and serves only wire-fed bands. -max-queries caps
// concurrently registered queries (beyond it POST /queries returns 503
// with a Retry-After hint). On SIGINT/SIGTERM the server drains
// gracefully: registration stops, queued chunks flush to their queries,
// and pipelines get up to -drain-timeout to finish before being
// cancelled. Common subplans of concurrent queries run once on shared
// trunks, and pushed-down rectangular crops route through a per-band
// shared cascade index: each chunk is probed once against every
// registered query rect instead of scanned per query. -trace-sample tunes
// chunk tracing (1 in N data chunks get a full span timeline, visible at GET
// /queries/{id}/trace; punctuation is always traced). -frame-age-slo sets
// an ingest-to-delivery freshness budget: delivered data chunks older
// than it burn the per-query geostreams_frame_age_slo_burn_total counter.
// -store-dir mounts the historical chunk store (§14): every routed chunk
// is sequenced into a per-band on-disk segment log, which is the band's
// whole history (the OS page cache serves recent reads), temporal
// restrictions over the past execute as store scans spliced into live,
// and push subscribers may redial with ?resume=<cursor>. -history sizes
// the in-memory ring in chunks per band. With -history alone (no
// -store-dir) the ring is the history — resume works across its
// retention, nothing survives a restart; with -store-dir the ring only
// takes over after a disk write fails.
// -debug mounts net/http/pprof under /debug/pprof/. Try:
//
//	curl localhost:8080/catalog
//	curl -s localhost:8080/explain --get --data-urlencode \
//	    'q=rselect(ndvi(nir, vis), rect(-121.5, 36.5, -120.5, 37.5))'
//	curl -s localhost:8080/queries -d \
//	    '{"query": "stretch(ndvi(nir, vis), linear, 0, 255)", "colormap": "ndvi"}'
//	curl -s localhost:8080/queries/1/frame -o frame.png
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"geostreams/internal/dsms"
	"geostreams/internal/exec"
	"geostreams/internal/geom"
	"geostreams/internal/obs"
	"geostreams/internal/sat"
	"geostreams/internal/store"
	"geostreams/internal/stream"
)

func parseRegion(s string) (geom.Rect, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return geom.Rect{}, fmt.Errorf("region needs 4 comma-separated numbers, got %q", s)
	}
	var v [4]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return geom.Rect{}, fmt.Errorf("bad region component %q: %v", p, err)
		}
		v[i] = f
	}
	return geom.R(v[0], v[1], v[2], v[3]), nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	useGOES := flag.Bool("goes", false, "scan in GEOS satellite-view coordinates (GOES Variable Format analogue)")
	subsat := flag.Float64("subsat", -75, "sub-satellite longitude for -goes")
	regionStr := flag.String("region", "-122,36,-120,38", "scan region lon0,lat0,lon1,lat1")
	w := flag.Int("w", 256, "sector width (points)")
	h := flag.Int("h", 192, "sector height (points)")
	sectors := flag.Int("sectors", 0, "number of scan sectors (0 = unlimited)")
	interval := flag.Duration("interval", 2*time.Second, "time between scan sectors")
	seed := flag.Int64("seed", 42, "scene seed")
	maxQueries := flag.Int("max-queries", 0,
		"admission limit on concurrently registered queries (0 = unlimited; beyond it POST /queries returns 503)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second,
		"how long graceful shutdown waits for query pipelines to drain before cancelling them")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	debug := flag.Bool("debug", false, "mount net/http/pprof under /debug/pprof/")
	parallelism := flag.Int("parallelism", 0,
		"worker count for data-parallel grid kernels (0 = GOMAXPROCS)")
	ingest := flag.String("ingest", "",
		"GSP ingest listen address for remote instrument feeds (empty = disabled)")
	local := flag.Bool("local", true,
		"run the built-in simulated imager (disable to serve only wire-fed bands)")
	traceSample := flag.Int("trace-sample", 0,
		"chunk-trace sampling interval: 1 in N data chunks (0 = library default; negative disables data tracing)")
	frameAgeSLO := flag.Duration("frame-age-slo", 0,
		"ingest-to-delivery freshness budget; delivered chunks older than this burn the SLO counter (0 = no SLO)")
	storeDir := flag.String("store-dir", "",
		"directory for the historical store's segment logs (empty = no disk tier)")
	authToken := flag.String("auth-token", "",
		"bearer token required on the HTTP API and GSP ingest hellos (empty = auth off)")
	rateLimit := flag.Float64("rate-limit", 0,
		"per-client requests/second on register/poll/subscribe endpoints (0 = off)")
	rateBurst := flag.Float64("rate-limit-burst", 10,
		"per-client burst for -rate-limit")
	history := flag.Int("history", 0,
		"in-memory history ring size in chunks per band: the whole history without -store-dir, the disk-failure fallback with it, where the segment log is the history (0 = store disabled unless -store-dir is set; low values clamp up to the ring floor)")
	flag.Parse()

	if *parallelism > 0 {
		exec.SetParallelism(*parallelism)
	}

	logger := obs.NewCLILogger(*logFormat, *logLevel).With("component", "geoserver")

	fatal := func(format string, args ...any) {
		logger.Error(fmt.Sprintf(format, args...))
		os.Exit(1)
	}

	region, err := parseRegion(*regionStr)
	if err != nil {
		fatal("%v", err)
	}
	nSectors := *sectors
	if nSectors <= 0 {
		nSectors = math.MaxInt32 // effectively unlimited
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The server's own lifetime is NOT bounded by the signal context:
	// shutdown must be graceful (drain, then cancel), so the signal only
	// triggers Shutdown below rather than hard-cancelling every pipeline.
	srv := dsms.NewServer(context.Background())
	srv.SetLogger(logger)
	srv.SetDebug(*debug)
	srv.SetMaxQueries(*maxQueries)
	if *traceSample != 0 {
		srv.SetTraceInterval(*traceSample)
	}
	srv.SetFrameAgeSLO(*frameAgeSLO)
	if *authToken != "" {
		srv.SetAuthToken(*authToken)
		logger.Info("edge auth enabled", "edges", "http,ingest")
	}
	if *rateLimit > 0 {
		srv.SetRateLimit(*rateLimit, *rateBurst)
		logger.Info("rate limiting enabled",
			"rate", *rateLimit, "burst", *rateBurst)
	}
	// The store mounts before any source: AddSource attaches each band's
	// history at mount time, so a band that exists before the store would
	// never be sequenced.
	var hist *store.Store
	if *storeDir != "" || *history > 0 {
		hist, err = store.Open(store.Options{
			Dir:        *storeDir,
			RingChunks: *history,
			Logger:     logger.With("component", "store"),
		})
		if err != nil {
			fatal("historical store: %v", err)
		}
		srv.SetStore(hist)
		logger.Info("historical store mounted",
			"dir", *storeDir, "ring_chunks", *history)
	}
	bands := []string{"vis", "nir", "ir"}
	if *local {
		scene := sat.DefaultScene(*seed)
		var im *sat.Imager
		if *useGOES {
			im, err = sat.NewGOESImager(*subsat, region, *w, *h, scene, bands, nSectors)
		} else {
			im, err = sat.NewLatLonImager(region, *w, *h, scene, bands, stream.RowByRow, nSectors)
		}
		if err != nil {
			fatal("instrument: %v", err)
		}
		im.Interval = *interval
		streams, err := im.Streams(srv.Group())
		if err != nil {
			fatal("%v", err)
		}
		for _, band := range bands {
			if err := srv.AddSource(streams[band]); err != nil {
				fatal("%v", err)
			}
		}
	} else if *ingest == "" {
		fatal("-local=false needs -ingest: the server would have no sources at all")
	}
	if *ingest != "" {
		ln, err := net.Listen("tcp", *ingest)
		if err != nil {
			fatal("ingest listener: %v", err)
		}
		go func() {
			if err := srv.ServeIngest(ln); err != nil {
				logger.Error("ingest listener failed", "error", err.Error())
			}
		}()
	}
	srv.Start()

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	go func() {
		<-ctx.Done()
		logger.Info("shutting down", "drain_timeout", drainTimeout.String())
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		// Drain the DSMS first (stop admitting, flush queued chunks, wait
		// for pipelines), then close the HTTP listener.
		if err := srv.Shutdown(drainCtx); err != nil {
			logger.Warn("drain incomplete, pipelines cancelled", "error", err.Error())
		}
		if hist != nil {
			// After the drain: every routed chunk has been appended, so the
			// close flushes and fsyncs complete segments.
			if err := hist.Close(); err != nil {
				logger.Warn("historical store close", "error", err.Error())
			}
		}
		httpSrv.Shutdown(drainCtx) //nolint:errcheck
	}()

	crs := "latlon"
	if *useGOES {
		crs = fmt.Sprintf("geos:%g", *subsat)
	}
	if *local {
		logger.Info("instrument configured",
			"bands", fmt.Sprintf("%v", bands), "region", region.String(), "crs", crs,
			"sector_w", *w, "sector_h", *h, "interval", interval.String())
	}
	logger.Info("listening", "addr", *addr, "ingest", *ingest, "pprof", *debug)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fatal("%v", err)
	}
}
