package dsms

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"geostreams/internal/cascade"
	"geostreams/internal/exec"
	"geostreams/internal/obs"
	"geostreams/internal/obs/trace"
	"geostreams/internal/query"
	"geostreams/internal/ratelimit"
	"geostreams/internal/share"
	"geostreams/internal/store"
	"geostreams/internal/stream"
)

// ErrDraining is returned by Register once Shutdown has begun: the server
// finishes the queries it has but admits no new ones.
var ErrDraining = errors.New("dsms: server is draining")

// ErrTooManyQueries is returned (wrapped) by Register when the -max-queries
// admission limit is reached; the HTTP layer maps it to 503 + Retry-After.
var ErrTooManyQueries = errors.New("dsms: too many queries")

// ErrSourceFinished is returned (possibly wrapped) by a
// SourceSpec.Reconnect factory to signal that the source ended cleanly
// and will never come back — the supervisor declares the band dead at
// once instead of burning the retry budget. The wire ingest layer uses
// it when a feed says bye (a finished instrument) rather than dropping
// the connection (a flap).
var ErrSourceFinished = errors.New("dsms: source finished")

// Server is the DSMS of Fig. 3. Instrument band streams are attached with
// AddSource; continuous queries register against them, are optimized, and
// run until deregistered; results are delivered through per-query frame
// queues (PNG for raster outputs, JSON for time-series outputs) served by
// the HTTP layer in http.go.
type Server struct {
	ctx    context.Context
	cancel context.CancelFunc
	g      *stream.Group

	mu      sync.Mutex
	catalog map[string]stream.Info
	hubs    map[string]*hub
	queries map[cascade.QueryID]*Registered
	// products indexes the live joinable products by productKey: a
	// registration whose key is here becomes a handle on that product.
	products map[string]*product
	nextID   cascade.QueryID
	closed   bool
	draining bool
	// maxQueries caps concurrently registered queries (0 = unlimited);
	// pending counts Register calls past admission but not yet in queries,
	// so concurrent registrations cannot oversubscribe the cap.
	maxQueries int
	pending    int

	// start gates source consumption: hubs do not drain their instrument
	// streams until Start is called, so initial queries can register
	// before the first scan sector flows.
	start     chan struct{}
	startOnce sync.Once

	// drain tells source supervisors to stop consuming and finish their
	// hubs so queued chunks flush to subscribers; closed by Shutdown.
	drain     chan struct{}
	drainOnce sync.Once

	// Fault-tolerance telemetry: query pipelines terminated by a recovered
	// operator panic, and registrations rejected by admission control.
	panics   atomic.Int64
	rejected atomic.Int64

	// encoded totals the encode work of every product since start.
	encoded encodeCounts

	// hist, when non-nil, is the tiered historical chunk store: every hub
	// mounts its band at AddSource time and durably sequences each routed
	// chunk, temporal restrictions over the past execute as store scans
	// spliced into live, and push subscribers can resume from a cursor.
	// Set with SetStore before AddSource; nil keeps the server live-only.
	hist *store.Store

	// sharing is the shared-trunk DAG every live query mounts onto instead
	// of building private duplicates of common subplans. Created in
	// NewServer; never nil.
	sharing *share.Manager

	// pipelineWrap, when non-nil, interposes on every query pipeline's
	// output stream inside the query group — the fault-injection seam the
	// chaos tests use to place a panicking or lossy stage mid-pipeline.
	pipelineWrap func(g *stream.Group, out *stream.Stream) *stream.Stream

	// Edge hardening (DESIGN.md §15): authToken, when non-empty, guards
	// the HTTP API (bearer auth, /healthz exempt) and the GSP ingest
	// hello; limiter, when non-nil, token-buckets register/poll/subscribe
	// per client IP; the counters split auth refusals by edge. wsStats
	// carries the WebSocket delivery hub's counters and wsPingEvery
	// overrides its ping cadence (tests; 0 = default).
	authToken          string
	limiter            *ratelimit.Limiter
	authRejectedHTTP   atomic.Int64
	authRejectedIngest atomic.Int64
	wsStats            wsHubStats
	wsPingEvery        time.Duration

	// Observability: registry backing GET /metrics, lifecycle logger
	// (nil-safe), pprof gate, and the uptime epoch.
	registry *obs.Registry
	log      *obs.Logger
	debug    bool
	started  time.Time

	// tracer is the always-on chunk tracing layer (see internal/obs/trace):
	// head-based sampling at the hub and wire-ingest edges, span rings per
	// query plus a shared ring for the pre-query stages. Created in
	// NewServer; never nil.
	tracer *trace.Tracer

	// frameAgeSLO is the hub→delivery freshness budget in nanoseconds
	// (0 = no SLO): a delivered data chunk older than the budget burns the
	// query's SLO counter. healthz counts GET /healthz probes.
	frameAgeSLO atomic.Int64
	healthz     *obs.Counter

	// wire is the GSP ingest listener state (see ingest.go); zero until
	// ServeIngest runs.
	wire wireIngest
}

// NewServer creates a DSMS whose lifetime is bounded by ctx. Attach
// sources with AddSource, register initial queries, then call Start.
func NewServer(ctx context.Context) *Server {
	ctx, cancel := context.WithCancel(ctx)
	s := &Server{
		ctx:      ctx,
		cancel:   cancel,
		g:        stream.NewGroup(ctx),
		catalog:  make(map[string]stream.Info),
		hubs:     make(map[string]*hub),
		queries:  make(map[cascade.QueryID]*Registered),
		products: make(map[string]*product),
		start:    make(chan struct{}),
		drain:    make(chan struct{}),
		started:  time.Now(),
	}
	s.registry = obs.NewRegistry()
	s.registry.Register(obs.CollectorFunc(s.Collect))
	s.registry.Register(obs.NewGoCollector())
	s.registry.Register(exec.Collector())
	s.tracer = trace.New(trace.DefaultInterval, trace.DefaultRingSpans)
	s.registry.Register(obs.CollectorFunc(s.tracer.Collect))
	s.healthz = s.registry.Counter("geostreams_healthz_checks_total",
		"GET /healthz probes answered (any status).")
	s.sharing = share.NewManager(ctx, hubSubscriber{s})
	// Trunk operator and fanout spans belong to the shared ring: a trunk
	// serves many queries, so no single query's ring may claim its spans.
	s.sharing.SetTrace(s.tracer.Shared())
	return s
}

// SetTraceInterval tunes the tracer's head-based sampling: one traced data
// chunk per n ingested per band (punctuation is always traced); n <= 0
// disables data sampling. The default is trace.DefaultInterval.
func (s *Server) SetTraceInterval(n int) { s.tracer.SetInterval(n) }

// SetFrameAgeSLO sets the hub→delivery freshness budget: a delivered data
// chunk whose ingest stamp is older than d burns the owning query's SLO
// counter (geostreams_frame_age_slo_burn_total). d <= 0 disables the SLO.
func (s *Server) SetFrameAgeSLO(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.frameAgeSLO.Store(int64(d))
}

// SetLogger attaches a structured logger for pipeline lifecycle events
// (query registered/started/failed/cancelled, sector routing, slow-consumer
// sheds). Call before AddSource so hubs inherit it; a nil logger (the
// default) discards everything.
func (s *Server) SetLogger(l *obs.Logger) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log = l
}

// SetDebug toggles mounting of net/http/pprof under /debug/pprof/ in
// Handler. Off by default; call before Handler.
func (s *Server) SetDebug(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.debug = on
}

// SetMaxQueries caps the number of concurrently registered queries;
// 0 (the default) means unlimited. Register beyond the cap fails with
// ErrTooManyQueries, which POST /queries maps to 503 + Retry-After.
func (s *Server) SetMaxQueries(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maxQueries = n
}

// SetStore mounts a historical chunk store. Every band attached after
// this call sequences its routed chunks through the store (an on-disk
// segment log, or a bounded delta-encoded ring when memory-only); plans
// with temporal restrictions over the past execute as store scans spliced
// into live delivery; push subscribers gain ?cursors=1/?resume=<cursor>
// on GET /queries/{id}/stream. Call before AddSource — bands attached
// earlier stay live-only.
func (s *Server) SetStore(st *store.Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hist = st
}

func (s *Server) histStore() *store.Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hist
}

func (s *Server) logger() *obs.Logger {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log
}

// Start releases the hubs to consume their instrument streams.
func (s *Server) Start() {
	s.startOnce.Do(func() {
		s.logger().Info("server started", "bands", len(s.Catalog()))
		close(s.start)
	})
}

// Group exposes the server's pipeline group so source generators can run
// inside it.
func (s *Server) Group() *stream.Group { return s.g }

// RetryPolicy is the supervised-source backoff schedule: exponential from
// Base to Max with multiplicative jitter, at most MaxAttempts per outage,
// bounded by MaxOutage of wall time. Zero fields take the defaults.
type RetryPolicy struct {
	// MaxAttempts bounds reconnection attempts per outage (default 8).
	MaxAttempts int
	// Base is the first backoff delay (default 50ms); each attempt doubles
	// it up to Max (default 5s).
	Base, Max time.Duration
	// Jitter randomizes each delay by ±Jitter fraction (default 0.2) so
	// fleets of sources do not reconnect in lockstep.
	Jitter float64
	// MaxOutage caps one outage's total wall time (default: unbounded);
	// when exceeded the hub is declared dead even with attempts left.
	MaxOutage time.Duration
	// Seed makes the jitter sequence deterministic for tests.
	Seed int64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 8
	}
	if p.Base <= 0 {
		p.Base = 50 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 5 * time.Second
	}
	if p.Jitter == 0 {
		p.Jitter = 0.2
	}
	return p
}

// delay computes the backoff before reconnection attempt n (1-based).
func (p RetryPolicy) delay(n int, rng *rand.Rand) time.Duration {
	d := p.Base << uint(n-1)
	if d > p.Max || d <= 0 {
		d = p.Max
	}
	if p.Jitter > 0 {
		f := 1 + p.Jitter*(2*rng.Float64()-1)
		d = time.Duration(float64(d) * f)
	}
	return d
}

// SourceSpec attaches a band stream with optional supervision: when the
// stream ends and Reconnect is non-nil, the server retries the factory
// under Retry instead of closing the band, so existing subscribers resume
// delivery on the new connection without re-registering. The hub's state
// (live → reconnecting → dead) is logged and exported on /stats and
// /metrics.
type SourceSpec struct {
	// Stream is the initial connection (required).
	Stream *stream.Stream
	// Reconnect re-opens the band after the current stream ends; nil means
	// unsupervised (stream end closes the band, the pre-existing AddSource
	// behaviour).
	Reconnect func(ctx context.Context) (*stream.Stream, error)
	// Retry is the backoff policy for Reconnect.
	Retry RetryPolicy
}

// AddSource attaches one band stream unsupervised; when the stream ends
// the band ends with it.
func (s *Server) AddSource(src *stream.Stream) error {
	return s.AddSourceSpec(SourceSpec{Stream: src})
}

// AddSourceSpec attaches one band stream, optionally supervised (see
// SourceSpec).
func (s *Server) AddSourceSpec(spec SourceSpec) error {
	if spec.Stream == nil {
		return fmt.Errorf("dsms: SourceSpec requires an initial Stream")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("dsms: server is shut down")
	}
	band := spec.Stream.Info.Band
	if _, dup := s.hubs[band]; dup {
		return fmt.Errorf("dsms: band %q already attached", band)
	}
	if err := spec.Stream.Info.Validate(); err != nil {
		return err
	}
	h := newHub(spec.Stream.Info, s.log, s.tracer)
	if s.hist != nil {
		b, err := s.hist.Band(band)
		if err != nil {
			return fmt.Errorf("dsms: mounting store for band %q: %w", band, err)
		}
		h.hist = b
	}
	s.hubs[band] = h
	s.catalog[band] = spec.Stream.Info
	s.log.Info("source attached", "band", band,
		"organization", spec.Stream.Info.Org.String(),
		"supervised", spec.Reconnect != nil)
	s.g.Go(func(ctx context.Context) error {
		// Once supervision is over the band is dead for good: tell the
		// wire-ingest edge so a queued or future reconnect feed is
		// rejected instead of parked forever.
		defer s.wireBandDead(band)
		select {
		case <-s.start:
		case <-s.drain:
			h.closeAll()
			return nil
		case <-ctx.Done():
			return nil
		}
		return s.supervise(ctx, h, spec)
	})
	return nil
}

// supervise runs one band's source until it is dead: consume the current
// stream; on stream end, either close the band (unsupervised) or retry the
// Reconnect factory under the backoff policy, resuming the same hub — and
// its subscribers — on success.
func (s *Server) supervise(ctx context.Context, h *hub, spec SourceSpec) error {
	defer h.closeAll()
	log := s.logger().With("band", h.info.Band)
	policy := spec.Retry.withDefaults()
	rng := rand.New(rand.NewSource(policy.Seed))
	src := spec.Stream
	for {
		if !h.consume(ctx, s.drain, src) {
			// Server shutdown or drain: not a source fault.
			return nil
		}
		if spec.Reconnect == nil {
			log.Info("source ended", "state", hubDead.String())
			return nil
		}
		// The source dropped: reconnect with backoff.
		h.state.Store(int32(hubReconnecting))
		log.Warn("source dropped, reconnecting", "state", hubReconnecting.String())
		outageStart := time.Now()
		reconnected := false
		for attempt := 1; attempt <= policy.MaxAttempts; attempt++ {
			d := policy.delay(attempt, rng)
			if policy.MaxOutage > 0 && time.Since(outageStart)+d > policy.MaxOutage {
				log.Error("source outage exceeded cap",
					"outage", time.Since(outageStart).String(),
					"cap", policy.MaxOutage.String())
				break
			}
			select {
			case <-time.After(d):
			case <-s.drain:
				return nil
			case <-ctx.Done():
				return nil
			}
			ns, err := spec.Reconnect(ctx)
			if errors.Is(err, ErrSourceFinished) {
				log.Info("source finished cleanly", "state", hubDead.String())
				return nil
			}
			if err != nil {
				log.Warn("reconnect attempt failed", "attempt", int64(attempt),
					"backoff", d.String(), "error", err.Error())
				continue
			}
			src = ns
			h.reconnects.Add(1)
			h.state.Store(int32(hubLive))
			log.Info("source reconnected", "attempt", int64(attempt),
				"outage", time.Since(outageStart).String(),
				"reconnects_total", h.reconnects.Load())
			reconnected = true
			break
		}
		if !reconnected {
			log.Error("source dead after failed reconnection",
				"attempts", int64(policy.MaxAttempts),
				"state", hubDead.String())
			return nil
		}
	}
}

// Catalog returns a copy of the band metadata.
func (s *Server) Catalog() map[string]stream.Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]stream.Info, len(s.catalog))
	for k, v := range s.catalog {
		out[k] = v
	}
	return out
}

// bandSet returns the parser's view of available bands.
func (s *Server) bandSet() map[string]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]bool, len(s.catalog))
	for k := range s.catalog {
		out[k] = true
	}
	return out
}

// Explain parses and optimizes a query and renders its plan with cost
// annotations, without registering it.
func (s *Server) Explain(text string) (string, error) {
	plan, err := query.Parse(text, s.bandSet())
	if err != nil {
		return "", err
	}
	catalog := s.Catalog()
	if err := query.Validate(plan, catalog); err != nil {
		return "", err
	}
	opt, err := query.Optimize(plan, catalog)
	if err != nil {
		return "", err
	}
	fused := query.Fuse(opt)
	naive, err := query.Explain(plan, catalog)
	if err != nil {
		return "", err
	}
	// Mark the operators that would run on shared trunks with the digest
	// of the trunk they mount under; with a historical store mounted, mark
	// temporal restrictions that lower to store scans with [store].
	shareAnn := shareAnnotator(fused)
	storeOn := s.histStore() != nil
	annotate := func(n query.Node) string {
		tag := shareAnn(n)
		if _, ok := n.(*query.RestrictT); ok && storeOn {
			if tag != "" {
				tag += " "
			}
			tag += "[store]"
		}
		return tag
	}
	optimized, err := query.ExplainAnnotated(fused, catalog, annotate)
	if err != nil {
		return "", err
	}
	return "-- parsed plan --\n" + naive + "-- optimized plan --\n" + optimized, nil
}

// admit reserves an admission slot or reports why registration is refused.
// The slot is held in s.pending until release runs (after the query landed
// in s.queries, or registration failed), so racing Register calls cannot
// oversubscribe -max-queries.
func (s *Server) admit() (release func(), err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.draining {
		return nil, ErrDraining
	}
	if s.maxQueries > 0 && len(s.queries)+s.pending >= s.maxQueries {
		s.rejected.Add(1)
		return nil, fmt.Errorf("%w: %d registered (limit %d)",
			ErrTooManyQueries, len(s.queries)+s.pending, s.maxQueries)
	}
	s.pending++
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			s.pending--
			s.mu.Unlock()
		})
	}, nil
}

// Register parses, validates, optimizes, and launches a continuous query.
// A query whose product (productKey) is already live becomes a handle on
// it: no pipeline, encode or frame ring of its own.
func (s *Server) Register(text string, opts DeliveryOptions) (*Registered, error) {
	release, err := s.admit()
	if err != nil {
		return nil, err
	}
	defer release()
	log := s.logger()
	plan, err := query.Parse(text, s.bandSet())
	if err != nil {
		log.Warn("query rejected", "stage", "parse", "query", text, "error", err.Error())
		return nil, err
	}
	catalog := s.Catalog()
	if err := query.Validate(plan, catalog); err != nil {
		log.Warn("query rejected", "stage", "validate", "query", text, "error", err.Error())
		return nil, err
	}
	opt, err := query.Optimize(plan, catalog)
	if err != nil {
		return nil, err
	}
	// Fusion runs after the §3.4 rewrites: the fused plan is what gets
	// built and stored, so ExplainObserved pairs stats with its nodes.
	opt = query.Fuse(opt)
	outInfo, err := query.InfoOf(opt, catalog)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults(outInfo)
	// Temporal restriction over the past: with a store mounted, the plan
	// reads spliced sources — retained history replayed from the first
	// sector the restriction can reference, handed off to live at the
	// cursor boundary. Such a scan is positional (per-query cursor), so it
	// bypasses sharing: no trunk, and no product another query may join.
	var specs []spliceSpec
	if histStart, histScan := query.HistoryStart(opt); histScan {
		if sp, ok := s.spliceSpecs(opt, histStart); ok {
			specs = sp
		}
	}
	key := productKey(opt, opts)

	s.mu.Lock()
	s.nextID++
	id := s.nextID
	wrap := s.pipelineWrap
	joinable := specs == nil
	// A product whose pipeline just ended is about to leave the map; build
	// a fresh one rather than join it.
	if p := s.products[key]; joinable && p != nil && !isClosed(p.stopped) {
		r := p.newHandle(id, text, opt, outInfo)
		s.queries[id] = r
		s.mu.Unlock()
		release()
		log.Info("query registered", "query", int64(id), "plan", query.Format(opt),
			"product", p.digest, "handles", p.handles.Load())
		return r, nil
	}
	s.mu.Unlock()

	p, out, err := s.buildProduct(id, opt, opts, specs, wrap)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	// A concurrent registration of the same product may have won the
	// race to publish it; this one then stays private.
	if cur := s.products[key]; joinable && (cur == nil || isClosed(cur.stopped)) {
		p.key, p.digest = key, query.ShortSigOf(key)
		s.products[key] = p
	} else {
		p.digest = query.ShortSigOf(fmt.Sprintf("%s#%d", key, id))
	}
	r := p.newHandle(id, text, opt, outInfo)
	s.queries[id] = r
	s.mu.Unlock()
	release()
	log.Info("query registered", "query", int64(id), "plan", query.Format(opt),
		"operators", len(p.stats),
		"shared_trunks", len(p.shared), "store_scan", specs != nil, "product", p.digest)
	p.run(out, log)
	return r, nil
}

// buildProduct builds a query's pipeline — over spliced store sources
// (specs non-nil) or mounted on shared trunks — and wraps it in a product
// whose delivery stage p.run starts.
func (s *Server) buildProduct(id cascade.QueryID, opt query.Node, opts DeliveryOptions, specs []spliceSpec,
	wrap func(*stream.Group, *stream.Stream) *stream.Stream) (*product, *stream.Stream, error) {
	qg := stream.NewGroup(s.ctx)
	var (
		out    *stream.Stream
		stats  []*stream.Stats
		detach func()
		shared []string
		err    error
	)
	if specs != nil {
		var sources map[string]*stream.Stream
		sources, detach = spliceStreams(qg, specs)
		out, stats, err = query.Build(qg, opt, sources)
		if err != nil {
			detach()
			return nil, nil, err
		}
	} else {
		// Mount the plan's shareable frontier onto the trunk DAG and build
		// only the private suffix. Sources feed the trunks; this query
		// holds no hub subscriptions of its own.
		out, stats, shared, detach, err = s.buildShared(qg, opt)
		if err != nil {
			return nil, nil, err
		}
	}
	if wrap != nil {
		out = wrap(qg, out)
	}
	// Tap adapter for push subscribers: the delivery stage keeps its
	// blocking semantics on the pass-through; wire egress attaches
	// credit-bounded taps that shed instead of stalling the pipeline.
	out, taps := stream.NewTapSet(qg, out)

	// Wire the product's span recorder into every stage it owns. Trunk
	// stats inside `stats` were already claimed by the shared recorder
	// when the trunk was built (AttachTrace is first-wins), so only the
	// private suffix lands in this product's ring.
	rec := s.tracer.Recorder(int64(id))
	for _, st := range stats {
		st.AttachTrace(rec)
	}
	taps.AttachTrace(rec)

	return &product{
		traceID: int64(id),
		opts:    opts,
		stats:   stats,
		deliv:   newDeliveryStats(),
		group:   qg,
		server:  s,
		shared:  shared,
		detach:  detach,
		taps:    taps,
		trace:   rec,
		frames:  newFrameHub(8),
		series:  newSeriesBuffer(4096),
		stopped: make(chan struct{}),
	}, out, nil
}

// run starts the product's delivery stage (assemble, encode, enqueue) on
// out and the watcher that records how the pipeline ended.
func (p *product) run(out *stream.Stream, log *obs.Logger) {
	s, id := p.server, p.traceID
	p.group.Go(func(ctx context.Context) error { return p.deliver(ctx, out) })
	go func() {
		err := p.group.Wait()
		var pe *stream.PanicError
		if errors.As(err, &pe) {
			// Panic isolation: the query died, the server did not. Count it,
			// log the stack, and surface it as the query's terminal error.
			s.panics.Add(1)
			log.Error("query pipeline panicked", "query", id,
				"panic", fmt.Sprint(pe.Value), "stack", string(pe.Stack))
		} else if err != nil {
			log.Error("query pipeline failed", "query", id, "error", err.Error())
		} else {
			log.Info("query pipeline finished", "query", id)
		}
		p.err = err
		// The pipeline is gone (completed, failed, or cancelled): detach
		// from the data plane — release the shared-trunk mounts, or the
		// store tails — so nothing feeds a dead query.
		p.detach()
		close(p.stopped)
		// A later registration of the same product builds a fresh one
		// rather than joining a finished pipeline.
		s.mu.Lock()
		if p.key != "" && s.products[p.key] == p {
			delete(s.products, p.key)
		}
		s.mu.Unlock()
	}()
}

// productKey names what a query renders: the fused plan's signature
// (which includes the stretch) plus the colormap and value range, after
// defaults. Queries with equal keys deliver byte-identical frames.
func productKey(plan query.Node, opts DeliveryOptions) string {
	return fmt.Sprintf("%s|%s|%g|%g", query.Signature(plan), opts.Colormap, opts.VMin, opts.VMax)
}

// Deregister stops a query. A handle on a product that other queries still
// read only detaches itself; the last handle tears the product down.
func (s *Server) Deregister(id cascade.QueryID) error {
	s.mu.Lock()
	r, ok := s.queries[id]
	last := false
	if ok {
		delete(s.queries, id)
		last = r.handles.Add(-1) == 0
		if last && r.key != "" && s.products[r.key] == r.product {
			delete(s.products, r.key)
		}
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("dsms: no query %d", id)
	}
	s.logger().Info("query deregistered", "query", int64(id), "product_released", last)
	// The handle's viewers end and its resume shadows are torn down —
	// shadows survive the primary pipeline's natural end, but not
	// deregistration.
	close(r.gone)
	r.closeShadows()
	if !last {
		return nil
	}
	// Detaching closes the product's input streams (shared-trunk taps or
	// store tails), so the pipeline ends and the wait below returns.
	r.detach()
	<-r.stopped
	// The product is gone from every surface; drop its span ring. (A query
	// whose pipeline merely ended stays inspectable via /trace until it is
	// deregistered.)
	s.tracer.Release(r.traceID)
	// Release the frame ring's retained references so pooled PNG backings
	// go back to the encode pool instead of dangling off the dead product.
	r.frames.drop()
	return nil
}

// Query looks up a registered query.
func (s *Server) Query(id cascade.QueryID) (*Registered, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.queries[id]
	return r, ok
}

// Queries lists registered queries ordered by id.
func (s *Server) Queries() []*Registered {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Registered, 0, len(s.queries))
	for _, r := range s.queries {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// HubStats reports routing telemetry per band.
func (s *Server) HubStats() []HubStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]HubStats, 0, len(s.hubs))
	for _, h := range s.hubs {
		out = append(out, h.stats())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Band < out[j].Band })
	return out
}

// QueryPanics reports how many query pipelines terminated on a recovered
// operator panic.
func (s *Server) QueryPanics() int64 { return s.panics.Load() }

// ServerStats snapshots the hub telemetry plus server-level gauges.
func (s *Server) ServerStats() ServerStats {
	s.mu.Lock()
	n := len(s.queries)
	started := s.started
	draining := s.draining
	maxQ := s.maxQueries
	s.mu.Unlock()
	qs := s.Queries()
	status := make([]QueryStatus, len(qs))
	products := make(map[*product]bool, len(qs))
	for i, r := range qs {
		status[i] = r.Status()
		products[r.product] = true
	}
	st := ServerStats{
		Hubs:              s.HubStats(),
		Queries:           n,
		QueryStatus:       status,
		Products:          len(products),
		FramesEncoded:     s.encoded.frames.Load(),
		PixelsEncoded:     s.encoded.pixels.Load(),
		DeflateBytesIn:    s.encoded.deflateIn.Load(),
		QueryPanics:       s.panics.Load(),
		AdmissionRejected: s.rejected.Load(),
		MaxQueries:        maxQ,
		Draining:          draining,
		UptimeSeconds:     time.Since(started).Seconds(),
	}
	snap := s.sharing.Snapshot()
	st.Shared = &snap
	if is := s.IngestStats(); is.Listening {
		st.Ingest = &is
	}
	if h := s.histStore(); h != nil {
		st.Store = h.Snapshot()
	}
	return st
}

// Shutdown drains the server gracefully: no new queries are admitted, the
// hubs finish so queued chunks flush to their subscribers, and the method
// waits for every query pipeline to reach a terminal state — up to ctx's
// deadline, after which everything still running is cancelled. It returns
// nil when all queries drained, ctx.Err() when the deadline forced a hard
// cancel.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.g.Wait() //nolint:errcheck
		return nil
	}
	s.closed = true
	s.draining = true
	queries := make([]*Registered, 0, len(s.queries))
	for _, r := range s.queries {
		queries = append(queries, r)
	}
	s.mu.Unlock()
	s.logger().Info("server draining", "queries", len(queries))

	// Stop admitting and tell every source supervisor to finish its hub:
	// subscriber deques flush, then the query input streams close, so the
	// pipelines run to completion and deliver their remaining frames.
	s.drainOnce.Do(func() { close(s.drain) })

	drained := true
	for _, r := range queries {
		select {
		case <-r.stopped:
		case <-ctx.Done():
			drained = false
		}
		if !drained {
			break
		}
	}

	// Hard phase: cancel whatever is left (slow pipelines past the
	// deadline, source generators blocked mid-send) and wait it out.
	s.cancel()
	for _, r := range queries {
		<-r.stopped
	}
	s.g.Wait() //nolint:errcheck
	if !drained {
		s.logger().Warn("shutdown deadline forced cancellation")
		return ctx.Err()
	}
	s.logger().Info("server drained")
	return nil
}

// Close shuts the server down immediately: Shutdown with an already-expired
// deadline, so queries are cancelled rather than drained.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Shutdown(ctx) //nolint:errcheck
	return s.g.Err()
}
