package dsms

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"geostreams/internal/cascade"
	"geostreams/internal/exec"
	"geostreams/internal/query"
	"geostreams/internal/share"
	"geostreams/internal/store"
	"geostreams/internal/wire"
)

// The HTTP layer of Fig. 3: "user queries, which are converted by the
// interface to specialized HTTP requests, are transmitted to the server,
// parsed, and registered." The API:
//
//	GET    /catalog                 band metadata
//	POST   /queries                 register {"query": "...", "colormap": "..."} → QueryInfo
//	GET    /queries                 list registered queries with stats
//	GET    /queries/{id}            one query's info, per-operator stats, and delivery freshness
//	DELETE /queries/{id}            deregister
//	GET    /queries/{id}/frame      PNG frame at ?cursor= (oldest or X-Geostreams-Cursor; required), ?wait=ms (default 5000; 204 if none)
//	GET    /queries/{id}/series     time-series points (?from=index)
//	GET    /queries/{id}/stream     upgrade to a GSP push subscription (?window=chunks, ?trace=1)
//	GET    /queries/{id}/trace      span timelines for sampled chunks (?n=traces, default 16)
//	GET    /explain?q=...           plan + optimized plan with cost annotations
//	GET    /stats                   server stats: hub routing telemetry, query count, uptime
//	GET    /healthz                 200 serving; 503 + Retry-After draining or a band source dead
//	GET    /metrics                 Prometheus text exposition (operator/hub/delivery telemetry)
//	GET    /debug/pprof/...         runtime profiles; mounted only with SetDebug(true)

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /catalog", s.handleCatalog)
	// The client-facing edges — registration, polling, and the push
	// subscriptions — carry the per-client token bucket (no-op until
	// SetRateLimit); the observability surface stays unthrottled.
	mux.HandleFunc("POST /queries", s.limited(s.handleRegister))
	mux.HandleFunc("GET /queries", s.handleList)
	mux.HandleFunc("GET /queries/{id}", s.handleGet)
	mux.HandleFunc("DELETE /queries/{id}", s.handleDelete)
	mux.HandleFunc("GET /queries/{id}/frame", s.limited(s.handleFrame))
	mux.HandleFunc("GET /queries/{id}/series", s.limited(s.handleSeries))
	mux.HandleFunc("GET /queries/{id}/stream", s.limited(s.handleStream))
	mux.HandleFunc("GET /queries/{id}/ws", s.limited(s.handleWS))
	mux.HandleFunc("GET /queries/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /explain", s.handleExplain)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", s.registry.Handler())
	s.mu.Lock()
	debug := s.debug
	s.mu.Unlock()
	if debug {
		// net/http/pprof registers on http.DefaultServeMux; re-route its
		// endpoints through this mux only when debugging is enabled.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s.withAuth(mux)
}

// BandInfo is the JSON form of a catalog entry.
type BandInfo struct {
	Band         string  `json:"band"`
	CRS          string  `json:"crs"`
	Organization string  `json:"organization"`
	Stamping     string  `json:"stamping"`
	SectorW      int     `json:"sector_width,omitempty"`
	SectorH      int     `json:"sector_height,omitempty"`
	VMin         float64 `json:"vmin"`
	VMax         float64 `json:"vmax"`
}

// QueryInfo is the JSON form of a registered query. With stats it carries
// the per-operator telemetry and the delivery stage's end-to-end freshness
// summary.
type QueryInfo struct {
	ID        cascade.QueryID `json:"id"`
	Query     string          `json:"query"`
	Plan      string          `json:"plan"`
	OutBand   string          `json:"out_band"`
	OutCRS    string          `json:"out_crs"`
	Colormap  string          `json:"colormap"`
	Operators []OperatorStats `json:"operators,omitempty"`
	Delivery  *DeliveryStats  `json:"delivery,omitempty"`
	// Wire carries the push-subscription counters (subscribers, chunks
	// delivered over GSP, chunks dropped on exhausted credit).
	Wire *WireStats `json:"wire,omitempty"`
	// Product names the rendered product the query reads and its exact
	// encode counters; queries sharing a product report the same digest.
	Product *ProductInfo `json:"product,omitempty"`
	// State/Error mirror the query's lifecycle entry on /stats: running,
	// finished, failed, or panicked, with the terminal error when stopped.
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
	// PlanObserved is the plan annotated with live telemetry: predicted vs
	// observed peak buffer, throughput, and latency percentiles per node.
	PlanObserved string `json:"plan_observed,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleCatalog(w http.ResponseWriter, _ *http.Request) {
	cat := s.Catalog()
	out := make([]BandInfo, 0, len(cat))
	for _, in := range cat {
		bi := BandInfo{
			Band: in.Band, CRS: in.CRS.Name(),
			Organization: in.Org.String(), Stamping: in.Stamp.String(),
			VMin: in.VMin, VMax: in.VMax,
		}
		if in.HasSectorMeta {
			bi.SectorW, bi.SectorH = in.SectorGeom.W, in.SectorGeom.H
		}
		out = append(out, bi)
	}
	writeJSON(w, http.StatusOK, out)
}

type registerRequest struct {
	Query    string  `json:"query"`
	Colormap string  `json:"colormap"`
	VMin     float64 `json:"vmin"`
	VMax     float64 `json:"vmax"`
}

// maxRegisterBody caps a POST /queries body: a query string plus render
// options fits in well under a megabyte, and an unbounded read would let
// one client exhaust server memory.
const maxRegisterBody = 1 << 20

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	body := http.MaxBytesReader(w, r.Body, maxRegisterBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", mbe.Limit))
			return
		}
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	// A valid JSON object followed by trailing garbage is a malformed
	// request, not two requests; json.Decoder would silently ignore it.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		writeErr(w, http.StatusBadRequest,
			errors.New("bad request body: trailing data after JSON object"))
		return
	}
	if req.Query == "" {
		writeErr(w, http.StatusBadRequest, errors.New("missing \"query\""))
		return
	}
	reg, err := s.Register(req.Query, DeliveryOptions{
		Colormap: req.Colormap, VMin: req.VMin, VMax: req.VMax,
	})
	if err != nil {
		// Admission refusals are load conditions, not client errors: 503
		// with a Retry-After hint so well-behaved clients back off.
		if errors.Is(err, ErrTooManyQueries) || errors.Is(err, ErrDraining) {
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusServiceUnavailable, err)
			return
		}
		var syn *query.SyntaxError
		if errors.As(err, &syn) {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusCreated, s.queryInfo(reg, false))
}

func (s *Server) queryInfo(r *Registered, withStats bool) QueryInfo {
	qi := QueryInfo{
		ID: r.ID, Query: r.Text, Plan: query.Format(r.Plan),
		OutBand: r.Info.Band, OutCRS: r.Info.CRS.Name(),
		Colormap: r.opts.Colormap,
	}
	if withStats {
		qi.Operators = r.OperatorStats()
		ds := r.DeliveryStats()
		qi.Delivery = &ds
		ws := r.WireStats()
		qi.Wire = &ws
		pi := r.ProductInfo()
		qi.Product = &pi
		st := r.Status()
		qi.State, qi.Error = st.State, st.Error
		if obs, err := query.ExplainObserved(r.Plan, s.Catalog(), r.stats); err == nil {
			qi.PlanObserved = obs + engineFooter()
		}
	}
	return qi
}

// engineFooter summarizes process-wide execution-engine state under an
// observed plan: buffer-pool effectiveness and residual ingest heap
// allocation, so the zero-copy path (DESIGN.md §12) is auditable next to
// the per-operator observed costs. The counters are process-wide, not
// per-query — every pipeline draws on the same pool.
func engineFooter() string {
	es := exec.Snapshot()
	reqs := es.PoolHits + es.PoolSteals + es.PoolMisses
	pooled := 0.0
	if reqs > 0 {
		pooled = 100 * float64(es.PoolHits+es.PoolSteals) / float64(reqs)
	}
	return fmt.Sprintf(
		"engine: pool hits=%d steals=%d misses=%d (%.1f%% pooled), recycles=%d, ingest heap bytes=%d\n",
		es.PoolHits, es.PoolSteals, es.PoolMisses, pooled,
		es.PoolRecycles, wire.IngestAllocBytes())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	qs := s.Queries()
	out := make([]QueryInfo, len(qs))
	for i, r := range qs {
		out[i] = s.queryInfo(r, true)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*Registered, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad query id %q", r.PathValue("id")))
		return nil, false
	}
	reg, ok := s.Query(cascade.QueryID(id))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no query %d", id))
		return nil, false
	}
	return reg, true
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	reg, ok := s.lookup(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.queryInfo(reg, true))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	reg, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if err := s.Deregister(reg.ID); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleFrame(w http.ResponseWriter, r *http.Request) {
	reg, ok := s.lookup(w, r)
	if !ok {
		return
	}
	wait := 5 * time.Second
	if ms := r.URL.Query().Get("wait"); ms != "" {
		v, err := strconv.Atoi(ms)
		if err != nil || v < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad wait %q", ms))
			return
		}
		wait = time.Duration(v) * time.Millisecond
	}
	// Every poll carries a cursor (DESIGN.md §15): ?cursor=oldest starts a
	// private non-destructive cursor at the retention horizon; a numeric
	// ?cursor= resumes one. Responses carry the position to poll next in
	// X-Geostreams-Cursor, so any number of clients each observe the full
	// frame sequence.
	var cursor uint64
	switch cur := r.URL.Query().Get("cursor"); cur {
	case "":
		writeErr(w, http.StatusBadRequest,
			errors.New("cursor required: poll ?cursor=oldest, then the X-Geostreams-Cursor of each response"))
		return
	case "oldest":
		cursor = reg.frames.oldest()
	default:
		v, err := strconv.ParseUint(cur, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad cursor %q", cur))
			return
		}
		cursor = v
	}
	sub := reg.frameCursor(cursor)
	f, ok := sub.Next(wait)
	if shed := sub.Shed(); shed > 0 {
		w.Header().Set("X-Geostreams-Shed", strconv.FormatInt(shed, 10))
	}
	w.Header().Set("X-Geostreams-Cursor", strconv.FormatUint(sub.Cursor(), 10))
	if !ok {
		if sub.Ended() {
			w.Header().Set("X-Geostreams-End", "1")
		}
		w.WriteHeader(http.StatusNoContent)
		return
	}
	defer f.Release()
	w.Header().Set("Content-Type", "image/png")
	w.Header().Set("X-Geostreams-Sector", strconv.FormatInt(int64(f.Sector), 10))
	w.Header().Set("X-Geostreams-Width", strconv.Itoa(f.Width))
	w.Header().Set("X-Geostreams-Height", strconv.Itoa(f.Height))
	w.Header().Set("X-Geostreams-Seq", strconv.FormatUint(f.Seq, 10))
	w.WriteHeader(http.StatusOK)
	w.Write(f.PNG) //nolint:errcheck
}

func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	reg, ok := s.lookup(w, r)
	if !ok {
		return
	}
	from := 0
	if fs := r.URL.Query().Get("from"); fs != "" {
		v, err := strconv.Atoi(fs)
		if err != nil || v < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad from %q", fs))
			return
		}
		from = v
	}
	pts, next := reg.Series(from)
	writeJSON(w, http.StatusOK, map[string]any{"points": pts, "next": next})
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		writeErr(w, http.StatusBadRequest, errors.New("missing q parameter"))
		return
	}
	out, err := s.Explain(q)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, out)
}

// ServerStats is the JSON form of GET /stats: per-band routing telemetry,
// per-query lifecycle entries, and server-level gauges including the
// fault-tolerance counters (recovered query panics, admission rejections,
// drain state).
type ServerStats struct {
	Hubs              []HubStats      `json:"hubs"`
	Queries           int             `json:"queries"`
	QueryStatus       []QueryStatus   `json:"query_status,omitempty"`
	QueryPanics       int64           `json:"query_panics"`
	AdmissionRejected int64           `json:"admission_rejected"`
	MaxQueries        int             `json:"max_queries,omitempty"`
	Draining          bool            `json:"draining,omitempty"`
	UptimeSeconds     float64         `json:"uptime_seconds"`
	Shared            *share.Snapshot `json:"shared,omitempty"`
	// Ingest reports the GSP feed listener's telemetry; present only
	// when the server is serving wire ingest.
	Ingest *IngestStats `json:"ingest,omitempty"`
	// Store reports per-band historical store telemetry; present only
	// when a store is mounted (-store-dir).
	Store []store.BandSnapshot `json:"store,omitempty"`
	// Products counts the distinct rendered products behind the
	// registered queries. The encode totals cover every product since the
	// server started: PNG frames encoded, pixels rendered into them, and
	// bytes fed to deflate.
	Products       int   `json:"products"`
	FramesEncoded  int64 `json:"frames_encoded"`
	PixelsEncoded  int64 `json:"pixels_encoded"`
	DeflateBytesIn int64 `json:"deflate_bytes_in"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.ServerStats())
}
