package dsms

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"geostreams/internal/obs/trace"
)

// GET /queries/{id}/trace: span timelines for the query's sampled chunks,
// assembled from the query's span ring joined with the shared ring
// (ingest decode, hub routing, shared trunks) on the trace ID, plus a
// per-stage latency breakdown over the returned spans. The flat rings
// become causal timelines here, at presentation time: spans group by
// trace ID, order by start, and queue-wait is synthesized from the gaps
// between consecutive stages — the recording hot path never pays for
// tree bookkeeping.

// maxTraceLimit caps ?n=, the number of timelines returned.
const maxTraceLimit = 256

// TraceSpan is one stage crossing in a timeline.
type TraceSpan struct {
	Stage string `json:"stage"`
	Op    string `json:"op,omitempty"`
	// Query is the ring the span came from; 0 marks shared (pre-query)
	// stages.
	Query   int64 `json:"query,omitempty"`
	StartUS int64 `json:"start_us"`
	DurUS   int64 `json:"dur_us"`
	// GapUS is the synthesized queue-wait: microseconds between the
	// previous stage's end and this stage's start (omitted when the
	// stages overlap).
	GapUS int64 `json:"gap_us,omitempty"`
	Punct bool  `json:"punct,omitempty"`
}

// TraceEntry is one chunk's causal timeline.
type TraceEntry struct {
	Trace string      `json:"trace"`
	T     int64       `json:"t"`
	Punct bool        `json:"punct,omitempty"`
	Spans []TraceSpan `json:"spans"`
}

// TraceStage summarizes one stage's latencies across the returned spans.
type TraceStage struct {
	Count      int     `json:"count"`
	P50Seconds float64 `json:"p50_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
}

// TraceSLO reports the frame-age SLO state for the query.
type TraceSLO struct {
	BudgetSeconds float64 `json:"budget_seconds"`
	Burn          int64   `json:"burn"`
}

// TraceReport is the JSON body of GET /queries/{id}/trace.
type TraceReport struct {
	Query          int64                 `json:"query"`
	SampleInterval int                   `json:"sample_interval"`
	SpansTotal     int64                 `json:"spans_total"`
	SpansDropped   int64                 `json:"spans_dropped"`
	Traces         []TraceEntry          `json:"traces"`
	Stages         map[string]TraceStage `json:"stages"`
	FrameAgeSLO    *TraceSLO             `json:"frame_age_slo,omitempty"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	reg, ok := s.lookup(w, r)
	if !ok {
		return
	}
	limit := 16
	if ns := r.URL.Query().Get("n"); ns != "" {
		v, err := strconv.Atoi(ns)
		if err != nil || v < 1 || v > maxTraceLimit {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("bad n %q (want 1..%d)", ns, maxTraceLimit))
			return
		}
		limit = v
	}
	writeJSON(w, http.StatusOK, s.TraceReport(reg, limit))
}

// TraceReport assembles the trace view for one query: the newest `limit`
// timelines plus the stage breakdown over every span the rings still
// hold for them. Handles on one product share its span ring.
func (s *Server) TraceReport(reg *Registered, limit int) TraceReport {
	id := reg.traceID
	recorded, dropped := s.tracer.QueryRingStats(id)
	rep := TraceReport{
		Query:          int64(reg.ID),
		SampleInterval: s.tracer.Interval(),
		SpansTotal:     recorded,
		SpansDropped:   dropped,
		Traces:         []TraceEntry{},
		Stages:         map[string]TraceStage{},
	}
	if slo := s.frameAgeSLO.Load(); slo > 0 {
		rep.FrameAgeSLO = &TraceSLO{
			BudgetSeconds: time.Duration(slo).Seconds(),
			Burn:          reg.deliv.sloBurn.Load(),
		}
	}

	// The query ring defines which traces belong to this query (every
	// traced chunk that reached its pipeline recorded at least one span
	// there); the shared ring contributes the pre-query stages for those
	// same trace IDs.
	qspans := s.tracer.QuerySpans(id)
	byID := make(map[uint64][]trace.Span)
	order := make([]uint64, 0, len(qspans))
	for _, sp := range qspans {
		if _, seen := byID[sp.Trace]; !seen {
			order = append(order, sp.Trace)
		}
		byID[sp.Trace] = append(byID[sp.Trace], sp)
	}
	for _, sp := range s.tracer.SharedSpans() {
		if _, seen := byID[sp.Trace]; seen {
			byID[sp.Trace] = append(byID[sp.Trace], sp)
		}
	}
	// Newest first: the ring snapshot is oldest-first, so walk the
	// first-appearance order backwards.
	if limit > len(order) {
		limit = len(order)
	}
	durs := make(map[string][]float64)
	for i := len(order) - 1; i >= len(order)-limit; i-- {
		spans := byID[order[i]]
		sort.SliceStable(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
		entry := TraceEntry{
			Trace: fmt.Sprintf("%016x", order[i]),
			T:     spans[0].T,
			Punct: spans[0].Punct,
			Spans: make([]TraceSpan, 0, len(spans)),
		}
		prevEnd := int64(0)
		for _, sp := range spans {
			ts := TraceSpan{
				Stage:   sp.Stage,
				Op:      sp.Op,
				Query:   sp.Query,
				StartUS: sp.Start / 1e3,
				DurUS:   sp.Dur / 1e3,
				Punct:   sp.Punct,
			}
			if prevEnd != 0 && sp.Start > prevEnd {
				gap := sp.Start - prevEnd
				ts.GapUS = gap / 1e3
				durs[trace.StageQueueWait] = append(durs[trace.StageQueueWait], float64(gap)/1e9)
			}
			if end := sp.Start + sp.Dur; end > prevEnd {
				prevEnd = end
			}
			durs[sp.Stage] = append(durs[sp.Stage], float64(sp.Dur)/1e9)
			entry.Spans = append(entry.Spans, ts)
		}
		rep.Traces = append(rep.Traces, entry)
	}
	for stage, vs := range durs {
		sort.Float64s(vs)
		rep.Stages[stage] = TraceStage{
			Count:      len(vs),
			P50Seconds: sortedQuantile(vs, 0.5),
			P99Seconds: sortedQuantile(vs, 0.99),
		}
	}
	return rep
}

// sortedQuantile reads the q-quantile from an ascending slice by
// nearest-rank; fine for the small span sets a trace report holds.
func sortedQuantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	i := int(q * float64(len(vs)-1))
	return vs[i]
}

// GET /healthz: liveness and readiness in one probe. 200 while the
// server is serving; 503 with Retry-After once Shutdown has begun
// (draining) or when any band hub's supervised source is dead — the
// conditions under which a load balancer should stop routing new work
// here.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.healthz.Inc()
	s.mu.Lock()
	draining := s.draining || s.closed
	var deadBands []string
	for band, h := range s.hubs {
		if hubState(h.state.Load()) == hubDead {
			deadBands = append(deadBands, band)
		}
	}
	s.mu.Unlock()
	sort.Strings(deadBands)

	if !draining && len(deadBands) == 0 {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
		return
	}
	body := map[string]any{"status": "unavailable"}
	if draining {
		body["draining"] = true
	}
	if len(deadBands) > 0 {
		body["dead_bands"] = deadBands
	}
	w.Header().Set("Retry-After", "5")
	writeJSON(w, http.StatusServiceUnavailable, body)
}
