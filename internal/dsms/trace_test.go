package dsms

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"geostreams/internal/geom"
	"geostreams/internal/obs/trace"
	"geostreams/internal/sat"
	"geostreams/internal/stream"
	"geostreams/internal/wire"
)

// tracedFeedImager is feedImager with the GSP trace extension offered:
// chunks are stamped at the instrument (interval 1 = every data chunk)
// so server-side timelines begin at true ingest.
func tracedFeedImager(t *testing.T, addr string, sectors int) *stream.Group {
	t.Helper()
	g := stream.NewGroup(context.Background())
	im, err := sat.NewLatLonImager(geom.R(-122, 36, -120, 38), 24, 20, sat.DefaultScene(99),
		[]string{"vis", "nir"}, stream.RowByRow, sectors)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := im.Streams(g)
	if err != nil {
		t.Fatal(err)
	}
	opts := wire.FeedOptions{Tracer: trace.New(1, 256)}
	for _, b := range []string{"vis", "nir"} {
		src := streams[b]
		g.Go(func(ctx context.Context) error {
			err := wire.FeedStream(ctx, addr, src, opts, nil)
			if errors.Is(err, context.Canceled) {
				return nil
			}
			return err
		})
	}
	return g
}

// stagesOf collects the set of stage names appearing in one timeline.
func stagesOf(e TraceEntry) map[string]bool {
	out := map[string]bool{}
	for _, sp := range e.Spans {
		out[sp.Stage] = true
	}
	return out
}

// TestTraceEndToEndWireFed is the tentpole's acceptance path: a wire-fed
// NDVI query with tracing at interval 1 must yield, for sampled chunks,
// a single causal timeline that spans the feeder's wire ingest decode,
// hub routing, operator execution, delivery, and GSP wire egress — all
// joined on one trace ID across the shared and per-query rings.
func TestTraceEndToEndWireFed(t *testing.T) {
	const q = "stretch(rselect(ndvi(nir, vis), rect(-121.7, 36.3, -120.3, 37.7)), linear, 0, 255)"
	const sectors = 3

	s, addr, stop := startWireServer(t)
	defer stop()
	s.SetTraceInterval(1) // deterministic: every data chunk traced
	g := tracedFeedImager(t, addr, sectors)
	waitForBands(t, s, "vis", "nir")

	reg, err := s.Register(q, DeliveryOptions{Colormap: "ndvi"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	sub, err := NewClient(ts.URL).subscribe(int64(reg.ID), 256, "")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close() //nolint:errcheck
	waitForSubscriber(t, reg)
	s.Start()

	subDone := make(chan error, 1)
	go func() {
		for {
			if _, err := sub.Next(); err != nil {
				if errors.Is(err, io.EOF) {
					err = nil
				}
				subDone <- err
				return
			}
		}
	}()
	view := viewFrames(t, reg)
	for {
		if _, ok := view.Next(10 * time.Second); !ok {
			break
		}
	}
	if err := reg.Err(); err != nil {
		t.Fatalf("query error: %v", err)
	}
	if err := g.Wait(); err != nil {
		t.Fatalf("feed error: %v", err)
	}
	select {
	case err := <-subDone:
		if err != nil {
			t.Fatalf("subscription error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("subscription never ended")
	}

	rep := s.TraceReport(reg, maxTraceLimit)
	if rep.SpansTotal == 0 {
		t.Fatal("no spans recorded for a fully traced run")
	}
	if rep.SampleInterval != 1 {
		t.Fatalf("sample interval = %d, want 1", rep.SampleInterval)
	}
	// At least one data chunk's timeline must cover the whole path. (Not
	// every timeline does: early chunks can be fanned out before the
	// subscription attaches, and rings wrap.)
	wantStages := []string{
		trace.StageIngestDecode, trace.StageHubRoute,
		trace.StageOperator, trace.StageDeliver, trace.StageWireEgress,
	}
	var full *TraceEntry
	for i := range rep.Traces {
		if rep.Traces[i].Punct {
			continue
		}
		got := stagesOf(rep.Traces[i])
		all := true
		for _, st := range wantStages {
			if !got[st] {
				all = false
				break
			}
		}
		if all {
			full = &rep.Traces[i]
			break
		}
	}
	if full == nil {
		var seen []string
		for _, tr := range rep.Traces {
			for st := range stagesOf(tr) {
				seen = append(seen, st)
			}
		}
		t.Fatalf("no timeline spans the full %v chain; stages seen across %d traces: %v",
			wantStages, len(rep.Traces), seen)
	}
	// Causality: the timeline is start-ordered, so ingest decode must
	// come before delivery within the same trace.
	var decodeIdx, deliverIdx = -1, -1
	for i, sp := range full.Spans {
		if sp.Stage == trace.StageIngestDecode && decodeIdx == -1 {
			decodeIdx = i
		}
		if sp.Stage == trace.StageDeliver {
			deliverIdx = i
		}
	}
	if decodeIdx == -1 || deliverIdx == -1 || decodeIdx > deliverIdx {
		t.Fatalf("ingest-decode (idx %d) not before deliver (idx %d) in timeline %s",
			decodeIdx, deliverIdx, full.Trace)
	}
	// The stage breakdown covers the chain too.
	for _, st := range wantStages {
		if rep.Stages[st].Count == 0 {
			t.Errorf("stage %q missing from the latency breakdown", st)
		}
	}
}

// TestTraceHTTPEndpoint exercises GET /queries/{id}/trace over HTTP: a
// traced local run must produce a decodable report with operator and
// deliver stages, and bad ?n= values must 400.
func TestTraceHTTPEndpoint(t *testing.T) {
	s, stop := startServer(t, 2)
	defer stop()
	s.SetTraceInterval(1)
	reg, err := s.Register("rselect(vis, rect(-121.6, 36.4, -120.4, 37.6))",
		DeliveryOptions{Colormap: "gray"})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	view := viewFrames(t, reg)
	for {
		if _, ok := view.Next(5 * time.Second); !ok {
			break
		}
	}
	if err := reg.Err(); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	rep, err := c.Trace(int64(reg.ID), 8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Query != int64(reg.ID) || rep.SpansTotal == 0 || len(rep.Traces) == 0 {
		t.Fatalf("thin trace report: %+v", rep)
	}
	if rep.Stages[trace.StageOperator].Count == 0 || rep.Stages[trace.StageDeliver].Count == 0 {
		t.Fatalf("report stages missing operator/deliver: %v", rep.Stages)
	}
	for _, bad := range []string{"0", "-1", "abc", "100000"} {
		resp, err := http.Get(ts.URL + "/queries/1/trace?n=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("n=%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
	if _, err := c.Trace(99, 1); err == nil {
		t.Error("trace of unknown query did not error")
	}
}

// TestHealthzEndpoint pins the probe contract: 200 while serving, 503
// with Retry-After once shutdown has begun.
func TestHealthzEndpoint(t *testing.T) {
	s, stop := startServer(t, 1)
	defer stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)

	// Probe before Start: a finite source that has already delivered its
	// last sector parks its hub in the dead state, which healthz rightly
	// reports as unavailable.
	healthy, err := c.Healthz()
	if err != nil || !healthy {
		t.Fatalf("Healthz on a serving server = %v, %v; want true, nil", healthy, err)
	}
	s.Start()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after shutdown: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 healthz missing Retry-After")
	}
	if healthy, err := c.Healthz(); healthy || err == nil {
		t.Errorf("client Healthz after shutdown = %v, %v; want false with detail", healthy, err)
	}
	if s.healthz.Value() < 3 {
		t.Errorf("healthz counter = %d, want >= 3", s.healthz.Value())
	}
}

// TestFrameAgeSLOBurn sets an impossible freshness budget and checks the
// burn counter, its metric family, and the trace report's SLO block all
// light up.
func TestFrameAgeSLOBurn(t *testing.T) {
	s, stop := startServer(t, 2)
	defer stop()
	s.SetTraceInterval(1)
	s.SetFrameAgeSLO(time.Nanosecond) // everything is too old
	reg, err := s.Register("rselect(vis, rect(-121.6, 36.4, -120.4, 37.6))",
		DeliveryOptions{Colormap: "gray"})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	view := viewFrames(t, reg)
	for {
		if _, ok := view.Next(5 * time.Second); !ok {
			break
		}
	}
	if burn := reg.deliv.sloBurn.Load(); burn == 0 {
		t.Fatal("1ns SLO burned nothing")
	}
	rep := s.TraceReport(reg, 4)
	if rep.FrameAgeSLO == nil || rep.FrameAgeSLO.Burn == 0 {
		t.Fatalf("trace report SLO block = %+v, want non-nil with burn", rep.FrameAgeSLO)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	text, err := NewClient(ts.URL).Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"geostreams_frame_age_slo_seconds",
		"geostreams_frame_age_slo_burn_total",
		"geostreams_trace_spans_total",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("metrics exposition missing %s", family)
		}
	}
}
