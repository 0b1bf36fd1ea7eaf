package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 5, 10})
	// le semantics: an observation equal to a bound lands in that bound's
	// bucket, one infinitesimally above lands in the next.
	h.Observe(0.5)  // bucket le=1
	h.Observe(1)    // bucket le=1 (inclusive)
	h.Observe(1.01) // bucket le=5
	h.Observe(5)    // bucket le=5
	h.Observe(7)    // bucket le=10
	h.Observe(10)   // bucket le=10
	h.Observe(11)   // +Inf overflow
	s := h.Snapshot()
	want := []int64{2, 2, 2, 1}
	if len(s.Counts) != len(want) {
		t.Fatalf("got %d buckets, want %d", len(s.Counts), len(want))
	}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d: got %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 7 {
		t.Errorf("count: got %d, want 7", s.Count)
	}
	wantSum := 0.5 + 1 + 1.01 + 5 + 7 + 10 + 11
	if math.Abs(s.Sum-wantSum) > 1e-9 {
		t.Errorf("sum: got %g, want %g", s.Sum, wantSum)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewDurationHistogram()
	const goroutines = 8
	const perG = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(g*perG+i) * 1e-6)
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("count: got %d, want %d", s.Count, goroutines*perG)
	}
	var bucketTotal int64
	for _, c := range s.Counts {
		bucketTotal += c
	}
	if bucketTotal != s.Count {
		t.Errorf("bucket total %d != count %d", bucketTotal, s.Count)
	}
	// Sum of 0..n-1 microseconds.
	n := float64(goroutines * perG)
	wantSum := n * (n - 1) / 2 * 1e-6
	if math.Abs(s.Sum-wantSum) > wantSum*1e-9 {
		t.Errorf("sum: got %g, want %g", s.Sum, wantSum)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(1) // must not panic
	h.ObserveDuration(time.Second)
	s := h.Snapshot()
	if s.Count != 0 || s.Quantile(0.5) != 0 || s.Sum != 0 {
		t.Errorf("nil snapshot not empty: %+v", s)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30, 40})
	// 100 uniform observations in (0,40]: quantiles should be ~40q.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.4)
	}
	s := h.Snapshot()
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.5, 20, 1},
		{0.95, 38, 1},
		{0.99, 39.6, 1},
	} {
		got := s.Quantile(tc.q)
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("q%g: got %g, want %g±%g", tc.q, got, tc.want, tc.tol)
		}
	}
	// Overflow observations report the largest finite bound.
	h2 := NewHistogram([]float64{1})
	h2.Observe(100)
	if got := h2.Snapshot().Quantile(0.99); got != 1 {
		t.Errorf("overflow quantile: got %g, want 1", got)
	}
}

func TestExpositionRendering(t *testing.T) {
	e := NewExposition()
	e.Counter("geo_chunks_total", "Chunks processed.", 42, L("op", `spatial"restrict\x`))
	e.Gauge("geo_depth", "", 3)
	h := NewHistogram([]float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)
	e.Histogram("geo_latency_seconds", "Latency.", h.Snapshot(), L("query", "7"))
	out := e.String()

	for _, want := range []string{
		"# HELP geo_chunks_total Chunks processed.\n",
		"# TYPE geo_chunks_total counter\n",
		`geo_chunks_total{op="spatial\"restrict\\x"} 42` + "\n",
		"# TYPE geo_depth gauge\n",
		"geo_depth 3\n",
		"# TYPE geo_latency_seconds histogram\n",
		`geo_latency_seconds_bucket{query="7",le="0.1"} 1` + "\n",
		`geo_latency_seconds_bucket{query="7",le="1"} 2` + "\n",
		`geo_latency_seconds_bucket{query="7",le="+Inf"} 3` + "\n",
		`geo_latency_seconds_sum{query="7"} 2.55` + "\n",
		`geo_latency_seconds_count{query="7"} 3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// HELP must be omitted when empty.
	if strings.Contains(out, "# HELP geo_depth") {
		t.Errorf("unexpected HELP line for empty help:\n%s", out)
	}
	// Same-family samples must stay under a single TYPE header.
	if strings.Count(out, "# TYPE geo_chunks_total") != 1 {
		t.Errorf("duplicated TYPE header:\n%s", out)
	}
}

func TestRegistryHandler(t *testing.T) {
	r := NewRegistry()
	r.Register(CollectorFunc(func(e *Exposition) {
		e.Counter("alpha_total", "First.", 1)
	}))
	r.Register(CollectorFunc(func(e *Exposition) {
		e.Counter("beta_total", "Second.", 2)
	}))
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/metrics", nil)
	r.Handler().ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type: %q", ct)
	}
	body := rec.Body.String()
	ai := strings.Index(body, "alpha_total 1")
	bi := strings.Index(body, "beta_total 2")
	if ai < 0 || bi < 0 {
		t.Fatalf("missing samples in:\n%s", body)
	}
	if ai > bi {
		t.Errorf("collectors out of registration order:\n%s", body)
	}
}

func TestGoCollector(t *testing.T) {
	e := NewExposition()
	NewGoCollector().Collect(e)
	out := e.String()
	for _, want := range []string{"go_goroutines", "go_heap_alloc_bytes", "process_uptime_seconds"} {
		if !strings.Contains(out, want) {
			t.Errorf("go collector missing %s:\n%s", want, out)
		}
	}
}

func TestLoggerNilSafe(t *testing.T) {
	var l *Logger
	l.Info("b", "k", 1)
	l.Warn("c")
	l.Error("d")
	if l.With("k", "v") != nil {
		t.Error("nil.With should stay nil")
	}
}

func TestLoggerOutput(t *testing.T) {
	var b strings.Builder
	l := NewTextLogger(&b, ParseLevel("debug")).With("query", 3)
	l.Info("query registered", "op", "stretch")
	out := b.String()
	for _, want := range []string{"query registered", "query=3", "op=stretch"} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q in %q", want, out)
		}
	}
	// Level filtering: a warn logger drops info records.
	b.Reset()
	NewTextLogger(&b, ParseLevel("warn")).Info("hidden")
	if b.Len() != 0 {
		t.Errorf("info record leaked through warn level: %q", b.String())
	}
}
