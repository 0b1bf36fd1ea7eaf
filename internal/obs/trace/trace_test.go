package trace

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"geostreams/internal/obs"
)

func TestStampIDSampling(t *testing.T) {
	tr := New(4, 64)
	var ids int
	for i := 0; i < 400; i++ {
		if tr.StampID(true) != 0 {
			ids++
		}
	}
	if ids != 100 {
		t.Fatalf("sampled %d of 400 data chunks at interval 4, want 100", ids)
	}
	// Punctuation is always traced regardless of the data interval.
	tr.SetInterval(0)
	if tr.StampID(true) != 0 {
		t.Fatal("interval 0 must disable data sampling")
	}
	for i := 0; i < 10; i++ {
		if tr.StampID(false) == 0 {
			t.Fatal("punctuation must always receive a trace ID")
		}
	}
}

func TestIDsNonzeroAndDistinct(t *testing.T) {
	tr := New(1, 64)
	seen := make(map[uint64]bool)
	for i := 0; i < 10000; i++ {
		id := tr.StampID(true)
		if id == 0 {
			t.Fatal("interval 1 must trace every chunk")
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %x", id)
		}
		seen[id] = true
	}
}

func TestRingWrapAndSnapshot(t *testing.T) {
	r := NewRing(64)
	for i := 0; i < 100; i++ {
		r.Add(&Span{Trace: uint64(i + 1), Stage: StageOperator})
	}
	snap := r.Snapshot()
	if len(snap) != 64 {
		t.Fatalf("snapshot has %d spans, want 64", len(snap))
	}
	// Oldest-first: the surviving spans are 37..100.
	if snap[0].Trace != 37 || snap[63].Trace != 100 {
		t.Fatalf("snapshot range [%d,%d], want [37,100]", snap[0].Trace, snap[63].Trace)
	}
	if r.Overwritten() != 36 {
		t.Fatalf("overwritten = %d, want 36", r.Overwritten())
	}
}

func TestRingConcurrentAdd(t *testing.T) {
	r := NewRing(256)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	const per = 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Add(&Span{Trace: 1, Stage: StageFanout})
				if i%64 == 0 {
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Recorded(); got != int64(workers*per) {
		t.Fatalf("recorded %d spans, want %d", got, workers*per)
	}
}

func TestRecorderNilAndZeroID(t *testing.T) {
	var r *Recorder
	r.Record(1, StageOperator, "op", time.Now(), time.Millisecond, 0, false)
	tr := New(64, 64)
	rec := tr.Recorder(7)
	rec.Record(0, StageOperator, "op", time.Now(), time.Millisecond, 0, false)
	if spans := tr.QuerySpans(7); len(spans) != 0 {
		t.Fatalf("zero-ID record produced %d spans, want 0", len(spans))
	}
}

func TestPerQueryRingsAndRelease(t *testing.T) {
	tr := New(64, 64)
	a, b := tr.Recorder(1), tr.Recorder(2)
	if tr.Recorder(1) != a {
		t.Fatal("Recorder must be get-or-create per query")
	}
	a.Record(11, StageOperator, "ndvi", time.Now(), time.Millisecond, 5, false)
	b.Record(22, StageFanout, "tap", time.Now(), time.Microsecond, 5, false)
	tr.Shared().Record(33, StageHubRoute, "nir", time.Now(), 0, 5, false)
	if s := tr.QuerySpans(1); len(s) != 1 || s[0].Trace != 11 || s[0].Query != 1 {
		t.Fatalf("query 1 spans = %+v", s)
	}
	if s := tr.QuerySpans(2); len(s) != 1 || s[0].Trace != 22 {
		t.Fatalf("query 2 spans = %+v", s)
	}
	if s := tr.SharedSpans(); len(s) != 1 || s[0].Stage != StageHubRoute {
		t.Fatalf("shared spans = %+v", s)
	}
	tr.Release(1)
	if s := tr.QuerySpans(1); s != nil {
		t.Fatalf("released ring still returns %d spans", len(s))
	}
}

func TestCollectEmitsTraceFamilies(t *testing.T) {
	tr := New(64, 64)
	tr.Recorder(3).Record(5, StageEncode, "png", time.Now(), 2*time.Millisecond, 0, false)
	e := obs.NewExposition()
	tr.Collect(e)
	out := e.String()
	for _, want := range []string{
		"geostreams_trace_sample_interval 64",
		"geostreams_trace_sampled_total",
		"geostreams_trace_spans_total 1",
		"geostreams_trace_rings 1",
		`geostreams_trace_stage_seconds_count{stage="encode"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestStageSnapshotFeedsQuantiles(t *testing.T) {
	tr := New(64, 64)
	rec := tr.Recorder(1)
	for i := 0; i < 100; i++ {
		rec.Record(uint64(i+1), StageOperator, "op", time.Now(), 5*time.Millisecond, 0, false)
	}
	s := tr.StageSnapshot(StageOperator)
	if s.Count != 100 {
		t.Fatalf("stage count = %d, want 100", s.Count)
	}
	if q := s.Quantile(0.5); q < 1e-3 || q > 50e-3 {
		t.Fatalf("p50 = %v, want near 5ms", q)
	}
}
