package obs

import (
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestNamedInstrumentsConcurrent hammers the registry's get-or-create
// path from GOMAXPROCS goroutines while the exposition handler scrapes
// concurrently: every goroutine races to create/look up the same set of
// counters and increments them a fixed number of times.
// Afterwards no increment may be lost and the exposition must name every
// instrument exactly once.
func TestNamedInstrumentsConcurrent(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	const (
		names   = 8
		perG    = 1000
		scrapes = 50
	)
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				n := i % names
				c := r.Counter(fmt.Sprintf("geostreams_test_counter_%d", n),
					"concurrency-test counter")
				c.Inc()
			}
		}()
	}
	// Scrape while the writers run: exposition must never crash, tear, or
	// observe a half-registered instrument.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < scrapes; i++ {
			rec := httptest.NewRecorder()
			r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			if rec.Code != 200 {
				t.Errorf("scrape %d: status %d", i, rec.Code)
				return
			}
		}
	}()
	wg.Wait()

	// No lost increments: each of the `names` counters took
	// workers*perG/names increments in total.
	want := int64(workers * perG / names)
	for n := 0; n < names; n++ {
		c := r.Counter(fmt.Sprintf("geostreams_test_counter_%d", n), "")
		if got := c.Value(); got != want {
			t.Errorf("counter %d: got %d increments, want %d", n, got, want)
		}
	}

	// A quiesced scrape names every instrument exactly once, with the
	// recorded totals.
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for n := 0; n < names; n++ {
		cLine := fmt.Sprintf("geostreams_test_counter_%d %d\n", n, want)
		if !strings.Contains(body, cLine) {
			t.Errorf("exposition missing %q", strings.TrimSpace(cLine))
		}
		cName := fmt.Sprintf("geostreams_test_counter_%d", n)
		if got := strings.Count(body, "# TYPE "+cName+" counter"); got != 1 {
			t.Errorf("exposition has %d TYPE lines for %s, want 1", got, cName)
		}
	}
	// Two scrapes of a quiet registry render identically (stable creation
	// order, no map-iteration nondeterminism).
	rec2 := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec2, httptest.NewRequest("GET", "/metrics", nil))
	if body != rec2.Body.String() {
		t.Error("exposition output not stable across scrapes of a quiet registry")
	}
}
