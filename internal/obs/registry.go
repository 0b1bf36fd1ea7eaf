package obs

import (
	"net/http"
	"runtime"
	"sync"
	"time"
)

// Collector contributes samples to a metrics scrape. Implementations must
// be safe for concurrent Collect calls.
type Collector interface {
	Collect(e *Exposition)
}

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func(e *Exposition)

// Collect implements Collector.
func (f CollectorFunc) Collect(e *Exposition) { f(e) }

// Registry is a set of collectors snapshotted together on every scrape —
// the obs analogue of a Prometheus registry. The DSMS server registers
// itself (operators, hubs, delivery stages) plus a Go runtime collector.
type Registry struct {
	mu         sync.Mutex
	collectors []Collector

	// Named instruments (Registry.Counter / Registry.Histogram): owned by
	// the registry itself and emitted after the collectors, in creation
	// order.
	named      map[string]*namedInstrument
	namedOrder []string
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a collector; it will be invoked on every scrape in
// registration order.
func (r *Registry) Register(c Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}

// Gather runs every collector into a fresh exposition, then appends the
// registry's named instruments in creation order.
func (r *Registry) Gather() *Exposition {
	r.mu.Lock()
	cs := make([]Collector, len(r.collectors))
	copy(cs, r.collectors)
	named := make([]*namedInstrument, 0, len(r.namedOrder))
	for _, name := range r.namedOrder {
		named = append(named, r.named[name])
	}
	r.mu.Unlock()
	e := NewExposition()
	for _, c := range cs {
		c.Collect(e)
	}
	for _, ni := range named {
		e.Counter(ni.name, ni.help, float64(ni.counter.Value()))
	}
	return e
}

// Handler serves the registry in Prometheus text exposition format —
// mount it at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.Gather().WriteTo(w) //nolint:errcheck
	})
}

// NewGoCollector reports Go runtime health: goroutine count, heap usage,
// GC cycles, and process uptime (measured from collector creation, which
// for the DSMS coincides with server start).
func NewGoCollector() Collector {
	start := time.Now()
	return CollectorFunc(func(e *Exposition) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		e.Gauge("go_goroutines", "Number of live goroutines.", float64(runtime.NumGoroutine()))
		e.Gauge("go_heap_alloc_bytes", "Bytes of allocated heap objects.", float64(ms.HeapAlloc))
		e.Gauge("go_sys_bytes", "Bytes of memory obtained from the OS.", float64(ms.Sys))
		e.Counter("go_gc_cycles_total", "Completed GC cycles.", float64(ms.NumGC))
		e.Counter("process_uptime_seconds", "Seconds since process start.", time.Since(start).Seconds())
	})
}
