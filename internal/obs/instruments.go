package obs

import "sync/atomic"

// Counter is a monotonically increasing counter safe for concurrent use
// without locks. Counters are created through Registry.Counter, which
// also wires them into the registry's exposition.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// namedInstrument is one registry-owned counter.
type namedInstrument struct {
	name, help string
	counter    *Counter
}

// Counter returns the registry's counter with the given name, creating
// and registering it on first use — the get-or-create idiom, so
// concurrent callers racing on the same name share one instrument.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ni, ok := r.named[name]; ok {
		return ni.counter
	}
	c := &Counter{}
	r.addNamed(&namedInstrument{name: name, help: help, counter: c})
	return c
}

// addNamed records an instrument under r.mu in creation order, so the
// exposition is stable across scrapes.
func (r *Registry) addNamed(ni *namedInstrument) {
	if r.named == nil {
		r.named = make(map[string]*namedInstrument)
	}
	r.named[ni.name] = ni
	r.namedOrder = append(r.namedOrder, ni.name)
}
