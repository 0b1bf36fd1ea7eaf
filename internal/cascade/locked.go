package cascade

import (
	"sync"

	"geostreams/internal/geom"
)

// Locked wraps any Index with an RWMutex, making it safe for the access
// pattern live routing produces: Insert/Remove from query register and
// deregister handlers racing Probe from the chunk-routing goroutine.
// The bare implementations do not lock, so every concurrently shared index
// must go through this wrapper.
//
// Probes take the read lock, so routing scales across concurrent readers;
// mutations are exclusive.
type Locked struct {
	mu  sync.RWMutex
	idx Index
}

// NewLocked wraps idx. The wrapped index must not be used directly while
// the wrapper is live.
func NewLocked(idx Index) *Locked { return &Locked{idx: idx} }

func (l *Locked) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.idx.Len()
}

func (l *Locked) Insert(id QueryID, r geom.Rect) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.idx.Insert(id, r)
}

func (l *Locked) Remove(id QueryID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.idx.Remove(id)
}

func (l *Locked) Probe(r geom.Rect, out []QueryID) []QueryID {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.idx.Probe(r, out)
}
