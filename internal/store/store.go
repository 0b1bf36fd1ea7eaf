// Package store is the historical chunk store behind the hub: every
// routed chunk is sequenced with a monotonic per-band cursor (band, seq)
// into the band's history. With a directory, the history is an embedded
// on-disk segment log (append-only record files with a per-sector index
// sidecar, written in sector-sized batches, fsync batched per segment),
// and the OS page cache is its hot tier. Without one — or after a disk
// write failure — it is a bounded in-memory ring, delta-encoded against
// the previous frame with a raw fallback for low-correlation frames.
// Tails stream a band from any retained sequence through the stored
// history and then live, exactly once, which is what temporal
// restrictions over the past and resumable subscriptions are built on.
package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"geostreams/internal/obs"
)

// Defaults for Options zero values.
const (
	DefaultRingChunks    = 4096
	DefaultKeyframeEvery = 16
	DefaultSegmentBytes  = 8 << 20

	// minRingChunks keeps the ring large enough that the newest delta
	// group (bounded by KeyframeEvery grids plus interleaved punctuation)
	// can never be evicted while still being written.
	minRingChunks    = 128
	maxKeyframeEvery = 64
)

// Options configures a Store.
type Options struct {
	// Dir is the segment-log directory; empty means memory-only (the ring
	// is the whole retention window). Each band gets a subdirectory, and
	// its log is its whole history.
	Dir string
	// RingChunks bounds each band's in-memory ring (chunks, not bytes);
	// DefaultRingChunks if zero, clamped to at least minRingChunks. With
	// Dir set the ring holds only what arrives after a disk write failure.
	RingChunks int
	// KeyframeEvery forces a raw keyframe after this many consecutive
	// delta-encoded grids; DefaultKeyframeEvery if zero.
	KeyframeEvery int
	// SegmentBytes rolls (and fsyncs) a segment file once it reaches this
	// size; DefaultSegmentBytes if zero.
	SegmentBytes int64
	// Logger for recovery and disk-failure reports; nil is silent.
	Logger *obs.Logger
	// WrapSegmentWriter, when set, wraps each segment file's writer —
	// a fault-injection hook for crash-recovery tests.
	WrapSegmentWriter func(io.Writer) io.Writer
}

func (o Options) withDefaults() Options {
	if o.RingChunks == 0 {
		o.RingChunks = DefaultRingChunks
	}
	if o.RingChunks < minRingChunks {
		o.RingChunks = minRingChunks
	}
	if o.KeyframeEvery <= 0 {
		o.KeyframeEvery = DefaultKeyframeEvery
	}
	if o.KeyframeEvery > maxKeyframeEvery {
		o.KeyframeEvery = maxKeyframeEvery
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	return o
}

// Store is a set of per-band tiered histories sharing one configuration
// and one on-disk directory.
type Store struct {
	opts  Options
	mu    sync.Mutex
	bands map[string]*Band
}

// Open creates the store, creating Options.Dir if configured. Bands are
// materialized (and their segment logs recovered) on first Band call.
func Open(opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return &Store{opts: opts, bands: make(map[string]*Band)}, nil
}

// Band returns the named band, creating it (and recovering its segment
// log from disk) on first use.
func (s *Store) Band(name string) (*Band, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.bands[name]; ok {
		return b, nil
	}
	b := &Band{
		name:    name,
		opts:    s.opts,
		log:     s.opts.Logger,
		ringCap: s.opts.RingChunks,
		nextSeq: 1,
	}
	if s.opts.Dir != "" {
		dir := filepath.Join(s.opts.Dir, sanitizeBandDir(name))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: band %q: %w", name, err)
		}
		seg, err := openSegmentLog(dir, s.opts.SegmentBytes, s.opts.WrapSegmentWriter)
		if err != nil {
			return nil, fmt.Errorf("store: band %q: %w", name, err)
		}
		b.seg = seg
		if last := seg.lastSeqOnDisk(); last > 0 {
			b.nextSeq = last + 1
			b.rebuildMarksFromDisk()
		}
		if rs := seg.recovery; rs.TornBytes > 0 || rs.RebuiltIdx > 0 || rs.DupRecords > 0 || rs.GapRecords > 0 {
			s.opts.Logger.Warn("segment log recovered",
				"band", name, "segments", int64(rs.Segments), "records", rs.Records,
				"torn_bytes", rs.TornBytes, "rebuilt_idx", int64(rs.RebuiltIdx),
				"dup_records", rs.DupRecords, "gap_records", rs.GapRecords)
		}
	}
	s.bands[name] = b
	return b, nil
}

// Lookup returns the named band if it has been materialized.
func (s *Store) Lookup(name string) (*Band, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.bands[name]
	return b, ok
}

// Close seals every band, then writes out, syncs, indexes and closes
// their segment logs.
func (s *Store) Close() error {
	s.mu.Lock()
	bands := make([]*Band, 0, len(s.bands))
	for _, b := range s.bands {
		bands = append(bands, b)
	}
	s.mu.Unlock()
	for _, b := range bands {
		b.SealLive()
		b.mu.Lock()
		if b.seg != nil {
			b.seg.close()
			b.seg = nil
		}
		b.mu.Unlock()
	}
	return nil
}

// rebuildMarksFromDisk repopulates the sector marks from the recovered
// segment index so cursors and temporal restrictions resolve across
// restarts. Called once during Band materialization, before any append.
func (b *Band) rebuildMarksFromDisk() {
	var lastT int64
	haveT := false
	for _, seg := range b.seg.segs {
		for _, e := range seg.idx {
			if !haveT || e.t != lastT {
				haveT = true
				lastT = e.t
				b.sectorStarts = pushMark(b.sectorStarts, mark{t: e.t, seq: e.seq})
			}
			if e.eos {
				b.eosMarks = pushMark(b.eosMarks, mark{t: e.t, seq: e.last})
			}
		}
	}
	b.haveStartT = haveT
	b.lastStartT = lastT
}

// sanitizeBandDir maps a band name to a safe directory component.
func sanitizeBandDir(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 || string(out) == "." || string(out) == ".." {
		return "band"
	}
	return string(out)
}

// BandSnapshot is one band's observable state, for /stats and metrics.
type BandSnapshot struct {
	Band         string `json:"band"`
	LastSeq      uint64 `json:"last_seq"`
	OldestSeq    uint64 `json:"oldest_seq"`
	RingChunks   int    `json:"ring_chunks"`
	RingBytes    int64  `json:"ring_bytes"`
	Segments     int    `json:"segments"`
	DiskBytes    int64  `json:"disk_bytes"`
	Sealed       bool   `json:"sealed"`
	Tails        int    `json:"live_tails"`
	Appended     int64  `json:"appended_chunks"`
	RawChunks    int64  `json:"raw_chunks"`
	DeltaChunks  int64  `json:"delta_chunks"`
	Evicted      int64  `json:"evicted_chunks"`
	Replayed     int64  `json:"replayed_chunks"`
	TailsStarted int64  `json:"tails_started"`
	TailLags     int64  `json:"tail_lags"`
	Truncated    int64  `json:"truncated_resumes"`
	DiskErrors   int64  `json:"disk_errors"`

	Recovery RecoveryStats `json:"recovery"`
}

// Snapshot returns the band's observable state.
func (b *Band) Snapshot() BandSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := BandSnapshot{
		Band:         b.name,
		LastSeq:      b.nextSeq - 1,
		OldestSeq:    b.oldestLocked(),
		RingChunks:   len(b.ring),
		RingBytes:    b.ringBytes,
		Sealed:       b.sealed,
		Tails:        len(b.tails),
		Appended:     b.appended.Load(),
		RawChunks:    b.rawRecs.Load(),
		DeltaChunks:  b.deltaRecs.Load(),
		Evicted:      b.evicted.Load(),
		Replayed:     b.replayed.Load(),
		TailsStarted: b.tailsStarted.Load(),
		TailLags:     b.tailLags.Load(),
		Truncated:    b.truncated.Load(),
		DiskErrors:   b.diskErrs.Load(),
	}
	if b.seg != nil {
		s.Segments = len(b.seg.segs)
		s.DiskBytes = b.seg.logBytes()
		s.Recovery = b.seg.recovery
	}
	return s
}

// Snapshot returns every materialized band's state, sorted by name.
func (s *Store) Snapshot() []BandSnapshot {
	s.mu.Lock()
	bands := make([]*Band, 0, len(s.bands))
	for _, b := range s.bands {
		bands = append(bands, b)
	}
	s.mu.Unlock()
	out := make([]BandSnapshot, 0, len(bands))
	for _, b := range bands {
		out = append(out, b.Snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Band < out[j].Band })
	return out
}
