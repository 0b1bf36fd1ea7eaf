package store

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"geostreams/internal/obs"
	"geostreams/internal/stream"
	"geostreams/internal/wire"
)

// ErrTruncated is returned (via Tail.Err) when a resume point predates
// the band's retained history: the ring evicted past it and no segment
// log holds it. The HTTP layer maps it to 410 Gone.
var ErrTruncated = errors.New("store: resume cursor predates retained history")

// Wire chunk kinds, as they appear in payload[0] of the bit-exact wire
// encoding every record stores.
const (
	wireKindGrid   = 0
	wireKindPoints = 1
	wireKindEOS    = 2
)

// recKind distinguishes how a ring entry's bytes are encoded.
type recKind uint8

const (
	recRaw   recKind = iota // wire chunk encoding, self-contained
	recDelta                // XOR-varint against the previous grid entry
)

// entry is one sequenced chunk in the ring tier.
type entry struct {
	seq  uint64
	t    int64
	kind byte // wire chunk kind
	enc  recKind
	data []byte
}

func (e *entry) isGrid() bool { return e.kind == wireKindGrid }

// mark pairs a timestamp with a sequence number; the band keeps two mark
// lists — first record of each sector, and each sector's end-of-sector
// record — to translate temporal restrictions and sector boundaries into
// sequence positions.
type mark struct {
	t   int64
	seq uint64
}

const (
	// replayBatch is about how many records a tail decodes per store
	// read; log reads round it up to whole sector spans.
	replayBatch = 64
	// liveTailBuf is a live tail's buffered chunk budget; overflowing it
	// detaches the tail, which falls back to store replay (never a gap).
	liveTailBuf = 256
	// maxMarks bounds each mark list; the oldest marks fall off, which
	// only matters for temporal restrictions further back than 64k
	// sectors — those resolve conservatively to "replay from the oldest
	// retained record".
	maxMarks = 1 << 16
)

// Band is one band's history and the live tails currently attached.
// With a segment log, the log is the whole history: records are written
// once, in sector-sized batches, and replay reads them back through the
// OS page cache. The delta-encoded in-memory ring holds the history of a
// memory-only band, and of a logged band from its first failed disk
// write on. Every chunk the hub routes is appended here first, which
// assigns its monotonic sequence number; Append and the hub's route run
// on the same goroutine, so a chunk is sequenced before any subscriber
// can observe it.
type Band struct {
	name string
	opts Options
	log  *obs.Logger

	mu       sync.Mutex
	ring     []entry
	ringCap  int
	nextSeq  uint64 // next sequence to assign; first record is seq 1
	sealed   bool
	tails    []*Tail
	seg      *segmentLog // nil: memory-only
	prevVals []float64   // last grid's values (copy): the delta base
	havePrev bool
	chain    int // grid entries since the last raw-grid keyframe

	sectorStarts []mark // first record of each sector
	eosMarks     []mark // each sector's end-of-sector record
	haveStartT   bool
	lastStartT   int64

	scratchRaw   []byte
	scratchDelta []byte

	// Telemetry (ringBytes/counters read by Snapshot and metrics).
	ringBytes    int64
	appended     atomic.Int64
	rawRecs      atomic.Int64
	deltaRecs    atomic.Int64
	evicted      atomic.Int64
	replayed     atomic.Int64
	tailsStarted atomic.Int64
	tailLags     atomic.Int64
	truncated    atomic.Int64
	diskErrs     atomic.Int64
}

// logging reports whether the segment log is the band's history.
func (b *Band) logging() bool { return b.seg != nil && !b.seg.failed }

// Append sequences one chunk: raw-encodes it (bit-exact wire encoding)
// and buffers it in the segment log, or stores its delta (or raw) form
// in the ring when the band has no working log, then hands the live
// chunk to attached tails. It returns the chunk's sequence number. The
// chunk is not mutated and the caller keeps its reference.
func (b *Band) Append(c *stream.Chunk) uint64 {
	b.mu.Lock()
	raw, err := wire.AppendChunk(b.scratchRaw[:0], c)
	if err != nil {
		// Unknown chunk kind: not storable; the stream layer has no such
		// kinds today.
		b.mu.Unlock()
		return 0
	}
	b.scratchRaw = raw
	seq := b.nextSeq
	b.nextSeq++
	t := int64(c.T)
	kind := raw[0]

	// Sector marks: first record of a new sector, and its end-of-sector.
	if !b.haveStartT || t != b.lastStartT {
		b.haveStartT = true
		b.lastStartT = t
		b.sectorStarts = pushMark(b.sectorStarts, mark{t: t, seq: seq})
	}
	if kind == wireKindEOS {
		b.eosMarks = pushMark(b.eosMarks, mark{t: t, seq: seq})
	}

	if !b.logging() {
		b.appendRingLocked(seq, t, kind, raw, c)
	} else if err := b.seg.append(seq, t, kind, raw); err != nil {
		if !b.diskFailedLocked(err, seq) {
			b.appendRingLocked(seq, t, kind, raw, c)
		}
	}

	// Live tails: one retained reference per tail; a tail whose buffer is
	// full is detached (it falls back to store replay — the store has the
	// chunk, so laggards lose time, never data).
	for i := 0; i < len(b.tails); {
		tl := b.tails[i]
		c.Retain()
		select {
		case tl.live <- Item{Seq: seq, C: c}:
			i++
		default:
			c.Release()
			tl.attached = false
			b.tails = append(b.tails[:i], b.tails[i+1:]...)
			close(tl.live)
			b.tailLags.Add(1)
		}
	}
	b.appended.Add(1)
	b.mu.Unlock()
	return seq
}

// appendRingLocked stores one record in the ring: delta against the
// previous grid when it pays, raw keyframe otherwise (low correlation,
// shape change, chain too long, or a non-grid chunk). c supplies the
// next delta base; nil (a record moved off a failed log) makes the next
// grid a keyframe.
func (b *Band) appendRingLocked(seq uint64, t int64, kind byte, raw []byte, c *stream.Chunk) {
	e := entry{seq: seq, t: t, kind: kind}
	nvals := 0
	if kind == wireKindGrid {
		nvals = (len(raw) - deltaHdrLen) / 8
	}
	if kind == wireKindGrid && b.havePrev && nvals == len(b.prevVals) &&
		b.chain < b.opts.KeyframeEvery {
		delta := appendDelta(b.scratchDelta[:0], raw, b.prevVals)
		b.scratchDelta = delta
		if len(delta) < len(raw) {
			e.enc = recDelta
			e.data = append([]byte(nil), delta...)
			b.deltaRecs.Add(1)
			b.chain++
		}
	}
	if e.data == nil {
		e.enc = recRaw
		e.data = append([]byte(nil), raw...)
		b.rawRecs.Add(1)
		if kind == wireKindGrid {
			b.chain = 0
		}
	}
	b.ring = append(b.ring, e)
	b.ringBytes += int64(len(e.data))
	if kind == wireKindGrid {
		if c != nil {
			b.prevVals = append(b.prevVals[:0], c.Grid.Vals...)
		}
		b.havePrev = c != nil
	}
	b.evictLocked()
}

// diskFailedLocked disables the segment log after a write error. The
// records that never fully reached the file move to the ring as raw
// entries, so no sequenced record becomes unreadable; later records go
// to the ring directly. It reports whether seq was among those moved.
func (b *Band) diskFailedLocked(err error, seq uint64) bool {
	b.diskErrs.Add(1)
	b.log.Error("segment write failed; disk tier disabled, ring keeps serving",
		"band", b.name, "seq", int64(seq), "error", err.Error())
	moved := false
	for _, r := range b.seg.takeUnwritten() {
		b.appendRingLocked(r.Seq, r.T, r.Kind, r.Payload, nil)
		moved = moved || r.Seq == seq
	}
	return moved
}

func pushMark(ms []mark, m mark) []mark {
	if n := len(ms); n > 0 && m.t <= ms[n-1].t && m.t != ms[n-1].t {
		// Non-monotonic timestamp: keep the list sorted by dropping the
		// regression (instrument timestamps are monotonic in practice).
		return ms
	}
	if len(ms) >= maxMarks {
		copy(ms, ms[1:])
		ms = ms[:len(ms)-1]
	}
	return append(ms, m)
}

// evictLocked drops whole leading delta groups while the ring exceeds
// its budget, preserving the invariant that the first grid entry in the
// ring is always a raw keyframe (so replay can decode from the front).
func (b *Band) evictLocked() {
	for len(b.ring) > b.ringCap {
		if b.ring[0].isGrid() {
			// Dropping a grid invalidates the delta chain that follows it;
			// drop up to (not including) the next raw-grid keyframe.
			b.dropFrontLocked()
			for len(b.ring) > 0 && !(b.ring[0].isGrid() && b.ring[0].enc == recRaw) {
				b.dropFrontLocked()
			}
		} else {
			b.dropFrontLocked()
		}
	}
}

func (b *Band) dropFrontLocked() {
	b.ringBytes -= int64(len(b.ring[0].data))
	b.evicted.Add(1)
	b.ring[0] = entry{}
	b.ring = b.ring[1:]
}

// SealLive marks the band's live stream as ended for good (the hub
// closed): attached tails finish after draining, and new tails serve the
// stored history followed by a clean end of stream instead of waiting
// for data that will never come.
func (b *Band) SealLive() {
	b.mu.Lock()
	b.sealed = true
	for _, tl := range b.tails {
		tl.attached = false
		close(tl.live)
	}
	b.tails = nil
	if b.logging() {
		if err := b.seg.flush(); err != nil {
			b.diskFailedLocked(err, 0)
		}
		b.seg.sync()
	}
	b.mu.Unlock()
}

// Sealed reports whether the band's live stream has ended for good.
func (b *Band) Sealed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sealed
}

// LastSeq returns the highest assigned sequence number (0 when empty).
func (b *Band) LastSeq() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.nextSeq - 1
}

// OldestSeq returns the oldest retained sequence number (0 when the band
// holds nothing).
func (b *Band) OldestSeq() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.oldestLocked()
}

func (b *Band) oldestLocked() uint64 {
	if b.seg != nil {
		if s := b.seg.firstSeqOnDisk(); s != 0 {
			return s
		}
	}
	if len(b.ring) > 0 {
		return b.ring[0].seq
	}
	return 0
}

// holdsLocked reports whether seq lies within retained history: in the
// segment log, or at or after the ring's oldest entry.
func (b *Band) holdsLocked(seq uint64) bool {
	if b.seg != nil && b.seg.holds(seq) {
		return true
	}
	return len(b.ring) > 0 && seq >= b.ring[0].seq
}

// Resumable reports whether a tail from `after` can be served without a
// retention gap.
func (b *Band) Resumable(after uint64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if after >= b.nextSeq-1 {
		return true // at (or past) the live edge: nothing to replay
	}
	return b.holdsLocked(after + 1)
}

// CursorAt returns the sequence number of sector t's end-of-sector
// record — the consistent resume point "everything through sector t".
func (b *Band) CursorAt(t int64) (uint64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	i := sort.Search(len(b.eosMarks), func(i int) bool { return b.eosMarks[i].t >= t })
	if i < len(b.eosMarks) && b.eosMarks[i].t == t {
		return b.eosMarks[i].seq, true
	}
	return 0, false
}

// SeqBefore returns the highest sequence number strictly before the
// first record of the first sector >= t — i.e. the resume point from
// which a tail replays exactly the records with timestamp >= t (plus any
// later ones). Returns 0 when the whole history qualifies.
func (b *Band) SeqBefore(t int64) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	i := sort.Search(len(b.sectorStarts), func(i int) bool { return b.sectorStarts[i].t >= t })
	if i == len(b.sectorStarts) {
		// No sector at or after t yet: everything stored is older.
		return b.nextSeq - 1
	}
	return b.sectorStarts[i].seq - 1
}

// replayRec is one decoded record from the store.
type replayRec struct {
	seq uint64
	c   *stream.Chunk
}

// readAfter decodes about maxN records with seq > after: from the
// segment log in whole sector spans, or from the ring. It returns an
// empty slice when the tail is caught up to the live edge, ErrTruncated
// when the resume point predates retention. buf is the caller's reused
// read buffer. The caller owns one reference on each returned chunk.
func (b *Band) readAfter(after uint64, maxN int, buf *[]byte) ([]replayRec, error) {
	b.mu.Lock()
	if after >= b.nextSeq-1 {
		b.mu.Unlock()
		return nil, nil
	}
	target := after + 1
	if b.seg != nil && b.seg.holds(target) {
		// The log: write out the buffer if the target is still in it, then
		// read outside the lock — written bytes never change.
		if err := b.seg.flushThrough(target); err != nil {
			b.diskFailedLocked(err, 0)
		}
		if b.seg.holds(target) {
			spans := b.seg.spansAfter(after, maxN)
			b.mu.Unlock()
			return b.readSpans(spans, after, buf)
		}
	}
	if len(b.ring) == 0 || target < b.ring[0].seq {
		b.mu.Unlock()
		b.truncated.Add(1)
		return nil, ErrTruncated
	}
	// The ring: sequences are contiguous (every append lands one entry).
	// Decode must start at the chain base: the nearest raw-grid keyframe at
	// or before pos. Entries after pos may be deltas whose chain runs back
	// through pos, so the walk-back cannot stop early even when pos itself
	// is self-contained; if no grid precedes pos at all, sequential decode
	// from 0 meets a raw grid before any delta (the eviction invariant).
	pos := int(target - b.ring[0].seq)
	cs := pos
	for cs > 0 && !(b.ring[cs].isGrid() && b.ring[cs].enc == recRaw) {
		cs--
	}
	n := pos + maxN
	if n > len(b.ring) {
		n = len(b.ring)
	}
	ents := make([]entry, n-cs)
	copy(ents, b.ring[cs:n])
	b.mu.Unlock()
	return b.decodeEntries(ents, after)
}

// readSpans reads planned log spans, one ReadAt each into *buf, and
// decodes their CRC-checked records with seq > after, in order.
func (b *Band) readSpans(spans []span, after uint64, buf *[]byte) ([]replayRec, error) {
	var (
		out  []replayRec
		f    *os.File
		path string
	)
	defer func() {
		if f != nil {
			f.Close() //nolint:errcheck
		}
	}()
	fail := func(err error) ([]replayRec, error) {
		releaseRecs(out)
		return nil, err
	}
	last := after
	for _, sp := range spans {
		if sp.path != path {
			if f != nil {
				f.Close() //nolint:errcheck
			}
			var err error
			if f, err = os.Open(sp.path); err != nil {
				return fail(err)
			}
			path = sp.path
		}
		n := int(sp.end - sp.off)
		if cap(*buf) < n {
			*buf = make([]byte, n)
		}
		p := (*buf)[:n]
		if _, err := f.ReadAt(p, sp.off); err != nil {
			return fail(err)
		}
		recs, _, _ := ScanRecords(p)
		for _, r := range recs {
			if r.Seq <= last {
				continue // before the resume point, or a duplicate
			}
			c, err := wire.DecodeChunkPooled(r.Payload)
			if err != nil {
				return fail(err)
			}
			out = append(out, replayRec{seq: r.Seq, c: c})
			last = r.Seq
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("store: band %q: no readable record after seq %d in the segment log", b.name, after)
	}
	b.replayed.Add(int64(len(out)))
	return out, nil
}

// decodeEntries sequentially decodes copied ring entries (data slices
// are immutable once appended, so this runs outside the band lock),
// emitting records with seq > after.
func (b *Band) decodeEntries(ents []entry, after uint64) ([]replayRec, error) {
	var (
		out      []replayRec
		baseVals []float64
		haveBase bool
		rawBuf   []byte
	)
	fail := func(err error) ([]replayRec, error) {
		releaseRecs(out)
		return nil, err
	}
	for _, e := range ents {
		var payload []byte
		switch e.enc {
		case recRaw:
			payload = e.data
		case recDelta:
			if !haveBase {
				return fail(errors.New("store: delta entry without a base (ring invariant violated)"))
			}
			var err error
			rawBuf, err = decodeDelta(rawBuf[:0], e.data, baseVals)
			if err != nil {
				return fail(err)
			}
			payload = rawBuf
		}
		c, err := wire.DecodeChunkPooled(payload)
		if err != nil {
			return fail(err)
		}
		if e.isGrid() {
			// Copy: the chunk's pooled buffer may be recycled by the
			// consumer before the next delta decodes against it.
			baseVals = append(baseVals[:0], c.Grid.Vals...)
			haveBase = true
		}
		if e.seq > after {
			out = append(out, replayRec{seq: e.seq, c: c})
		} else {
			c.Release()
		}
	}
	b.replayed.Add(int64(len(out)))
	return out, nil
}

func releaseRecs(recs []replayRec) {
	for _, r := range recs {
		r.c.Release()
	}
}

// Item is one chunk delivered by a Tail, with its store sequence number
// (the resume position after delivering it).
type Item struct {
	Seq uint64
	C   *stream.Chunk
}

// Tail streams a band's chunks from seq `after`+1 through the stored
// history and then live, exactly once: the switch from store replay to
// live delivery happens under the band lock, so there is no gap and no
// duplicate. A tail whose consumer falls behind the live stream detaches
// and silently falls back to store replay from its last delivered
// sequence — laggards lose freshness, never data (while retention
// holds). The channel closes cleanly when the band is sealed and the
// history is exhausted; Err reports a retention miss (ErrTruncated).
type Tail struct {
	b        *Band
	out      chan Item
	live     chan Item
	stop     chan struct{}
	stopOnce sync.Once
	last     uint64
	rbuf     []byte // segment read buffer
	attached bool   // guarded by b.mu
	err      error
	errMu    sync.Mutex
}

// Tail starts streaming the band from sequence `after`+1. Close it to
// release resources; the caller must Release every received chunk.
func (b *Band) Tail(after uint64) *Tail {
	t := &Tail{
		b:    b,
		out:  make(chan Item, 4),
		stop: make(chan struct{}),
		last: after,
	}
	b.tailsStarted.Add(1)
	go t.run()
	return t
}

// C delivers the tail's chunks in sequence order. It closes after the
// band sealed and the history was exhausted (check Err for a retention
// miss).
func (t *Tail) C() <-chan Item { return t.out }

// Err reports why the tail ended, once C is closed: nil for a clean end
// of stream, ErrTruncated for a retention miss.
func (t *Tail) Err() error {
	t.errMu.Lock()
	defer t.errMu.Unlock()
	return t.err
}

// Close stops the tail and releases everything it still holds. Safe to
// call twice and concurrently with consumption.
func (t *Tail) Close() {
	t.stopOnce.Do(func() { close(t.stop) })
}

func (t *Tail) setErr(err error) {
	t.errMu.Lock()
	t.err = err
	t.errMu.Unlock()
}

func (t *Tail) run() {
	defer close(t.out)
	for {
		select {
		case <-t.stop:
			return
		default:
		}
		recs, err := t.b.readAfter(t.last, replayBatch, &t.rbuf)
		if err != nil {
			t.setErr(err)
			return
		}
		if len(recs) > 0 {
			for i, r := range recs {
				select {
				case t.out <- Item{Seq: r.seq, C: r.c}:
					t.last = r.seq
				case <-t.stop:
					releaseRecs(recs[i:])
					return
				}
			}
			continue
		}
		// Caught up. Under the band lock, either more arrived meanwhile
		// (replay again), the band is sealed (clean end), or we attach as
		// a live tail — the atomic replay→live handoff.
		t.b.mu.Lock()
		if t.b.nextSeq-1 > t.last {
			t.b.mu.Unlock()
			continue
		}
		if t.b.sealed {
			t.b.mu.Unlock()
			return
		}
		t.live = make(chan Item, liveTailBuf)
		t.attached = true
		t.b.tails = append(t.b.tails, t)
		t.b.mu.Unlock()

		if !t.liveLoop() {
			return
		}
		// The live channel closed: the band sealed or this tail lagged and
		// was detached. Either way, loop back to store replay from t.last —
		// it resolves both (drains the backlog, then sees sealed).
	}
}

// liveLoop forwards live items until the live channel closes (returns
// true: re-enter replay) or the tail is stopped (returns false, after
// detaching and draining).
func (t *Tail) liveLoop() bool {
	for {
		select {
		case it, ok := <-t.live:
			if !ok {
				return true
			}
			if it.Seq <= t.last {
				// A tail whose resume point is ahead of the live edge (a
				// cursor from the future) attaches early; skip until caught.
				it.C.Release()
				continue
			}
			select {
			case t.out <- it:
				t.last = it.Seq
			case <-t.stop:
				it.C.Release()
				t.detachAndDrain()
				return false
			}
		case <-t.stop:
			t.detachAndDrain()
			return false
		}
	}
}

// detachAndDrain removes the tail from the band (if still attached) and
// releases everything buffered in its live channel.
func (t *Tail) detachAndDrain() {
	t.b.mu.Lock()
	if t.attached {
		t.attached = false
		for i, tl := range t.b.tails {
			if tl == t {
				t.b.tails = append(t.b.tails[:i], t.b.tails[i+1:]...)
				break
			}
		}
		close(t.live)
	}
	t.b.mu.Unlock()
	for it := range t.live {
		it.C.Release()
	}
}
