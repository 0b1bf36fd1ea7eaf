package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"geostreams/internal/dsms"
	"geostreams/internal/wire"
)

// latencyLimit is the frame-latency limit: a frame later than this after
// its sector was due counts as failed.
const latencyLimit = time.Second

// span is one client-side trace record. Spans of one sector share its
// number as identifier; Parent names the enclosing span ("" for the root).
type span struct {
	Name   string `json:"name"`
	Sector int64  `json:"sector"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the untraced run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (t *tracer) add(name string, sector int64, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name, sector, parent, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// timedConn accumulates the time spent inside socket writes, i.e. how
// long ingest back-pressure held the generator.
type timedConn struct {
	net.Conn
	blocked *time.Duration
}

func (c timedConn) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := c.Conn.Write(p)
	*c.blocked += time.Since(t)
	return n, err
}

// sent records one sector the feeder wrote.
type sent struct {
	due, start, end time.Time
}

// feeder is the single generator goroutine's state: one GSP connection
// per band, written in lockstep.
type feeder struct {
	in      *inputs
	conns   []net.Conn
	wr      []*wire.Writer
	tr      *tracer       // nil when tracing is off
	blocked time.Duration // time inside socket writes
	sent    []sent        // indexed by sector number
}

// dialFeeds opens one GSP connection per band and announces it.
func dialFeeds(addr string, in *inputs) (*feeder, error) {
	f := &feeder{in: in}
	for _, b := range bands {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			f.close()
			return nil, err
		}
		f.conns = append(f.conns, conn)
		wr := wire.NewWriter(timedConn{conn, &f.blocked})
		if err := wr.Hello(in.infos[b]); err != nil {
			f.close()
			return nil, fmt.Errorf("hello %s: %w", b, err)
		}
		f.wr = append(f.wr, wr)
	}
	return f, nil
}

func (f *feeder) close() {
	for _, c := range f.conns {
		c.Close()
	}
}

// send writes the next sector, stamped with the next sector number, both
// bands in lockstep chunk by chunk.
func (f *feeder) send(due time.Time) error {
	n := int64(len(f.sent))
	cyc := int(n % cycleSectors)
	start := time.Now()
	for _, b := range bands {
		stamp(f.in.chunks[b][cyc], n, start.UnixNano())
	}
	var bandEnd [2]time.Time
	for i := range f.in.chunks[bands[0]][cyc] {
		for bi, b := range bands {
			if err := f.wr[bi].Chunk(f.in.chunks[b][cyc][i]); err != nil {
				return fmt.Errorf("feed %s sector %d: %w", b, n, err)
			}
			if f.tr != nil {
				bandEnd[bi] = time.Now()
			}
		}
	}
	end := time.Now()
	f.sent = append(f.sent, sent{due, start, end})
	for bi, b := range bands {
		f.tr.add("feed."+b, n, "sector", start, bandEnd[bi])
	}
	return nil
}

// frameRec is one frame a viewer received.
type frameRec struct {
	first, last, checked time.Time // first is set on traced WebSocket reads only
	ok                   bool      // digest matched and the sector arrived once
}

// viewer is one client connection and its reader goroutine.
type viewer struct {
	ref  *reference
	tr   atomic.Pointer[tracer] // nil when tracing is off
	done chan struct{}          // closed when the reader goroutine has returned

	maxSector atomic.Int64  // highest sector received, -1 before the first
	arrived   chan struct{} // capacity 1: a frame arrived since the last wait

	mu   sync.Mutex
	recs map[int64]frameRec
}

func newViewer(ref *reference) *viewer {
	v := &viewer{ref: ref, done: make(chan struct{}),
		arrived: make(chan struct{}, 1), recs: map[int64]frameRec{}}
	v.maxSector.Store(-1)
	return v
}

// record checks a frame against the oracle digest of its cycle sector.
func (v *viewer) record(sector int64, first, last time.Time, png []byte) {
	ok := sector >= 0 && sha256.Sum256(png) == v.ref.digests[sector%cycleSectors]
	rec := frameRec{first: first, last: last, ok: ok}
	if tr := v.tr.Load(); tr != nil {
		rec.checked = time.Now()
		if !first.IsZero() {
			tr.add("viewer.read", sector, "sector", first, last)
		}
		tr.add("check", sector, "sector", last, rec.checked)
	}
	v.mu.Lock()
	if _, dup := v.recs[sector]; dup {
		rec.ok = false
	}
	v.recs[sector] = rec
	v.mu.Unlock()
	if sector > v.maxSector.Load() {
		v.maxSector.Store(sector)
	}
	select {
	case v.arrived <- struct{}{}:
	default:
	}
}

// waitSector blocks until the viewer has received sector n or the deadline
// passes.
func (v *viewer) waitSector(n int64, deadline time.Time) bool {
	for v.maxSector.Load() < n {
		d := time.Until(deadline)
		if d <= 0 {
			return false
		}
		select {
		case <-v.arrived:
		case <-v.done:
			return v.maxSector.Load() >= n
		case <-time.After(d):
		}
	}
	return true
}

// wsFrameHeader is the hub's binary message header: seq, sector, width,
// height, shed (see dsms.DecodeWSFrame).
const wsFrameHeader = 32

// watchWS attaches a WebSocket viewer. It speaks the client side of RFC
// 6455 itself so the reader can time a frame's first and last byte; the
// server never fragments and never masks.
func watchWS(addr string, id int64, v *viewer) error {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return err
	}
	fmt.Fprintf(conn, "GET /queries/%d/ws HTTP/1.1\r\nHost: %s\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n"+
		"Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\nSec-WebSocket-Version: 13\r\n\r\n", id, addr)
	br := bufio.NewReaderSize(conn, 64<<10)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		conn.Close()
		return err
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		conn.Close()
		return fmt.Errorf("ws upgrade refused: %s", resp.Status)
	}
	go func() {
		defer close(v.done)
		defer conn.Close()
		readWS(conn, br, v) //nolint:errcheck // ends when the server is killed; a frame it misses fails in score
	}()
	return nil
}

// readWS reads frames until the connection ends.
func readWS(conn net.Conn, br *bufio.Reader, v *viewer) error {
	var buf []byte
	for {
		var h [2]byte
		if _, err := io.ReadFull(br, h[:]); err != nil {
			return err
		}
		var first time.Time
		if v.tr.Load() != nil {
			first = time.Now()
		}
		n := uint64(h[1] & 0x7f)
		switch n {
		case 126:
			var ext [2]byte
			if _, err := io.ReadFull(br, ext[:]); err != nil {
				return err
			}
			n = uint64(binary.BigEndian.Uint16(ext[:]))
		case 127:
			var ext [8]byte
			if _, err := io.ReadFull(br, ext[:]); err != nil {
				return err
			}
			n = binary.BigEndian.Uint64(ext[:])
		}
		if h[0]&0x80 == 0 || h[1]&0x80 != 0 || n > 64<<20 {
			return errors.New("ws: fragmented, masked or oversized server frame")
		}
		if uint64(cap(buf)) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(br, buf); err != nil {
			return err
		}
		last := time.Now()
		switch h[0] & 0x0f {
		case 2: // binary: one frame
			if n < wsFrameHeader {
				return errors.New("ws: frame message shorter than its header")
			}
			sector := int64(binary.BigEndian.Uint64(buf[8:16]))
			v.record(sector, first, last, buf[wsFrameHeader:])
		case 9: // ping: answer with a pong masked by the zero key
			pong := append([]byte{0x8a, 0x80 | byte(n), 0, 0, 0, 0}, buf...)
			if _, err := conn.Write(pong); err != nil {
				return err
			}
		case 8:
			return io.EOF
		}
	}
}

// watchPoll attaches a cursor long-poll viewer on the frame cache.
func watchPoll(c *dsms.Client, id int64, v *viewer) {
	fc := c.Frames(id)
	go func() {
		defer close(v.done)
		for {
			f, ok, err := fc.Next(time.Second)
			if err != nil || (!ok && fc.Ended()) {
				return // the server was killed, or the query ended
			}
			if ok {
				v.record(f.Sector, time.Time{}, time.Now(), f.PNG)
			}
		}
	}()
}

// replayer is the history-replay workload's GSP subscriber: a cursor
// subscription that, when told to, closes and resumes from its first
// cursor, replaying the stored history until it converges on live.
type replayer struct {
	c        *dsms.Client
	id       int64
	live     *viewer       // the WebSocket viewer: its newest sector is the live edge
	wantPts  int           // points of one output sector
	resume   chan struct{} // closed to trigger the resume
	done     chan struct{}
	sub      *wire.Subscription
	err      error
	from     int64 // sector of the resume cursor
	attached time.Time
	caughtUp time.Time
	points   int64   // replayed up to the live edge
	sectors  []int64 // end-of-sector sequence of the resumed subscription
	short    int     // replayed sectors with missing points
}

func startReplayer(c *dsms.Client, id int64, live *viewer, wantPts int) (*replayer, error) {
	sub, err := c.SubscribeCursors(id, 4096)
	if err != nil {
		return nil, err
	}
	r := &replayer{c: c, id: id, live: live, wantPts: wantPts, sub: sub,
		resume: make(chan struct{}), done: make(chan struct{})}
	go func() {
		r.err = r.run()
		close(r.done)
	}()
	return r, nil
}

func (r *replayer) run() error {
	var first wire.Cursor
	have := false
	for resumed := false; !resumed; {
		c, err := r.sub.Next()
		if err != nil {
			return err
		}
		c.Release()
		if !have {
			first, have = r.sub.LastCursor()
		}
		select {
		case <-r.resume:
			resumed = have
		default:
		}
	}
	r.sub.Close()
	r.from = first.Sector
	r.attached = time.Now()
	sub, err := r.c.SubscribeResume(r.id, 4096, first)
	if err != nil {
		return fmt.Errorf("resume from %s: %w", first, err)
	}
	defer sub.Close()
	var total int64
	pts := 0
	for {
		c, err := sub.Next()
		if err != nil {
			return err
		}
		if c.IsData() {
			pts += c.NumPoints()
			continue
		}
		sector := int64(c.T)
		r.sectors = append(r.sectors, sector)
		if pts != r.wantPts {
			r.short++
		}
		total += int64(pts)
		pts = 0
		if r.caughtUp.IsZero() && sector >= r.live.maxSector.Load() {
			r.caughtUp = time.Now()
			r.points = total
		}
	}
}

// mptsPerSec is the replay rate from attach to the live edge.
func (r *replayer) mptsPerSec() float64 {
	return float64(r.points) / r.caughtUp.Sub(r.attached).Seconds() / 1e6
}

// check counts the replayed sectors that are missing, duplicated, out of
// order or short; attempted is every sector from the cursor to the last
// one seen.
func (r *replayer) check() (attempted, failed int) {
	if r.caughtUp.IsZero() {
		return 1, 1
	}
	want := r.from + 1
	for _, s := range r.sectors {
		if s != want {
			failed++
		}
		want = s + 1
	}
	return len(r.sectors), failed + r.short
}
