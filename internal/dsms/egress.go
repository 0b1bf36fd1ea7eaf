package dsms

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"geostreams/internal/obs/trace"
	"geostreams/internal/query"
	"geostreams/internal/stream"
	"geostreams/internal/wire"
)

// The egress edge of the DSMS: GET /queries/{id}/stream upgrades the
// HTTP connection to GSP and pushes the query's output chunks under
// credit-based flow control. The client grants N-chunk credits (an
// initial window on connect, top-ups as it consumes); the server never
// buffers more than the credit window per subscriber — a chunk arriving
// with the subscriber's credit exhausted is dropped and counted
// (geostreams_wire_backpressure_dropped_total), never queued and never
// allowed to block the hub or the delivery stage.

// maxEgressWindow caps the per-subscriber tap buffer a client may ask
// for with ?window=.
const maxEgressWindow = 4096

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	reg, ok := s.lookup(w, r)
	if !ok {
		return
	}
	window := wire.DefaultWindow
	if ws := r.URL.Query().Get("window"); ws != "" {
		v, err := strconv.Atoi(ws)
		if err != nil || v < 1 || v > maxEgressWindow {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("bad window %q (want 1..%d)", ws, maxEgressWindow))
			return
		}
		window = v
	}
	// ?trace=1 asks for the chunk-frame trace extension: the server's
	// hello confirms it and every chunk frame carries the trailing trace
	// ID. Old clients never ask and get base frames bit-identically.
	traced := r.URL.Query().Get("trace") == "1"
	// ?cursors=1 asks for the resume extension: the hello confirms it and
	// the server emits a cursor frame after each sector boundary, naming
	// the store sequence of every input band's EOS record. ?resume=<cursor>
	// redials a previous subscription from such a cursor: history replays
	// from the store through a fresh instance of the query pipeline, then
	// hands off to live — exactly once, so delivery blocks on exhausted
	// credit instead of shedding. Old clients ask for neither and get the
	// pre-existing protocol bit-identically.
	cursors := r.URL.Query().Get("cursors") == "1"
	var resumeSpecs []spliceSpec
	resuming := false
	if rp := r.URL.Query().Get("resume"); rp != "" {
		cur, err := wire.ParseCursor(rp)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad resume cursor: %w", err))
			return
		}
		specs, err := s.resumeSpecs(reg, cur)
		if err != nil {
			code := http.StatusBadRequest
			var gone errCursorGone
			if errors.As(err, &gone) {
				// The cursor fell off the retention horizon: a fresh
				// subscription is the client's only option.
				code = http.StatusGone
			}
			writeErr(w, code, err)
			return
		}
		resumeSpecs, resuming = specs, true
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		writeErr(w, http.StatusInternalServerError,
			errors.New("connection does not support upgrade"))
		return
	}
	conn, bufrw, err := hj.Hijack()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	if resuming {
		go s.serveResume(reg, conn, bufrw, resumeSpecs)
		return
	}
	go s.serveSubscription(reg, conn, bufrw, window, traced, cursors)
}

// serveSubscription runs one push subscriber: 101 upgrade, hello, then
// chunks as credit allows, with heartbeats while idle. The read half
// carries the client's credit grants and its bye. With cursors on, a
// cursor frame follows every sector boundary whose input-band EOS marks
// are stored, giving the client its resume point.
func (s *Server) serveSubscription(reg *Registered, conn net.Conn, bufrw *bufio.ReadWriter, window int, traced, cursors bool) {
	log := s.logger().With("query", int64(reg.ID), "remote", conn.RemoteAddr().String())
	tap := reg.taps.Attach(window)
	defer tap.Close()
	defer conn.Close()

	conn.SetWriteDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, err := bufrw.WriteString("HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: gsp\r\nConnection: Upgrade\r\n\r\n"); err != nil {
		return
	}
	if err := bufrw.Flush(); err != nil {
		return
	}
	wr := wire.NewWriter(conn)
	if err := wr.HelloFlags(reg.Info, wire.HelloFlags{Trace: traced, Resume: cursors}); err != nil {
		return
	}
	log.Info("subscriber attached", "window", window, "traced", traced, "cursors", cursors)

	// Read half: credit grants, client heartbeats, and the client's bye.
	// The idle deadline is safe because wire.Subscription heartbeats every
	// DefaultHeartbeat even when it has no credit to grant — a timeout
	// here means the client is actually gone, not merely idle. Closing
	// conn (from the write half's defer) unblocks the read and ends this
	// goroutine.
	done := make(chan struct{})
	go func() {
		defer close(done)
		rd := wire.NewReader(bufrw.Reader)
		for {
			conn.SetReadDeadline(time.Now().Add(wire.DefaultIdleTimeout)) //nolint:errcheck
			f, err := rd.Next()
			if err != nil {
				return
			}
			switch f.Type {
			case wire.FrameCredit:
				n, err := wire.DecodeCredit(f.Payload)
				if err != nil {
					return
				}
				tap.Grant(int(n))
			case wire.FrameHeartbeat:
			case wire.FrameBye:
				return
			default:
				return
			}
		}
	}()

	hb := time.NewTicker(wire.DefaultHeartbeat)
	defer hb.Stop()
	write := func(send func(*wire.Writer) error) bool {
		conn.SetWriteDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
		return send(wr) == nil
	}
	for {
		select {
		case c, ok := <-tap.C():
			if !ok {
				// Query finished or was deregistered: a clean end.
				write(func(w *wire.Writer) error { return w.Bye() })
				log.Info("subscriber stream ended",
					"delivered", tap.Delivered(), "dropped", tap.Dropped())
				return
			}
			var begin time.Time
			if c.Trace != 0 {
				begin = time.Now()
			}
			boundary := cursors && c.Kind == stream.KindEndOfSector
			sector := int64(c.T)
			if !write(func(w *wire.Writer) error { return w.ChunkExt(c, traced) }) {
				c.Release()
				log.Info("subscriber connection lost",
					"delivered", tap.Delivered(), "dropped", tap.Dropped())
				return
			}
			if c.Trace != 0 {
				reg.trace.Record(c.Trace, trace.StageWireEgress,
					conn.RemoteAddr().String(),
					begin, time.Since(begin), int64(c.T), !c.IsData())
			}
			// The tap's reference: this subscriber is done with the chunk
			// once it is on the wire.
			c.Release()
			if boundary {
				// Every input-band EOS for this sector is already stored:
				// the store append happens before hub routing delivers, and
				// the pipeline emits its boundary only after consuming all
				// of them.
				if cur, ok := s.cursorAt(reg, sector); ok {
					if !write(func(w *wire.Writer) error { return w.Cursor(cur) }) {
						return
					}
				}
			}
		case <-hb.C:
			if !write(func(w *wire.Writer) error { return w.Heartbeat() }) {
				return
			}
		case <-done:
			log.Info("subscriber detached",
				"delivered", tap.Delivered(), "dropped", tap.Dropped())
			return
		case <-reg.gone:
			// The query was deregistered; its product may live on for
			// other handles, but this subscription ends here.
			write(func(w *wire.Writer) error { return w.Bye() })
			return
		case <-s.ctx.Done():
			write(func(w *wire.Writer) error { return w.Bye() })
			return
		}
	}
}

// serveResume runs one resuming push subscriber: a shadow instance of
// the query pipeline is rebuilt over spliced store sources starting at
// the client's cursor, so the chunk sequence continues from the
// acknowledged sector boundary exactly as an uninterrupted subscription
// would have — replayed history first, then live, exactly once. Unlike
// the best-effort tap path, delivery here blocks on exhausted credit
// (heartbeating while it waits) instead of shedding: replay must not
// lose chunks to a client that is still ramping its window.
func (s *Server) serveResume(reg *Registered, conn net.Conn, bufrw *bufio.ReadWriter, specs []spliceSpec) {
	log := s.logger().With("query", int64(reg.ID), "remote", conn.RemoteAddr().String())
	defer conn.Close()

	qg := stream.NewGroup(s.ctx)
	if !reg.addShadow(qg) {
		// Deregistered while we were setting up.
		return
	}
	defer reg.removeShadow(qg)
	sources, detach := spliceStreams(qg, specs)
	out, _, err := query.Build(qg, reg.Plan, sources)
	if err != nil {
		qg.Cancel()
		detach()
		log.Error("resume pipeline failed to build", "error", err.Error())
		return
	}
	stopRead := make(chan struct{})
	defer func() {
		close(stopRead)
		qg.Cancel()
		detach()
		stream.DrainReleasing(out.C)
	}()

	conn.SetWriteDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, err := bufrw.WriteString("HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: gsp\r\nConnection: Upgrade\r\n\r\n"); err != nil {
		return
	}
	if err := bufrw.Flush(); err != nil {
		return
	}
	wr := wire.NewWriter(conn)
	if err := wr.HelloFlags(reg.Info, wire.HelloFlags{Resume: true}); err != nil {
		return
	}
	log.Info("resume subscriber attached", "bands", int64(len(specs)))

	// Read half: credit grants, client heartbeats, and the client's bye.
	done := make(chan struct{})
	credits := make(chan int, 64)
	go func() {
		defer close(done)
		rd := wire.NewReader(bufrw.Reader)
		for {
			conn.SetReadDeadline(time.Now().Add(wire.DefaultIdleTimeout)) //nolint:errcheck
			f, err := rd.Next()
			if err != nil {
				return
			}
			switch f.Type {
			case wire.FrameCredit:
				n, err := wire.DecodeCredit(f.Payload)
				if err != nil {
					return
				}
				select {
				case credits <- int(n):
				case <-stopRead:
					return
				}
			case wire.FrameHeartbeat:
			case wire.FrameBye:
				return
			default:
				return
			}
		}
	}()

	hb := time.NewTicker(wire.DefaultHeartbeat)
	defer hb.Stop()
	write := func(send func(*wire.Writer) error) bool {
		conn.SetWriteDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
		return send(wr) == nil
	}
	credit := 0
	var delivered int64
	shadow := qg.Context()
	for {
		select {
		case c, ok := <-out.C:
			if !ok {
				// History exhausted and the band sealed (a dead-but-stored
				// band serves its full retained history first), or the
				// query was deregistered: either way a clean end.
				write(func(w *wire.Writer) error { return w.Bye() })
				log.Info("resume stream ended", "delivered", delivered)
				return
			}
			if c.IsData() {
				for credit <= 0 {
					select {
					case n := <-credits:
						credit += n
					case <-hb.C:
						if !write(func(w *wire.Writer) error { return w.Heartbeat() }) {
							c.Release()
							return
						}
					case <-done:
						c.Release()
						return
					case <-shadow.Done():
						c.Release()
						write(func(w *wire.Writer) error { return w.Bye() })
						return
					}
				}
				credit--
			}
			boundary := c.Kind == stream.KindEndOfSector
			sector := int64(c.T)
			if !write(func(w *wire.Writer) error { return w.ChunkExt(c, false) }) {
				c.Release()
				log.Info("resume connection lost", "delivered", delivered)
				return
			}
			c.Release()
			delivered++
			if boundary {
				if cur, ok := s.cursorAt(reg, sector); ok {
					if !write(func(w *wire.Writer) error { return w.Cursor(cur) }) {
						return
					}
				}
			}
		case n := <-credits:
			credit += n
		case <-hb.C:
			if !write(func(w *wire.Writer) error { return w.Heartbeat() }) {
				return
			}
		case <-done:
			log.Info("resume subscriber detached", "delivered", delivered)
			return
		case <-shadow.Done():
			write(func(w *wire.Writer) error { return w.Bye() })
			return
		}
	}
}

// WireStats is the JSON form of one query's push-subscription telemetry.
type WireStats struct {
	SubscribersTotal  int64 `json:"subscribers_total"`
	ActiveSubscribers int   `json:"active_subscribers"`
	DeliveredChunks   int64 `json:"delivered_chunks"`
	// DroppedChunks counts data chunks not enqueued to a subscriber
	// because its credit was exhausted or its buffer full — the visible
	// face of backpressure on a slow consumer.
	DroppedChunks int64 `json:"dropped_chunks"`
}

// WireStats snapshots the query's push-subscription counters.
func (r *Registered) WireStats() WireStats {
	attached, active, delivered, dropped := r.taps.Stats()
	return WireStats{
		SubscribersTotal:  attached,
		ActiveSubscribers: active,
		DeliveredChunks:   delivered,
		DroppedChunks:     dropped,
	}
}
