package dsms

import (
	"encoding/binary"
	"errors"
	"net/http"
	"sync/atomic"
	"time"

	"geostreams/internal/ws"
)

// The WebSocket delivery hub (DESIGN.md §15): GET /queries/{id}/ws
// upgrades to a push subscription over the query's shared frame cache.
// Each connection owns one FrameSub cursor; the writer goroutine awaits
// frames and pushes them as binary messages, a ping/pong lifecycle kills
// dead peers, and per-message write deadlines stop a stalled socket from
// pinning the connection goroutine. Frames are shared by reference —
// WriteBinaryParts sends the header and the cached PNG backing without
// per-subscriber copies.

const (
	// wsWriteTimeout bounds one frame or control write.
	wsWriteTimeout = 5 * time.Second
	// wsPingEvery is the keep-alive cadence; a peer that answers no ping
	// within wsPongGrace is dead and its connection is dropped.
	wsPingEvery = 20 * time.Second
	// wsFrameHeader is the fixed prefix of one binary frame message:
	// seq u64 | sector i64 | width u32 | height u32 | shed u64, big-endian,
	// followed by the PNG bytes.
	wsFrameHeader = 32
	// wsNextPoll bounds one FrameSub wait so the writer loop can service
	// the ping ticker and shutdown promptly.
	wsNextPoll = 250 * time.Millisecond
)

// wsHubStats aggregates the hub's counters across connections.
type wsHubStats struct {
	conns      atomic.Int64
	connsTotal atomic.Int64
	frames     atomic.Int64
	frameBytes atomic.Int64
	pings      atomic.Int64
	pongMiss   atomic.Int64
}

// WSStats is the JSON form of the WebSocket hub telemetry.
type WSStats struct {
	ActiveConnections int64 `json:"active_connections"`
	ConnectionsTotal  int64 `json:"connections_total"`
	Frames            int64 `json:"frames"`
	FrameBytes        int64 `json:"frame_bytes"`
	Pings             int64 `json:"pings"`
	PongMisses        int64 `json:"pong_misses"`
}

// WSStats snapshots the WebSocket delivery hub counters.
func (s *Server) WSStats() WSStats {
	return WSStats{
		ActiveConnections: s.wsStats.conns.Load(),
		ConnectionsTotal:  s.wsStats.connsTotal.Load(),
		Frames:            s.wsStats.frames.Load(),
		FrameBytes:        s.wsStats.frameBytes.Load(),
		Pings:             s.wsStats.pings.Load(),
		PongMisses:        s.wsStats.pongMiss.Load(),
	}
}

func (s *Server) wsPingInterval() time.Duration {
	if s.wsPingEvery > 0 {
		return s.wsPingEvery
	}
	return wsPingEvery
}

// handleWS serves GET /queries/{id}/ws.
func (s *Server) handleWS(w http.ResponseWriter, r *http.Request) {
	reg, ok := s.lookup(w, r)
	if !ok {
		return
	}
	c, err := ws.Upgrade(w, r) // writes its own error response on failure
	if err != nil {
		return
	}
	s.wsStats.conns.Add(1)
	s.wsStats.connsTotal.Add(1)
	defer s.wsStats.conns.Add(-1)
	defer c.Close()

	sub := reg.SubscribeFrames()
	defer sub.Close()

	pingEvery := s.wsPingInterval()
	pongGrace := 3 * pingEvery
	// The writer services the ping ticker between frame waits, so one wait
	// must never outlast the ping cadence or the peer's pong can't arrive
	// before its grace deadline.
	poll := wsNextPoll
	if half := pingEvery / 2; half < poll {
		poll = half
	}
	if poll <= 0 {
		poll = time.Millisecond
	}

	// Reader: drain pongs (each one extends the read deadline), answer
	// pings, and surface a peer close or socket death to the writer.
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		// The first ping leaves up to one ping interval after the
		// handshake; allow for it before the grace clock starts.
		c.SetReadDeadline(time.Now().Add(pingEvery + pongGrace)) //nolint:errcheck
		for {
			op, p, err := c.ReadMessage()
			if err != nil {
				var to interface{ Timeout() bool }
				if errors.As(err, &to) && to.Timeout() {
					s.wsStats.pongMiss.Add(1)
				}
				return
			}
			switch op {
			case ws.OpPong:
				c.SetReadDeadline(time.Now().Add(pongGrace)) //nolint:errcheck
			case ws.OpPing:
				if err := c.WritePong(p, time.Now().Add(wsWriteTimeout)); err != nil {
					return
				}
			}
		}
	}()

	ping := time.NewTicker(pingEvery)
	defer ping.Stop()
	var hdr [wsFrameHeader]byte
	for {
		select {
		case <-readerDone:
			return
		case <-s.ctx.Done():
			c.WriteClose(1001, "server shutting down", time.Now().Add(wsWriteTimeout)) //nolint:errcheck
			return
		case <-ping.C:
			if err := c.WritePing(nil, time.Now().Add(wsWriteTimeout)); err != nil {
				return
			}
			s.wsStats.pings.Add(1)
		default:
		}
		f, ok := sub.Next(poll)
		if !ok {
			if sub.Ended() {
				// Detach before the close frame goes out, so a peer that
				// has seen "query ended" never finds this connection still
				// counted as a subscriber.
				sub.Close()
				c.WriteClose(1000, "query ended", time.Now().Add(wsWriteTimeout)) //nolint:errcheck
				// Give the peer a beat to answer the close handshake.
				select {
				case <-readerDone:
				case <-time.After(wsWriteTimeout):
				}
				return
			}
			continue
		}
		binary.BigEndian.PutUint64(hdr[0:8], f.Seq)
		binary.BigEndian.PutUint64(hdr[8:16], uint64(int64(f.Sector)))
		binary.BigEndian.PutUint32(hdr[16:20], uint32(f.Width))
		binary.BigEndian.PutUint32(hdr[20:24], uint32(f.Height))
		binary.BigEndian.PutUint64(hdr[24:32], uint64(sub.Shed()))
		err := c.WriteBinaryParts(time.Now().Add(wsWriteTimeout), hdr[:], f.PNG)
		n := len(f.PNG)
		f.Release()
		if err != nil {
			return
		}
		s.wsStats.frames.Add(1)
		s.wsStats.frameBytes.Add(int64(wsFrameHeader + n))
	}
}

// WSFrame is one decoded WebSocket frame message (client side).
type WSFrame struct {
	Seq    uint64
	Sector int64
	Width  int
	Height int
	Shed   uint64
	PNG    []byte
}

// DecodeWSFrame parses one binary frame message from the hub.
func DecodeWSFrame(p []byte) (WSFrame, error) {
	if len(p) < wsFrameHeader {
		return WSFrame{}, errors.New("dsms: ws frame message shorter than header")
	}
	return WSFrame{
		Seq:    binary.BigEndian.Uint64(p[0:8]),
		Sector: int64(binary.BigEndian.Uint64(p[8:16])),
		Width:  int(binary.BigEndian.Uint32(p[16:20])),
		Height: int(binary.BigEndian.Uint32(p[20:24])),
		Shed:   binary.BigEndian.Uint64(p[24:32]),
		PNG:    p[wsFrameHeader:],
	}, nil
}
