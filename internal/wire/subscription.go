package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"geostreams/internal/stream"
)

// Subscription is the client half of a GSP egress connection: it reads
// chunk frames and manages the credit window, granting the server more
// credit as chunks are consumed so a prompt reader never starves the
// sender while a slow reader naturally throttles it. A background ticker
// emits heartbeats on the write half — heartbeats flow both directions,
// so the server's idle timeout only fires when the client is actually
// gone, never merely because a healthy query had nothing to deliver.
type Subscription struct {
	conn   net.Conn
	rd     *Reader
	window int
	// consumed counts data chunks delivered to the caller since the last
	// grant; the window is topped up once half of it has been used.
	consumed int
	// Info is the query output stream's metadata from the server's hello.
	Info stream.Info
	// traced is set when the server's hello confirmed the chunk-frame
	// trace extension for this connection.
	traced bool
	// resumed is set when the server's hello confirmed the resume
	// extension: cursor frames follow end-of-sector chunks.
	resumed bool
	// lastCursor is the most recent cursor frame received; guarded by cmu
	// so a redial loop can read it from another goroutine.
	cmu        sync.Mutex
	lastCursor *Cursor
	// IdleTimeout bounds the wait for any frame (heartbeats included);
	// DefaultIdleTimeout if zero.
	IdleTimeout time.Duration

	// The write half is shared between the caller's credit grants, the
	// heartbeat goroutine, and Close's bye; wmu serializes them.
	wmu    sync.Mutex
	wr     *Writer
	closed bool
	hbStop chan struct{}
}

// ErrServer is wrapped by Next when the server terminated the
// subscription with an error frame.
var ErrServer = errors.New("wire: server error")

// NewSubscription speaks the egress protocol on an established
// connection (the HTTP upgrade has already happened): it reads the
// server's hello, grants the initial credit window, and starts the
// client-side heartbeat ticker. br carries any bytes already buffered
// during the handshake; pass nil to read straight from conn.
func NewSubscription(conn net.Conn, br *bufio.Reader, window int) (*Subscription, error) {
	if window <= 0 {
		window = DefaultWindow
	}
	var src io.Reader = conn
	if br != nil {
		src = br
	}
	s := &Subscription{
		conn: conn, rd: NewReader(src), wr: NewWriter(conn),
		window: window, hbStop: make(chan struct{}),
	}
	conn.SetReadDeadline(time.Now().Add(DefaultIdleTimeout)) //nolint:errcheck
	f, err := s.rd.Next()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: subscribe: %w", err)
	}
	if f.Type != FrameHello {
		conn.Close()
		return nil, fmt.Errorf("wire: subscribe: first frame is %s, want hello", FrameTypeName(f.Type))
	}
	info, flags, err := ParseHelloFlags(f.Payload)
	if err != nil {
		conn.Close()
		return nil, err
	}
	s.Info = info
	s.traced = flags.Trace
	s.resumed = flags.Resume
	if err := s.write(func(w *Writer) error { return w.Credit(uint32(window)) }); err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: subscribe: initial credit: %w", err)
	}
	go s.heartbeatLoop()
	return s, nil
}

// write sends one control frame under the write lock, refusing after
// Close.
func (s *Subscription) write(send func(*Writer) error) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.conn.SetWriteDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	return send(s.wr)
}

// heartbeatLoop keeps the server's read deadline advancing while the
// client has no credit to grant — an idle or slow query must not look
// like a dead client. It stops on Close or on the first write failure
// (the caller's next write or read surfaces the broken connection).
func (s *Subscription) heartbeatLoop() {
	t := time.NewTicker(DefaultHeartbeat)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if s.write(func(w *Writer) error { return w.Heartbeat() }) != nil {
				return
			}
		case <-s.hbStop:
			return
		}
	}
}

// Next returns the next chunk. It returns io.EOF after the server's bye
// frame (clean end: the query finished or was deregistered), and a
// wrapped ErrServer if the server sent an error frame.
func (s *Subscription) Next() (*stream.Chunk, error) {
	idle := s.IdleTimeout
	if idle <= 0 {
		idle = DefaultIdleTimeout
	}
	for {
		s.conn.SetReadDeadline(time.Now().Add(idle)) //nolint:errcheck
		f, err := s.rd.Next()
		if err != nil {
			return nil, err
		}
		switch f.Type {
		case FrameHeartbeat:
			continue
		case FrameBye:
			return nil, io.EOF
		case FrameError:
			return nil, fmt.Errorf("%w: %s", ErrServer, f.Payload)
		case FrameCursor:
			cur, err := DecodeCursor(f.Payload)
			if err != nil {
				return nil, err
			}
			s.cmu.Lock()
			s.lastCursor = &cur
			s.cmu.Unlock()
			continue
		case FrameChunk:
			c, err := DecodeChunkExt(f.Payload, s.traced)
			if err != nil {
				return nil, err
			}
			if c.IsData() {
				// Top up the window once half of it is consumed, so the
				// server is never starved by grant latency.
				s.consumed++
				if s.consumed >= s.window/2 || s.window == 1 {
					n := s.consumed
					if err := s.write(func(w *Writer) error { return w.Credit(uint32(n)) }); err != nil {
						return nil, fmt.Errorf("wire: credit grant: %w", err)
					}
					s.consumed = 0
				}
			}
			return c, nil
		default:
			return nil, fmt.Errorf("wire: unexpected %s frame on subscription", FrameTypeName(f.Type))
		}
	}
}

// Resumed reports whether the server confirmed the resume extension,
// i.e. whether cursor frames follow end-of-sector chunks.
func (s *Subscription) Resumed() bool { return s.resumed }

// LastCursor returns the most recent resume cursor the server sent, and
// whether one has been received yet. Safe to call from a goroutine other
// than the Next loop (a redial loop holding its last-known position).
func (s *Subscription) LastCursor() (Cursor, bool) {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	if s.lastCursor == nil {
		return Cursor{}, false
	}
	return *s.lastCursor, true
}

// Close ends the subscription: the heartbeat ticker stops, a best-effort
// bye goes out, then the connection closes. Safe to call twice.
func (s *Subscription) Close() error {
	s.wmu.Lock()
	if s.closed {
		s.wmu.Unlock()
		return nil
	}
	s.closed = true
	close(s.hbStop)
	s.conn.SetWriteDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	s.wr.Bye()                                               //nolint:errcheck // best-effort
	s.wmu.Unlock()
	return s.conn.Close()
}
