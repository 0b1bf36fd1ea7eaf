// Package ws is a minimal RFC 6455 WebSocket implementation over the
// standard library, sized for the DSMS delivery hub: HTTP upgrade
// (server) and dial (client), unfragmented and fragmented data messages,
// ping/pong/close control frames, client-side masking, and strict
// server-side mask enforcement. It deliberately omits extensions
// (permessage-deflate), subprotocol negotiation, and TLS dialing.
package ws

import (
	"bufio"
	"crypto/rand"
	"crypto/sha1"
	"crypto/tls"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"
)

// acceptGUID is the fixed key-digest suffix of RFC 6455 §1.3.
const acceptGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// Opcode identifies a WebSocket frame type.
type Opcode byte

// Frame opcodes (RFC 6455 §5.2).
const (
	opCont   Opcode = 0x0
	OpText   Opcode = 0x1
	OpBinary Opcode = 0x2
	OpClose  Opcode = 0x8
	OpPing   Opcode = 0x9
	OpPong   Opcode = 0xA
)

// DefaultMaxPayload bounds one assembled message; a peer exceeding it is
// a protocol error, not an allocation.
const DefaultMaxPayload = 8 << 20

// ErrTooLarge reports a message over the connection's payload bound.
var ErrTooLarge = errors.New("ws: message exceeds payload limit")

// Closed reports a clean close handshake initiated by the peer; Code and
// Reason carry the close frame's status.
type Closed struct {
	Code   uint16
	Reason string
}

func (c *Closed) Error() string {
	return fmt.Sprintf("ws: closed by peer (code %d, %q)", c.Code, c.Reason)
}

// Conn is one WebSocket connection. Reads must come from a single
// goroutine; writes are internally serialized so control frames (pong,
// ping, close) may be written concurrently with data frames.
type Conn struct {
	conn       net.Conn
	br         *bufio.Reader
	client     bool // mask outgoing frames
	maxPayload int

	wmu sync.Mutex

	// continuation-assembly state for fragmented messages
	asmOp  Opcode
	asmBuf []byte
	asming bool
}

// Accept computes the Sec-WebSocket-Accept digest for a client key.
func Accept(key string) string {
	h := sha1.Sum([]byte(key + acceptGUID))
	return base64.StdEncoding.EncodeToString(h[:])
}

// tokenIn reports whether a comma-separated header contains a token
// (case-insensitive) — "Connection: keep-alive, Upgrade" must match.
func tokenIn(header, token string) bool {
	for _, part := range strings.Split(header, ",") {
		if strings.EqualFold(strings.TrimSpace(part), token) {
			return true
		}
	}
	return false
}

// IsUpgrade reports whether the request asks for a WebSocket upgrade.
func IsUpgrade(r *http.Request) bool {
	return tokenIn(r.Header.Get("Connection"), "upgrade") &&
		strings.EqualFold(r.Header.Get("Upgrade"), "websocket")
}

// Upgrade hijacks the HTTP request into a server-side WebSocket
// connection, answering the 101 handshake. On a malformed handshake it
// writes the error response itself and returns the reason.
func Upgrade(w http.ResponseWriter, r *http.Request) (*Conn, error) {
	if r.Method != http.MethodGet {
		http.Error(w, "websocket upgrade requires GET", http.StatusMethodNotAllowed)
		return nil, errors.New("ws: upgrade method not GET")
	}
	if !IsUpgrade(r) {
		http.Error(w, "not a websocket handshake", http.StatusBadRequest)
		return nil, errors.New("ws: missing upgrade headers")
	}
	if v := r.Header.Get("Sec-WebSocket-Version"); v != "13" {
		w.Header().Set("Sec-WebSocket-Version", "13")
		http.Error(w, "unsupported websocket version", http.StatusBadRequest)
		return nil, fmt.Errorf("ws: unsupported version %q", v)
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		http.Error(w, "missing Sec-WebSocket-Key", http.StatusBadRequest)
		return nil, errors.New("ws: missing Sec-WebSocket-Key")
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "websocket unsupported", http.StatusInternalServerError)
		return nil, errors.New("ws: response writer cannot hijack")
	}
	conn, brw, err := hj.Hijack()
	if err != nil {
		return nil, fmt.Errorf("ws: hijack: %w", err)
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + Accept(key) + "\r\n\r\n"
	conn.SetWriteDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, err := conn.Write([]byte(resp)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("ws: handshake write: %w", err)
	}
	conn.SetWriteDeadline(time.Time{}) //nolint:errcheck
	return &Conn{conn: conn, br: brw.Reader, maxPayload: DefaultMaxPayload}, nil
}

// Dial connects a client WebSocket to a ws:// or http:// URL. Extra
// headers (e.g. Authorization) ride on the handshake request.
func Dial(rawURL string, hdr http.Header, timeout time.Duration) (*Conn, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("ws: bad url: %w", err)
	}
	host := u.Host
	useTLS := false
	switch u.Scheme {
	case "ws", "http":
		if u.Port() == "" {
			host += ":80"
		}
	case "wss", "https":
		useTLS = true
		if u.Port() == "" {
			host += ":443"
		}
	default:
		return nil, fmt.Errorf("ws: unsupported scheme %q", u.Scheme)
	}
	d := net.Dialer{Timeout: timeout}
	conn, err := d.Dial("tcp", host)
	if err != nil {
		return nil, err
	}
	if useTLS {
		conn = tls.Client(conn, &tls.Config{ServerName: u.Hostname()})
	}
	var keyBytes [16]byte
	if _, err := rand.Read(keyBytes[:]); err != nil {
		conn.Close()
		return nil, err
	}
	key := base64.StdEncoding.EncodeToString(keyBytes[:])
	path := u.RequestURI()
	if path == "" {
		path = "/"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "GET %s HTTP/1.1\r\nHost: %s\r\n", path, u.Host)
	b.WriteString("Upgrade: websocket\r\nConnection: Upgrade\r\n")
	fmt.Fprintf(&b, "Sec-WebSocket-Key: %s\r\nSec-WebSocket-Version: 13\r\n", key)
	for k, vs := range hdr {
		for _, v := range vs {
			fmt.Fprintf(&b, "%s: %s\r\n", k, v)
		}
	}
	b.WriteString("\r\n")
	if timeout > 0 {
		conn.SetDeadline(time.Now().Add(timeout)) //nolint:errcheck
	}
	if _, err := io.WriteString(conn, b.String()); err != nil {
		conn.Close()
		return nil, fmt.Errorf("ws: handshake write: %w", err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, &http.Request{Method: http.MethodGet})
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("ws: handshake read: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols {
		conn.Close()
		return nil, fmt.Errorf("ws: handshake refused: %s", resp.Status)
	}
	if got := resp.Header.Get("Sec-WebSocket-Accept"); got != Accept(key) {
		conn.Close()
		return nil, fmt.Errorf("ws: bad accept digest %q", got)
	}
	conn.SetDeadline(time.Time{}) //nolint:errcheck
	return &Conn{conn: conn, br: br, client: true, maxPayload: DefaultMaxPayload}, nil
}

// SetReadDeadline bounds subsequent reads.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.conn.SetReadDeadline(t) }

// Close tears the TCP connection down without a close handshake.
func (c *Conn) Close() error { return c.conn.Close() }

// WriteMessage writes one unfragmented frame, serialized against other
// writers; deadline bounds the write (zero = no deadline).
func (c *Conn) WriteMessage(op Opcode, p []byte, deadline time.Time) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.conn.SetWriteDeadline(deadline) //nolint:errcheck
	var hdr [14]byte
	hdr[0] = 0x80 | byte(op)
	n := 2
	l := len(p)
	switch {
	case l < 126:
		hdr[1] = byte(l)
	case l < 1<<16:
		hdr[1] = 126
		binary.BigEndian.PutUint16(hdr[2:4], uint16(l))
		n = 4
	default:
		hdr[1] = 127
		binary.BigEndian.PutUint64(hdr[2:10], uint64(l))
		n = 10
	}
	if c.client {
		hdr[1] |= 0x80
		var key [4]byte
		if _, err := rand.Read(key[:]); err != nil {
			return err
		}
		copy(hdr[n:], key[:])
		n += 4
		masked := make([]byte, l)
		for i := range p {
			masked[i] = p[i] ^ key[i&3]
		}
		p = masked
	}
	if _, err := c.conn.Write(hdr[:n]); err != nil {
		return err
	}
	if l == 0 {
		return nil
	}
	_, err := c.conn.Write(p)
	return err
}

// WriteBinaryParts writes one binary message whose payload is the
// concatenation of parts without copying them into a single buffer —
// the render-once fan-out path shares one frame backing across every
// subscriber. Server-side only: client frames must be masked, which
// requires transforming the payload.
func (c *Conn) WriteBinaryParts(deadline time.Time, parts ...[]byte) error {
	if c.client {
		return errors.New("ws: WriteBinaryParts requires the unmasked server side")
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.conn.SetWriteDeadline(deadline) //nolint:errcheck
	var hdr [10]byte
	hdr[0] = 0x80 | byte(OpBinary)
	n := 2
	switch {
	case total < 126:
		hdr[1] = byte(total)
	case total < 1<<16:
		hdr[1] = 126
		binary.BigEndian.PutUint16(hdr[2:4], uint16(total))
		n = 4
	default:
		hdr[1] = 127
		binary.BigEndian.PutUint64(hdr[2:10], uint64(total))
		n = 10
	}
	if _, err := c.conn.Write(hdr[:n]); err != nil {
		return err
	}
	for _, p := range parts {
		if len(p) == 0 {
			continue
		}
		if _, err := c.conn.Write(p); err != nil {
			return err
		}
	}
	return nil
}

// WritePing writes a ping control frame.
func (c *Conn) WritePing(p []byte, deadline time.Time) error {
	return c.WriteMessage(OpPing, p, deadline)
}

// WritePong answers a ping.
func (c *Conn) WritePong(p []byte, deadline time.Time) error {
	return c.WriteMessage(OpPong, p, deadline)
}

// WriteClose writes a close frame with a status code and reason.
func (c *Conn) WriteClose(code uint16, reason string, deadline time.Time) error {
	p := make([]byte, 2+len(reason))
	binary.BigEndian.PutUint16(p, code)
	copy(p[2:], reason)
	return c.WriteMessage(OpClose, p, deadline)
}

// readFrame reads one raw frame, unmasking and enforcing the mask rule
// for the connection's side.
func (c *Conn) readFrame() (op Opcode, fin bool, p []byte, err error) {
	var h [2]byte
	if _, err = io.ReadFull(c.br, h[:]); err != nil {
		return 0, false, nil, err
	}
	if h[0]&0x70 != 0 {
		return 0, false, nil, errors.New("ws: nonzero RSV bits (no extension negotiated)")
	}
	fin = h[0]&0x80 != 0
	op = Opcode(h[0] & 0x0f)
	masked := h[1]&0x80 != 0
	if c.client && masked {
		return 0, false, nil, errors.New("ws: server sent masked frame")
	}
	if !c.client && !masked {
		// RFC 6455 §5.1: a server MUST close on an unmasked client frame.
		return 0, false, nil, errors.New("ws: client sent unmasked frame")
	}
	length := int64(h[1] & 0x7f)
	switch length {
	case 126:
		var ext [2]byte
		if _, err = io.ReadFull(c.br, ext[:]); err != nil {
			return 0, false, nil, err
		}
		length = int64(binary.BigEndian.Uint16(ext[:]))
	case 127:
		var ext [8]byte
		if _, err = io.ReadFull(c.br, ext[:]); err != nil {
			return 0, false, nil, err
		}
		v := binary.BigEndian.Uint64(ext[:])
		if v > uint64(c.maxPayload) {
			return 0, false, nil, ErrTooLarge
		}
		length = int64(v)
	}
	if length > int64(c.maxPayload) {
		return 0, false, nil, ErrTooLarge
	}
	if op >= OpClose && (!fin || length > 125) {
		return 0, false, nil, errors.New("ws: malformed control frame")
	}
	var key [4]byte
	if masked {
		if _, err = io.ReadFull(c.br, key[:]); err != nil {
			return 0, false, nil, err
		}
	}
	p = make([]byte, length)
	if _, err = io.ReadFull(c.br, p); err != nil {
		return 0, false, nil, err
	}
	if masked {
		for i := range p {
			p[i] ^= key[i&3]
		}
	}
	return op, fin, p, nil
}

// ReadMessage returns the next complete message: a data message
// (OpText/OpBinary, continuation frames assembled) or a control frame
// (OpPing/OpPong), which may interleave mid-fragment. A peer-initiated
// close surfaces as *Closed.
func (c *Conn) ReadMessage() (Opcode, []byte, error) {
	for {
		op, fin, p, err := c.readFrame()
		if err != nil {
			return 0, nil, err
		}
		switch op {
		case opCont:
			if !c.asming {
				return 0, nil, errors.New("ws: continuation without start frame")
			}
			if len(c.asmBuf)+len(p) > c.maxPayload {
				return 0, nil, ErrTooLarge
			}
			c.asmBuf = append(c.asmBuf, p...)
			if fin {
				c.asming = false
				buf := c.asmBuf
				c.asmBuf = nil
				return c.asmOp, buf, nil
			}
		case OpText, OpBinary:
			if c.asming {
				return 0, nil, errors.New("ws: new data frame mid-fragment")
			}
			if fin {
				return op, p, nil
			}
			c.asming, c.asmOp = true, op
			c.asmBuf = append([]byte(nil), p...)
		case OpClose:
			cl := &Closed{Code: 1005}
			if len(p) >= 2 {
				cl.Code = binary.BigEndian.Uint16(p)
				cl.Reason = string(p[2:])
			}
			return OpClose, p, cl
		case OpPing, OpPong:
			return op, p, nil
		default:
			return 0, nil, fmt.Errorf("ws: reserved opcode %#x", byte(op))
		}
	}
}
