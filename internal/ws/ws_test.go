package ws

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestAcceptDigest pins the RFC 6455 §1.3 known answer.
func TestAcceptDigest(t *testing.T) {
	got := Accept("dGhlIHNhbXBsZSBub25jZQ==")
	if got != "s3pPLMBiTxaQ9kYGzzhZRbK+xOo=" {
		t.Fatalf("accept digest = %q", got)
	}
}

// echoServer upgrades and echoes data messages, answering pings, until
// the peer closes.
func echoServer(t *testing.T) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := Upgrade(w, r)
		if err != nil {
			return
		}
		defer c.Close()
		for {
			op, p, err := c.ReadMessage()
			if err != nil {
				var cl *Closed
				if errors.As(err, &cl) {
					c.WriteClose(cl.Code, "", time.Now().Add(time.Second)) //nolint:errcheck
				}
				return
			}
			switch op {
			case OpPing:
				if err := c.WritePong(p, time.Now().Add(time.Second)); err != nil {
					return
				}
			case OpText, OpBinary:
				if err := c.WriteMessage(op, p, time.Now().Add(time.Second)); err != nil {
					return
				}
			}
		}
	}))
}

func wsURL(ts *httptest.Server) string {
	return "ws" + strings.TrimPrefix(ts.URL, "http")
}

func TestEchoRoundTrip(t *testing.T) {
	ts := echoServer(t)
	defer ts.Close()
	c, err := Dial(wsURL(ts), nil, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sizes := []int{0, 1, 125, 126, 4096, 70000} // cross both length encodings
	for _, n := range sizes {
		msg := bytes.Repeat([]byte{0xAB}, n)
		if err := c.WriteMessage(OpBinary, msg, time.Now().Add(time.Second)); err != nil {
			t.Fatalf("write %d: %v", n, err)
		}
		op, got, err := c.ReadMessage()
		if err != nil || op != OpBinary || !bytes.Equal(got, msg) {
			t.Fatalf("echo %d bytes: op=%v len=%d err=%v", n, op, len(got), err)
		}
	}

	// Ping → pong with matching payload.
	if err := c.WritePing([]byte("hb-1"), time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	op, p, err := c.ReadMessage()
	if err != nil || op != OpPong || string(p) != "hb-1" {
		t.Fatalf("pong = %v %q %v", op, p, err)
	}

	// Clean close handshake.
	if err := c.WriteClose(1000, "done", time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	_, _, err = c.ReadMessage()
	var cl *Closed
	if !errors.As(err, &cl) || cl.Code != 1000 {
		t.Fatalf("close answer = %v", err)
	}
}

// TestServerRejectsUnmaskedClientFrames pins RFC 6455 §5.1: raw unmasked
// bytes from a "client" must error the server read, not deliver data.
func TestServerRejectsUnmaskedClientFrames(t *testing.T) {
	errc := make(chan error, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := Upgrade(w, r)
		if err != nil {
			errc <- err
			return
		}
		defer c.Close()
		_, _, err = c.ReadMessage()
		errc <- err
	}))
	defer ts.Close()

	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET / HTTP/1.1\r\nHost: x\r\nUpgrade: websocket\r\n"+
		"Connection: Upgrade\r\nSec-WebSocket-Key: AQIDBAUGBwgJCgsMDQ4PEA==\r\n"+
		"Sec-WebSocket-Version: 13\r\n\r\n")
	br := bufio.NewReader(conn)
	if _, err := http.ReadResponse(br, nil); err != nil {
		t.Fatal(err)
	}
	// FIN+binary, unmasked, 2-byte payload — a masked-required violation.
	if _, err := conn.Write([]byte{0x82, 0x02, 'h', 'i'}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "unmasked") {
			t.Fatalf("server read = %v, want unmasked-frame error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server never rejected the unmasked frame")
	}
}

// TestMaxPayloadEnforced pins the allocation guard: an advertised length
// beyond the bound errors before any payload is read.
func TestMaxPayloadEnforced(t *testing.T) {
	ts := echoServer(t)
	defer ts.Close()
	c, err := Dial(wsURL(ts), nil, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.maxPayload = 1024
	if err := c.WriteMessage(OpBinary, bytes.Repeat([]byte{1}, 2048), time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ReadMessage(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize read = %v, want ErrTooLarge", err)
	}
}

// TestFragmentedMessageAssembly drives continuation frames through a raw
// server-side connection.
func TestFragmentedMessageAssembly(t *testing.T) {
	ts := echoServer(t)
	defer ts.Close()

	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET / HTTP/1.1\r\nHost: x\r\nUpgrade: websocket\r\n"+
		"Connection: Upgrade\r\nSec-WebSocket-Key: AQIDBAUGBwgJCgsMDQ4PEA==\r\n"+
		"Sec-WebSocket-Version: 13\r\n\r\n")
	br := bufio.NewReader(conn)
	if _, err := http.ReadResponse(br, nil); err != nil {
		t.Fatal(err)
	}
	// "geo" + "streams" as text + continuation, masked with a zero key so
	// the payload rides through unchanged.
	frame := func(fin bool, op byte, p string) []byte {
		b0 := op
		if fin {
			b0 |= 0x80
		}
		out := []byte{b0, 0x80 | byte(len(p)), 0, 0, 0, 0}
		return append(out, p...)
	}
	conn.Write(frame(false, 0x1, "geo"))    //nolint:errcheck
	conn.Write(frame(true, 0x0, "streams")) //nolint:errcheck

	// The echo comes back as one assembled unmasked text frame.
	hdr := make([]byte, 2)
	if _, err := bufio.NewReader(br).Read(hdr); err != nil {
		t.Fatal(err)
	}
	if hdr[0] != 0x81 || hdr[1] != 10 {
		t.Fatalf("echo header = %#x %d", hdr[0], hdr[1])
	}
	payload := make([]byte, 10)
	if _, err := br.Read(payload); err != nil {
		t.Fatal(err)
	}
	if string(payload) != "geostreams" {
		t.Fatalf("assembled echo = %q", payload)
	}
}

// TestDialRejectsNonUpgrade checks the client refuses a server that does
// not switch protocols.
func TestDialRejectsNonUpgrade(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusForbidden)
	}))
	defer ts.Close()
	if _, err := Dial(wsURL(ts), nil, 2*time.Second); err == nil {
		t.Fatal("dial against non-upgrading server must fail")
	}
}
