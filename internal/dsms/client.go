package dsms

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"geostreams/internal/wire"
	"geostreams/internal/ws"
)

// Client is the Go client for the DSMS HTTP API — what the paper's
// web-based GUI would sit on top of.
type Client struct {
	BaseURL string
	HTTP    *http.Client
	// Timeout bounds each unary request (catalog, register, stats, ...)
	// via a per-request context; DefaultTimeout if zero. Long-polls and
	// streaming reads are NOT subject to it — FrameCursor.Next derives its
	// own deadline from the wait it was asked for, and the push
	// subscriptions hand the connection to the wire layer's idle-timeout
	// handling.
	Timeout time.Duration
	// Token, when non-empty, is sent as `Authorization: Bearer <Token>`
	// on every request (HTTP, GSP upgrade, and WebSocket dial) for
	// servers running with -auth-token.
	Token string
}

// DefaultTimeout bounds a unary client request when Client.Timeout is
// unset.
const DefaultTimeout = 30 * time.Second

// NewClient builds a client for a server base URL (no trailing slash).
// The underlying http.Client carries no blanket timeout: per-request
// deadlines come from Client.Timeout, so a long frame poll can outlive
// a unary deadline instead of being cut mid-wait.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, HTTP: &http.Client{}}
}

// reqCtx returns a context bounding one request; d <= 0 takes the
// client's unary timeout.
func (c *Client) reqCtx(d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		if d = c.Timeout; d <= 0 {
			d = DefaultTimeout
		}
	}
	return context.WithTimeout(context.Background(), d)
}

// authorize attaches the bearer credential when one is configured.
func (c *Client) authorize(h http.Header) {
	if c.Token != "" {
		h.Set("Authorization", "Bearer "+c.Token)
	}
}

// doGet issues one GET with the given per-request deadline (0 = unary
// default). The cancel func must be held until the response body has
// been consumed.
func (c *Client) doGet(path string, d time.Duration) (*http.Response, context.CancelFunc, error) {
	ctx, cancel := c.reqCtx(d)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	c.authorize(req.Header)
	resp, err := c.HTTP.Do(req)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	return resp, cancel, nil
}

func (c *Client) get(path string, out any) error {
	resp, cancel, err := c.doGet(path, 0)
	if err != nil {
		return err
	}
	defer cancel()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeErr(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func decodeErr(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("dsms: %s (%s)", e.Error, resp.Status)
	}
	return fmt.Errorf("dsms: %s: %s", resp.Status, bytes.TrimSpace(body))
}

// Catalog lists the server's bands.
func (c *Client) Catalog() ([]BandInfo, error) {
	var out []BandInfo
	err := c.get("/catalog", &out)
	return out, err
}

// Register submits a continuous query.
func (c *Client) Register(query, colormap string) (QueryInfo, error) {
	body, err := json.Marshal(registerRequest{Query: query, Colormap: colormap})
	if err != nil {
		return QueryInfo{}, err
	}
	ctx, cancel := c.reqCtx(0)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/queries", bytes.NewReader(body))
	if err != nil {
		return QueryInfo{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	c.authorize(req.Header)
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return QueryInfo{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return QueryInfo{}, decodeErr(resp)
	}
	var out QueryInfo
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}

// Queries lists registered queries with stats.
func (c *Client) Queries() ([]QueryInfo, error) {
	var out []QueryInfo
	err := c.get("/queries", &out)
	return out, err
}

// ClientFrame is a received frame with its metadata, from the cursor
// long-poll (Frames) or the WebSocket push (Watch).
type ClientFrame struct {
	Sector        int64
	Width, Height int
	Seq           uint64
	Shed          int64
	PNG           []byte
}

// FrameCursor walks a query's shared frame cache over the long-poll
// endpoint. Each FrameCursor observes the full frame sequence
// independently, minus frames evicted while it lagged (each ClientFrame's
// Shed counts them so far).
type FrameCursor struct {
	c      *Client
	id     int64
	cursor string
	shed   int64
	ended  bool
}

// Frames opens an independent cursor over query id's frame cache,
// starting at the oldest retained frame.
func (c *Client) Frames(id int64) *FrameCursor {
	return &FrameCursor{c: c, id: id, cursor: "oldest"}
}

// Next long-polls for the frame at the cursor; ok is false when no frame
// arrived within the wait window or the stream ended (check Ended).
func (fc *FrameCursor) Next(wait time.Duration) (*ClientFrame, bool, error) {
	if fc.ended {
		return nil, false, nil
	}
	path := fmt.Sprintf("/queries/%d/frame?cursor=%s&wait=%d",
		fc.id, fc.cursor, wait.Milliseconds())
	resp, cancel, err := fc.c.doGet(path, wait+10*time.Second)
	if err != nil {
		return nil, false, err
	}
	defer cancel()
	defer resp.Body.Close()
	if next := resp.Header.Get("X-Geostreams-Cursor"); next != "" {
		fc.cursor = next
	}
	if shed, _ := strconv.ParseInt(resp.Header.Get("X-Geostreams-Shed"), 10, 64); shed > 0 {
		fc.shed += shed
	}
	switch resp.StatusCode {
	case http.StatusNoContent:
		fc.ended = resp.Header.Get("X-Geostreams-End") == "1"
		return nil, false, nil
	case http.StatusOK:
	default:
		return nil, false, decodeErr(resp)
	}
	png, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, err
	}
	sector, _ := strconv.ParseInt(resp.Header.Get("X-Geostreams-Sector"), 10, 64)
	w, _ := strconv.Atoi(resp.Header.Get("X-Geostreams-Width"))
	h, _ := strconv.Atoi(resp.Header.Get("X-Geostreams-Height"))
	seq, _ := strconv.ParseUint(resp.Header.Get("X-Geostreams-Seq"), 10, 64)
	return &ClientFrame{
		Sector: sector, Width: w, Height: h,
		Seq: seq, Shed: fc.shed, PNG: png,
	}, true, nil
}

// Ended reports whether the query stopped and the cursor has drained
// every retained frame.
func (fc *FrameCursor) Ended() bool { return fc.ended }

// Series polls time-series output from index `from`; it returns the
// points and the next index.
func (c *Client) Series(id int64, from int) ([]SeriesPoint, int, error) {
	var out struct {
		Points []SeriesPoint `json:"points"`
		Next   int           `json:"next"`
	}
	err := c.get(fmt.Sprintf("/queries/%d/series?from=%d", id, from), &out)
	return out.Points, out.Next, err
}

// SubscribeCursors opens a push subscription with the resume extension:
// the server emits a cursor frame after every sector boundary whose
// input-band EOS records are stored (read it with Subscription.LastCursor),
// giving the client a resume point for SubscribeResume. An old server
// ignores the parameter and the subscription degrades to base frames.
func (c *Client) SubscribeCursors(id int64, window int) (*wire.Subscription, error) {
	return c.subscribe(id, window, "&cursors=1")
}

// SubscribeResume redials a push subscription from a resume cursor: the
// server replays the query's output from the acknowledged sector boundary
// (store replay spliced into live, exactly once) and keeps emitting
// cursor frames. Fails with a 410-mapped error when the cursor has fallen
// off the server's retention horizon.
func (c *Client) SubscribeResume(id int64, window int, cur wire.Cursor) (*wire.Subscription, error) {
	return c.subscribe(id, window, "&cursors=1&resume="+url.QueryEscape(cur.String()))
}

// subscribe upgrades GET /queries/{id}/stream to a GSP push
// subscription: the server streams the query's output chunks under
// credit-based flow control (see package wire). window is the credit
// window in chunks (wire.DefaultWindow if <= 0); extra appends the resume
// extension's parameters. The subscription owns a dedicated TCP
// connection; the unary timeout does not apply.
func (c *Client) subscribe(id int64, window int, extra string) (*wire.Subscription, error) {
	u, err := url.Parse(c.BaseURL)
	if err != nil {
		return nil, err
	}
	host := u.Host
	if u.Port() == "" {
		switch u.Scheme {
		case "http":
			host = net.JoinHostPort(u.Hostname(), "80")
		default:
			return nil, fmt.Errorf("dsms: subscribe needs an http base URL with a port, got %q", c.BaseURL)
		}
	}
	if window <= 0 {
		window = wire.DefaultWindow
	}
	d := net.Dialer{Timeout: 5 * time.Second}
	conn, err := d.Dial("tcp", host)
	if err != nil {
		return nil, err
	}
	// Always ask for the trace extension: a non-tracing (old) server
	// ignores the parameter and its hello simply omits the trace flag, so
	// the subscription falls back to base frames.
	path := fmt.Sprintf("%s/queries/%d/stream?window=%d&trace=1%s", u.Path, id, window, extra)
	req, err := http.NewRequest(http.MethodGet, path, nil)
	if err != nil {
		conn.Close()
		return nil, err
	}
	req.Host = u.Host
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", "gsp")
	c.authorize(req.Header)
	conn.SetWriteDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if err := req.Write(conn); err != nil {
		conn.Close()
		return nil, err
	}
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	resp, err := http.ReadResponse(br, req)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		defer conn.Close()
		defer resp.Body.Close()
		return nil, decodeErr(resp)
	}
	return wire.NewSubscription(conn, br, window)
}

// FrameWatch is a WebSocket push subscription to a query's frame cache:
// the server pushes every frame as it is encoded, no polling round-trips.
// Keep-alive pings are answered internally.
type FrameWatch struct {
	conn *ws.Conn
}

// Watch dials GET /queries/{id}/ws and returns the push subscription.
func (c *Client) Watch(id int64) (*FrameWatch, error) {
	u, err := url.Parse(c.BaseURL)
	if err != nil {
		return nil, err
	}
	switch u.Scheme {
	case "http":
		u.Scheme = "ws"
	case "https":
		u.Scheme = "wss"
	}
	u.Path = fmt.Sprintf("%s/queries/%d/ws", u.Path, id)
	hdr := http.Header{}
	c.authorize(hdr)
	conn, err := ws.Dial(u.String(), hdr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	return &FrameWatch{conn: conn}, nil
}

// Next blocks up to wait for the next pushed frame. It returns io.EOF
// when the server closes the subscription cleanly (query ended); any
// other error means the connection died.
func (w *FrameWatch) Next(wait time.Duration) (*ClientFrame, error) {
	w.conn.SetReadDeadline(time.Now().Add(wait)) //nolint:errcheck
	for {
		op, p, err := w.conn.ReadMessage()
		if err != nil {
			if cl, ok := err.(*ws.Closed); ok && cl.Code == 1000 {
				return nil, io.EOF
			}
			return nil, err
		}
		switch op {
		case ws.OpPing:
			if err := w.conn.WritePong(p, time.Now().Add(5*time.Second)); err != nil {
				return nil, err
			}
		case ws.OpBinary:
			f, err := DecodeWSFrame(p)
			if err != nil {
				return nil, err
			}
			return &ClientFrame{
				Sector: f.Sector, Width: f.Width, Height: f.Height,
				Seq: f.Seq, Shed: int64(f.Shed),
				PNG: append([]byte(nil), f.PNG...),
			}, nil
		}
	}
}

// Close tears the subscription down.
func (w *FrameWatch) Close() error {
	w.conn.WriteClose(1000, "client done", time.Now().Add(time.Second)) //nolint:errcheck
	return w.conn.Close()
}

// Explain fetches the server's plan rendering for a query string.
func (c *Client) Explain(query string) (string, error) {
	resp, cancel, err := c.doGet("/explain?q="+url.QueryEscape(query), 0)
	if err != nil {
		return "", err
	}
	defer cancel()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", decodeErr(resp)
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// Deregister removes a query.
func (c *Client) Deregister(id int64) error {
	ctx, cancel := c.reqCtx(0)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		fmt.Sprintf("%s/queries/%d", c.BaseURL, id), nil)
	if err != nil {
		return err
	}
	c.authorize(req.Header)
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return decodeErr(resp)
	}
	return nil
}

// Stats fetches the server stats: hub routing telemetry, query count, and
// uptime.
func (c *Client) Stats() (ServerStats, error) {
	var out ServerStats
	err := c.get("/stats", &out)
	return out, err
}

// Trace fetches up to n span timelines for a query from
// GET /queries/{id}/trace (n <= 0 takes the server default).
func (c *Client) Trace(id int64, n int) (TraceReport, error) {
	path := fmt.Sprintf("/queries/%d/trace", id)
	if n > 0 {
		path += fmt.Sprintf("?n=%d", n)
	}
	var out TraceReport
	err := c.get(path, &out)
	return out, err
}

// Healthz probes GET /healthz; healthy is true on 200. On 503 the body's
// detail (draining, dead bands) is returned as the error.
func (c *Client) Healthz() (bool, error) {
	resp, cancel, err := c.doGet("/healthz", 0)
	if err != nil {
		return false, err
	}
	defer cancel()
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return true, nil
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return false, fmt.Errorf("dsms: %s: %s", resp.Status, bytes.TrimSpace(body))
}

// Metrics fetches the raw Prometheus text exposition from GET /metrics.
func (c *Client) Metrics() (string, error) {
	resp, cancel, err := c.doGet("/metrics", 0)
	if err != nil {
		return "", err
	}
	defer cancel()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", decodeErr(resp)
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}
