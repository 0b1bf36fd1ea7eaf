package dsms

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"geostreams/internal/geom"
)

// TestHTTPHandlerErrorPaths table-drives every handler's failure modes:
// each must answer with the right status code and a JSON error body (so
// clients never have to sniff content types on failure).
func TestHTTPHandlerErrorPaths(t *testing.T) {
	s, stop := startServer(t, 1)
	defer stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	reg, err := s.Register("vis", DeliveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	id := int64(reg.ID)

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantErr    string // substring of the JSON error message
	}{
		{"register invalid json", "POST", "/queries", `{`,
			http.StatusBadRequest, "bad request body"},
		{"register unknown field", "POST", "/queries", `{"query": "vis", "bogus": 1}`,
			http.StatusBadRequest, "bogus"},
		{"register trailing garbage", "POST", "/queries", `{"query": "vis"} trailing`,
			http.StatusBadRequest, "trailing data"},
		{"register missing query", "POST", "/queries", `{}`,
			http.StatusBadRequest, "missing \"query\""},
		{"register syntax error", "POST", "/queries", `{"query": "garbage("}`,
			http.StatusBadRequest, ""},
		{"register semantic error", "POST", "/queries",
			`{"query": "ndvi(nir, reproject(vis, \"utm:10\"))"}`,
			http.StatusUnprocessableEntity, ""},
		{"register oversized body", "POST", "/queries",
			`{"query": "` + strings.Repeat("x", maxRegisterBody) + `"}`,
			http.StatusRequestEntityTooLarge, "exceeds"},
		{"get bad id", "GET", "/queries/abc", "",
			http.StatusBadRequest, "bad query id"},
		{"get unknown id", "GET", "/queries/99999", "",
			http.StatusNotFound, "no query"},
		{"delete unknown id", "DELETE", "/queries/99999", "",
			http.StatusNotFound, "no query"},
		{"frame bad id", "GET", "/queries/abc/frame", "",
			http.StatusBadRequest, "bad query id"},
		{"frame unknown id", "GET", "/queries/99999/frame", "",
			http.StatusNotFound, "no query"},
		{"frame bad wait", "GET", fmt.Sprintf("/queries/%d/frame?wait=potato", id), "",
			http.StatusBadRequest, "bad wait"},
		{"frame negative wait", "GET", fmt.Sprintf("/queries/%d/frame?wait=-5", id), "",
			http.StatusBadRequest, "bad wait"},
		{"frame without cursor", "GET", fmt.Sprintf("/queries/%d/frame?wait=0", id), "",
			http.StatusBadRequest, "cursor=oldest"},
		{"frame bad cursor", "GET", fmt.Sprintf("/queries/%d/frame?cursor=newest&wait=0", id), "",
			http.StatusBadRequest, "bad cursor"},
		{"series unknown id", "GET", "/queries/99999/series", "",
			http.StatusNotFound, "no query"},
		{"series bad from", "GET", fmt.Sprintf("/queries/%d/series?from=-1", id), "",
			http.StatusBadRequest, "bad from"},
		{"stream unknown id", "GET", "/queries/99999/stream", "",
			http.StatusNotFound, "no query"},
		{"stream zero window", "GET", fmt.Sprintf("/queries/%d/stream?window=0", id), "",
			http.StatusBadRequest, "bad window"},
		{"stream huge window", "GET", fmt.Sprintf("/queries/%d/stream?window=99999", id), "",
			http.StatusBadRequest, "bad window"},
		{"explain missing q", "GET", "/explain", "",
			http.StatusBadRequest, "missing q"},
		{"explain bad query", "GET", "/explain?q=garbage(", "",
			http.StatusBadRequest, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.body != "" {
				req.Header.Set("Content-Type", "application/json")
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("error content type = %q, want application/json", ct)
			}
			var body struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("error body is not JSON: %v", err)
			}
			if body.Error == "" {
				t.Fatal("error body missing message")
			}
			if tc.wantErr != "" && !strings.Contains(body.Error, tc.wantErr) {
				t.Fatalf("error %q missing %q", body.Error, tc.wantErr)
			}
		})
	}

	// The poll the refusal names is served.
	resp, err := ts.Client().Get(fmt.Sprintf("%s/queries/%d/frame?cursor=oldest&wait=0", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		t.Fatalf("cursor=oldest poll: status %d, want 200 or 204", resp.StatusCode)
	}
}

// TestHTTPRegisterAdmissionRefusal: the admission limit maps to 503 with
// a Retry-After hint — a load condition, not a client error.
func TestHTTPRegisterAdmissionRefusal(t *testing.T) {
	s, stop := startServer(t, 1)
	defer stop()
	s.SetMaxQueries(1)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, err := s.Register("vis", DeliveryOptions{}); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/queries", "application/json",
		strings.NewReader(`{"query": "vis"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
}

// TestSeriesBufferCursorMonotonicAcrossTruncation pins the polling
// contract of seriesBuffer.since around buffer wrap — the situation a
// source reconnect produces, where a backlog burst truncates the buffer
// between two client polls. The cursor must never regress, and an
// incremental poller must never see a duplicate or out-of-order point.
func TestSeriesBufferCursorMonotonicAcrossTruncation(t *testing.T) {
	b := newSeriesBuffer(3)
	seen := map[geom.Timestamp]bool{}
	var last geom.Timestamp = -1
	next := 0
	poll := func() int {
		t.Helper()
		pts, n := b.since(next)
		if n < next {
			t.Fatalf("cursor regressed: %d -> %d", next, n)
		}
		next = n
		for _, p := range pts {
			if seen[p.T] {
				t.Fatalf("duplicate point T=%d", p.T)
			}
			if p.T <= last {
				t.Fatalf("out-of-order point T=%d after T=%d", p.T, last)
			}
			seen[p.T] = true
			last = p.T
		}
		return len(pts)
	}

	for i := 1; i <= 4; i++ {
		b.push(SeriesPoint{T: geom.Timestamp(i)})
	}
	if got := poll(); got != 3 {
		t.Fatalf("first poll = %d points, want 3 (limit)", got)
	}
	// Reconnect backlog: a burst far past the buffer limit between polls.
	for i := 5; i <= 20; i++ {
		b.push(SeriesPoint{T: geom.Timestamp(i)})
	}
	if got := poll(); got != 3 {
		t.Fatalf("post-burst poll = %d points, want 3", got)
	}
	if got := poll(); got != 0 {
		t.Fatalf("caught-up poll = %d points, want 0", got)
	}
	// A stale cursor beyond the end must not snap back and replay.
	if pts, n := b.since(1000); len(pts) != 0 || n != 1000 {
		t.Fatalf("stale-ahead since = %d points, next=%d (want 0, 1000)", len(pts), n)
	}
	b.push(SeriesPoint{T: 21})
	if got := poll(); got != 1 || last != 21 {
		t.Fatalf("incremental poll = %d points, last=%d", got, last)
	}
}
