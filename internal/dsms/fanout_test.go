package dsms

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"geostreams/internal/geom"
	"geostreams/internal/raster"
	"geostreams/internal/ws"
)

// TestConcurrentPollersEachSeeEveryFrame pins the frame-stealing bug: the
// old delivery queue's popWait was a destructive single-consumer pop, so
// two clients long-polling GET /queries/{id}/frame silently split the
// frame stream between them. With the cursor ring, any number of pollers
// each observe the complete, bit-identical frame sequence.
func TestConcurrentPollersEachSeeEveryFrame(t *testing.T) {
	s, stop := startServer(t, 3)
	defer stop()
	reg, err := s.Register("vis", DeliveryOptions{Colormap: "gray"})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type seen struct {
		seqs []uint64
		pngs [][]byte
	}
	poll := func() (*seen, error) {
		got := &seen{}
		cursor := "oldest"
		for {
			resp, err := http.Get(fmt.Sprintf("%s/queries/%d/frame?cursor=%s&wait=5000",
				ts.URL, reg.ID, cursor))
			if err != nil {
				return nil, err
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return nil, err
			}
			if next := resp.Header.Get("X-Geostreams-Cursor"); next != "" {
				cursor = next
			}
			if resp.StatusCode == http.StatusNoContent {
				if resp.Header.Get("X-Geostreams-End") == "1" {
					return got, nil
				}
				continue
			}
			if resp.StatusCode != http.StatusOK {
				return nil, fmt.Errorf("status %d", resp.StatusCode)
			}
			seq, err := strconv.ParseUint(resp.Header.Get("X-Geostreams-Seq"), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad seq header: %v", err)
			}
			got.seqs = append(got.seqs, seq)
			got.pngs = append(got.pngs, body)
		}
	}

	const pollers = 2
	results := make([]*seen, pollers)
	errs := make([]error, pollers)
	var wg sync.WaitGroup
	for i := 0; i < pollers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = poll()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("poller %d: %v", i, err)
		}
	}
	// Every poller observed every frame exactly once, in order, and the
	// bytes are identical across pollers (one encode, shared backing).
	for i, r := range results {
		if len(r.seqs) != 3 {
			t.Fatalf("poller %d saw %d frames, want 3 (stream split between pollers?)", i, len(r.seqs))
		}
		for j, seq := range r.seqs {
			if seq != uint64(j) {
				t.Fatalf("poller %d frame %d has seq %d (gap or duplicate)", i, j, seq)
			}
			if !bytes.Equal(r.pngs[j], results[0].pngs[j]) {
				t.Fatalf("poller %d frame %d bytes differ from poller 0", i, j)
			}
		}
	}
	if n := reg.DeliveryStats().Frames; n != 3 {
		t.Fatalf("encoded %d frames for %d pollers, want exactly 3 (render-once)", n, pollers)
	}
}

// TestFanoutEncodesOncePerTransport: render-once holds on every
// transport at any cohort size. Each cohort — 100 and 1000 in-process
// cursors, 8 long-pollers, 8 WebSocket connections — runs alone on its
// own server; the query encodes each frame exactly once, and every
// subscriber accounts for the whole sequence: observed + shed == frames.
func TestFanoutEncodesOncePerTransport(t *testing.T) {
	const sectors = 4
	for _, cohort := range []struct {
		transport string
		n         int
	}{{"cursor", 100}, {"cursor", 1000}, {"long-poll", 8}, {"websocket", 8}} {
		s, stop := startServer(t, sectors)
		reg, err := s.Register("vis", DeliveryOptions{Colormap: "gray"})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		base := fmt.Sprintf("%s/queries/%d", ts.URL, reg.ID)

		var wg sync.WaitGroup
		errs := make(chan error, cohort.n)
		for i := 0; i < cohort.n; i++ {
			var run func() (observed, shed int64, err error)
			switch cohort.transport {
			case "cursor":
				sub := reg.SubscribeFrames() // before Start: everyone sees seq 0
				run = func() (int64, int64, error) {
					defer sub.Close()
					return cursorAccount(sub)
				}
			case "long-poll":
				run = func() (int64, int64, error) { return pollAccount(base + "/frame") }
			case "websocket":
				run = func() (int64, int64, error) { return wsAccount("ws" + strings.TrimPrefix(base, "http") + "/ws") }
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				observed, shed, err := run()
				switch {
				case err != nil:
					errs <- fmt.Errorf("%s %d: %v", cohort.transport, i, err)
				case observed+shed != sectors:
					errs <- fmt.Errorf("%s %d: observed %d + shed %d != %d",
						cohort.transport, i, observed, shed, sectors)
				}
			}(i)
		}
		s.Start()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if n := reg.DeliveryStats().Frames; n != sectors {
			t.Errorf("%d %s subscribers: %d encodes for %d frames, want one each",
				cohort.n, cohort.transport, n, sectors)
		}
		ts.Close()
		stop()
		if t.Failed() {
			t.FailNow()
		}
	}
}

// cursorAccount drains an in-process frame subscription to its end and
// reports the frames it observed and the frames it shed.
func cursorAccount(sub *FrameSub) (observed, shed int64, err error) {
	for {
		f, ok := sub.Next(30 * time.Second)
		if !ok {
			if !sub.Ended() {
				return observed, sub.Shed(), fmt.Errorf("timed out after %d frames", observed)
			}
			return observed, sub.Shed(), nil
		}
		observed++
		f.Release()
	}
}

// pollAccount long-polls the cursor endpoint from seq 0 to end-of-stream
// and reports the frames it observed and the frames reported shed.
func pollAccount(frameURL string) (observed, shed int64, err error) {
	cursor := "0"
	for {
		resp, err := http.Get(frameURL + "?cursor=" + cursor + "&wait=5000")
		if err != nil {
			return observed, shed, err
		}
		resp.Body.Close()
		if next := resp.Header.Get("X-Geostreams-Cursor"); next != "" {
			cursor = next
		}
		if sh, _ := strconv.ParseInt(resp.Header.Get("X-Geostreams-Shed"), 10, 64); sh > 0 {
			shed += sh
		}
		switch resp.StatusCode {
		case http.StatusOK:
			observed++
		case http.StatusNoContent:
			if resp.Header.Get("X-Geostreams-End") == "1" {
				return observed, shed, nil
			}
		default:
			return observed, shed, fmt.Errorf("status %d", resp.StatusCode)
		}
	}
}

// wsAccount reads a WebSocket frame subscription until the server's clean
// close (1000) and reports the frames it observed and the shed count the
// last frame carried.
func wsAccount(url string) (observed, shed int64, err error) {
	c, err := ws.Dial(url, nil, 10*time.Second)
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
	for {
		op, p, err := c.ReadMessage()
		if err != nil {
			if cl, ok := err.(*ws.Closed); ok && cl.Code == 1000 {
				return observed, shed, nil
			}
			return observed, shed, err
		}
		switch op {
		case ws.OpPing:
			if err := c.WritePong(p, time.Now().Add(5*time.Second)); err != nil {
				return observed, shed, err
			}
		case ws.OpBinary:
			f, err := DecodeWSFrame(p)
			if err != nil {
				return observed, shed, err
			}
			observed++
			shed = int64(f.Shed)
		}
	}
}

// TestFrameHubTargetedWakeups pins the thundering-herd fix: the old queue
// Broadcast woke every waiter on every push (and on every timer), so N
// parked subscribers cost N wakeups per frame regardless of readiness.
// The hub must wake exactly the waiters whose awaited sequence the new
// frame satisfies.
func TestFrameHubTargetedWakeups(t *testing.T) {
	h := newFrameHub(8)
	pub := func(sec int64) {
		f := &Frame{Sector: geom.Timestamp(sec)}
		f.refs.Store(1)
		h.publish(f)
	}
	waiters := func() int {
		h.mu.Lock()
		defer h.mu.Unlock()
		return len(h.waiters)
	}
	var wg sync.WaitGroup
	// Three readers need the next frame (seq 0); two are parked far ahead
	// (seq 2) and must not be disturbed by earlier publishes.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); h.await(0, 5*time.Second) }()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); h.await(2, 5*time.Second) }()
	}
	deadline := time.Now().Add(5 * time.Second)
	for waiters() != 5 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/5 waiters parked", waiters())
		}
		time.Sleep(time.Millisecond)
	}
	pub(100) // seq 0: satisfies exactly the three near waiters
	if got := h.wakeups.Load(); got != 3 {
		t.Fatalf("publish(seq 0) woke %d waiters, want exactly 3", got)
	}
	pub(101) // seq 1: satisfies nobody
	if got := h.wakeups.Load(); got != 3 {
		t.Fatalf("publish(seq 1) woke %d extra waiters, want none", got-3)
	}
	pub(102) // seq 2: releases the two far waiters
	if got := h.wakeups.Load(); got != 5 {
		t.Fatalf("wakeups after all publishes = %d, want 5", got)
	}
	wg.Wait()
	// A waiter timing out removes only itself — no broadcast to others.
	h.await(10, 10*time.Millisecond)
	if got := h.wakeups.Load(); got != 5 {
		t.Fatalf("timeout caused %d spurious wakeups", got-5)
	}
}

// TestFrameSubObservesFullSequence checks the in-process subscription:
// fast subscribers see every frame; a lagging subscriber skips forward
// over evicted frames with its shed counted per client, and the pipeline
// is never stalled.
func TestFrameSubObservesFullSequence(t *testing.T) {
	h := newFrameHub(4)
	r := &Registered{product: &product{frames: h}}
	fast := r.SubscribeFrames()
	defer fast.Close()
	lag := r.SubscribeFrames()
	defer lag.Close()
	if got := h.subs.Load(); got != 2 {
		t.Fatalf("subscriber gauge = %d, want 2", got)
	}
	for sec := int64(0); sec < 10; sec++ {
		f := &Frame{Sector: geom.Timestamp(sec)}
		f.refs.Store(1)
		h.publish(f)
		// The fast subscriber keeps up frame by frame.
		got, ok := fast.Next(time.Second)
		if !ok || got.Sector != geom.Timestamp(sec) {
			t.Fatalf("fast sub at %d: %+v %v", sec, got, ok)
		}
		got.Release()
	}
	h.close()
	// The lagging subscriber only now starts reading: 10 published, ring
	// holds the last 4, so it sheds 6 and reads 6..9 before EOS.
	var secs []int64
	for {
		f, ok := lag.Next(time.Second)
		if !ok {
			break
		}
		secs = append(secs, int64(f.Sector))
		f.Release()
	}
	if len(secs) != 4 || secs[0] != 6 || secs[3] != 9 {
		t.Fatalf("lagging sub read %v, want [6 7 8 9]", secs)
	}
	if lag.Shed() != 6 {
		t.Fatalf("lagging sub shed = %d, want 6", lag.Shed())
	}
	if fast.Shed() != 0 {
		t.Fatalf("fast sub shed = %d, want 0", fast.Shed())
	}
	if h.shedCount() != 6 {
		t.Fatalf("hub shed total = %d, want 6", h.shedCount())
	}
}

// TestEncodeSteadyStateAllocs pins pooled-buffer hygiene on the encode
// path: with the scratch buffer, the png encoder state, and the frame
// backing all pooled, steady-state encode+publish+consume must run in a
// small constant number of allocations — independent of frame size or
// how many frames came before.
func TestEncodeSteadyStateAllocs(t *testing.T) {
	lat, err := geom.NewLattice(0, 0, 1, 1, 64, 48)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := raster.ColormapByName("gray")
	if err != nil {
		t.Fatal(err)
	}
	h := newFrameHub(4)
	r := &Registered{product: &product{frames: h}}
	sub := r.SubscribeFrames()
	defer sub.Close()
	var sec int64
	cycle := func() {
		img, err := raster.NewImage(geom.Timestamp(sec), lat)
		if err != nil {
			t.Fatal(err)
		}
		for i := range img.Vals {
			img.Vals[i] = float64(i % 251)
		}
		f, err := renderFrame(img, cm, 0, 255)
		if err != nil {
			t.Fatal(err)
		}
		h.publish(f)
		got, ok := sub.Next(time.Second)
		if !ok {
			t.Fatal("subscriber starved")
		}
		got.Release()
		sec++
	}
	for i := 0; i < 8; i++ {
		cycle() // warm the pools
	}
	allocs := testing.AllocsPerRun(50, cycle)
	// Render still allocates the RGBA staging image and the Frame header;
	// everything proportional to compression state or PNG size is pooled.
	// Measured ~10; the bound leaves headroom without letting a pool
	// regression (one alloc per PNG byte-slice or per zlib window) hide.
	if allocs > 24 {
		t.Fatalf("steady-state encode cycle = %.1f allocs, want <= 24 (pool regression?)", allocs)
	}
}
