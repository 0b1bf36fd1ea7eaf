// Command geoquery is the client for a running geoserver: it registers
// continuous queries, fetches result frames as PNG files, polls
// time-series outputs, and inspects server state.
//
// Usage (the subcommand comes first; flags follow it):
//
//	geoquery catalog [-server URL]
//	geoquery explain -q 'ndvi(nir, vis)'
//	geoquery register -q 'stretch(ndvi(nir, vis), linear, 0, 255)' -colormap ndvi
//	geoquery frames -id 1 -n 5 -out ./frames
//	geoquery watch -id 1 -n 5 -out ./frames
//	geoquery series -id 2 -n 10
//	geoquery subscribe -id 1 -n 5 -out ./frames [-window 64] [-resume <cursor>]
//	geoquery trace -id 1 [-n 8]
//	geoquery stats
//	geoquery health
//	geoquery metrics
//	geoquery list
//	geoquery drop -id 1
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"time"

	"geostreams/internal/dsms"
	"geostreams/internal/raster"
	"geostreams/internal/stream"
	"geostreams/internal/wire"
)

const usage = "usage: geoquery catalog|explain|register|frames|watch|series|subscribe|trace|stats|health|metrics|list|drop [flags]"

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
	cmd := os.Args[1]

	fs := flag.NewFlagSet("geoquery "+cmd, flag.ExitOnError)
	server := fs.String("server", "http://localhost:8080", "geoserver base URL")
	q := fs.String("q", "", "query text (explain, register)")
	colormap := fs.String("colormap", "gray", "colormap for register")
	id := fs.Int64("id", 0, "query id (frames, series, drop)")
	n := fs.Int("n", 3, "how many frames / series polls to fetch")
	out := fs.String("out", ".", "output directory for frames")
	wait := fs.Duration("wait", 10*time.Second, "per-frame wait")
	window := fs.Int("window", 0, "credit window in chunks for subscribe (0 = server default)")
	resume := fs.String("resume", "",
		"resume cursor for subscribe, from a previous run's 'cursor:' line (server needs -store-dir or -history)")
	token := fs.String("token", "",
		"bearer token for servers running with -auth-token")
	fs.Parse(os.Args[2:]) //nolint:errcheck // ExitOnError

	// Unary calls get the client's per-request deadline; frame polls derive
	// their own from -wait, so no client-wide timeout gymnastics are needed.
	c := dsms.NewClient(*server)
	c.Token = *token

	switch cmd {
	case "catalog":
		bands, err := c.Catalog()
		fatal(err)
		for _, b := range bands {
			fmt.Printf("%-6s crs=%-10s org=%-15s stamping=%-16s sector=%dx%d range=[%g, %g]\n",
				b.Band, b.CRS, b.Organization, b.Stamping, b.SectorW, b.SectorH, b.VMin, b.VMax)
		}
	case "explain":
		requireQ(*q)
		plan, err := c.Explain(*q)
		fatal(err)
		fmt.Print(plan)
	case "register":
		requireQ(*q)
		qi, err := c.Register(*q, *colormap)
		fatal(err)
		fmt.Printf("registered query %d (out band %s, crs %s)\nplan:\n%s",
			qi.ID, qi.OutBand, qi.OutCRS, qi.Plan)
	case "frames":
		requireID(*id)
		fatal(os.MkdirAll(*out, 0o755))
		fc := c.Frames(*id)
		for i := 0; i < *n; i++ {
			f, ok, err := fc.Next(*wait)
			fatal(err)
			if !ok {
				// The query ended (fc.Ended()), or -wait passed with no frame.
				fmt.Println("no more frames")
				return
			}
			name := filepath.Join(*out, fmt.Sprintf("q%d_sector%d.png", *id, f.Sector))
			fatal(os.WriteFile(name, f.PNG, 0o644))
			fmt.Printf("wrote %s (%dx%d, %d bytes)\n", name, f.Width, f.Height, len(f.PNG))
		}
	case "watch":
		requireID(*id)
		fatal(watch(c, *id, *n, *wait, *out))
	case "series":
		requireID(*id)
		next := 0
		for i := 0; i < *n; i++ {
			pts, nx, err := c.Series(*id, next)
			fatal(err)
			next = nx
			for _, p := range pts {
				fmt.Printf("t=%d  (%.4f, %.4f)  value=%g\n", p.T, p.X, p.Y, p.Val)
			}
			if len(pts) == 0 {
				time.Sleep(500 * time.Millisecond)
			}
		}
	case "subscribe":
		requireID(*id)
		fatal(subscribe(c, *id, *n, *window, *out, *colormap, *resume))
	case "trace":
		requireID(*id)
		rep, err := c.Trace(*id, *n)
		fatal(err)
		printTrace(rep)
	case "health":
		healthy, err := c.Healthz()
		if healthy {
			fmt.Println("ok")
			return
		}
		fatal(err)
	case "stats":
		st, err := c.Stats()
		fatal(err)
		fmt.Printf("queries=%d uptime=%.1fs\n", st.Queries, st.UptimeSeconds)
		for _, h := range st.Hubs {
			fmt.Printf("band %-6s subscribers=%d delivered=%d dropped=%d age_p50=%.3fs age_p95=%.3fs\n",
				h.Band, h.Subscribers, h.Delivered, h.Dropped, h.AgeP50Seconds, h.AgeP95Seconds)
		}
	case "metrics":
		text, err := c.Metrics()
		fatal(err)
		fmt.Print(text)
	case "list":
		qs, err := c.Queries()
		fatal(err)
		for _, qi := range qs {
			fmt.Printf("query %d: %s\n", qi.ID, qi.Query)
			for _, op := range qi.Operators {
				fmt.Printf("  %-45s in=%-10d out=%-10d peak_buffer=%d\n",
					op.Name, op.PointsIn, op.PointsOut, op.PeakBuffer)
			}
		}
	case "drop":
		requireID(*id)
		fatal(c.Deregister(*id))
		fmt.Printf("deregistered query %d\n", *id)
	default:
		fmt.Fprintf(os.Stderr, "geoquery: unknown command %q\n%s\n", cmd, usage)
		os.Exit(2)
	}
}

// watch attaches a WebSocket push subscription to the query's frame
// cache: the server pushes each rendered PNG as it is encoded (one
// encode, shared across every watcher) instead of the frames command's
// poll round-trips. It stops after n frames or when the query ends.
func watch(c *dsms.Client, id int64, n int, wait time.Duration, out string) error {
	w, err := c.Watch(id)
	if err != nil {
		return err
	}
	defer w.Close()
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		f, err := w.Next(wait)
		if err == io.EOF {
			fmt.Println("query ended")
			return nil
		}
		if err != nil {
			return err
		}
		name := filepath.Join(out, fmt.Sprintf("q%d_seq%d.png", id, f.Seq))
		if err := os.WriteFile(name, f.PNG, 0o644); err != nil {
			return err
		}
		shed := ""
		if f.Shed > 0 {
			shed = fmt.Sprintf("  [%d frames shed]", f.Shed)
		}
		fmt.Printf("wrote %s (sector %d, %dx%d, %d bytes)%s\n",
			name, f.Sector, f.Width, f.Height, len(f.PNG), shed)
	}
	return nil
}

// subscribe attaches a GSP push subscription to the query and renders
// what arrives: grid output is assembled into sector PNGs client-side
// (the same raster path the server's frame delivery uses), point output
// prints as series lines. It stops after n sectors (grid) or n chunks
// (points), or when the server says bye. It always asks for the resume
// extension; when the server confirms it (historical store mounted),
// every acknowledged sector boundary prints a "cursor: <cursor>" line —
// pass the last one back via -resume to continue a killed subscription
// from that boundary, exactly once, no gap and no duplicate.
func subscribe(c *dsms.Client, id int64, n, window int, out, colormap, resume string) error {
	var sub *wire.Subscription
	var err error
	if resume != "" {
		cur, perr := wire.ParseCursor(resume)
		if perr != nil {
			return fmt.Errorf("bad -resume cursor: %w", perr)
		}
		sub, err = c.SubscribeResume(id, window, cur)
	} else {
		sub, err = c.SubscribeCursors(id, window)
	}
	if err != nil {
		return err
	}
	defer sub.Close()
	fmt.Printf("subscribed to query %d (out band %s, window %d, resume %v)\n",
		id, sub.Info.Band, window, sub.Resumed())

	cm, err := raster.ColormapByName(colormap)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	asm := raster.NewAssembler()
	defer asm.Discard()
	lastCursor := ""
	printCursor := func() {
		if cur, ok := sub.LastCursor(); ok {
			if s := cur.String(); s != lastCursor {
				fmt.Printf("cursor: %s\n", s)
				lastCursor = s
			}
		}
	}
	got := 0
	for got < n {
		ch, err := sub.Next()
		if err == io.EOF {
			printCursor()
			fmt.Println("server ended the stream")
			return nil
		}
		if err != nil {
			return err
		}
		printCursor()
		if ch.Kind == stream.KindPoints {
			for _, pv := range ch.Points {
				fmt.Printf("t=%d  (%.4f, %.4f)  value=%g\n", pv.P.T, pv.P.S.X, pv.P.S.Y, pv.V)
			}
			got++
			continue
		}
		imgs, err := asm.Add(ch)
		if err != nil {
			return err
		}
		for _, img := range imgs {
			var buf bytes.Buffer
			if err := img.EncodePNG(&buf, cm, sub.Info.VMin, sub.Info.VMax); err != nil {
				return err
			}
			name := filepath.Join(out, fmt.Sprintf("q%d_sector%d.png", id, img.T))
			if err := os.WriteFile(name, buf.Bytes(), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s (%dx%d, %d bytes)\n", name, img.Lat.W, img.Lat.H, buf.Len())
			img.Recycle()
			got++
		}
	}
	return nil
}

// printTrace renders GET /queries/{id}/trace as indented timelines —
// one block per sampled chunk, one line per stage crossing with its
// queue-wait gap — followed by the per-stage latency breakdown.
func printTrace(rep dsms.TraceReport) {
	fmt.Printf("query %d: %d spans recorded (%d displaced), sampling 1/%d data chunks\n",
		rep.Query, rep.SpansTotal, rep.SpansDropped, rep.SampleInterval)
	if slo := rep.FrameAgeSLO; slo != nil {
		fmt.Printf("frame-age SLO: budget %.3fs, burned %d\n", slo.BudgetSeconds, slo.Burn)
	}
	for _, tr := range rep.Traces {
		kind := "data"
		if tr.Punct {
			kind = "punct"
		}
		fmt.Printf("\ntrace %s  t=%d  %s\n", tr.Trace, tr.T, kind)
		for _, sp := range tr.Spans {
			gap := ""
			if sp.GapUS > 0 {
				gap = fmt.Sprintf("  +%s wait", us(sp.GapUS))
			}
			op := sp.Op
			if op != "" {
				op = " " + op
			}
			fmt.Printf("  %-14s%-22s %8s%s\n", sp.Stage, op, us(sp.DurUS), gap)
		}
	}
	if len(rep.Stages) == 0 {
		return
	}
	stages := make([]string, 0, len(rep.Stages))
	for name := range rep.Stages {
		stages = append(stages, name)
	}
	sort.Strings(stages)
	fmt.Printf("\n%-14s %6s %12s %12s\n", "stage", "count", "p50", "p99")
	for _, name := range stages {
		st := rep.Stages[name]
		fmt.Printf("%-14s %6d %12s %12s\n", name, st.Count,
			us(int64(st.P50Seconds*1e6)), us(int64(st.P99Seconds*1e6)))
	}
}

// us pretty-prints a microsecond count.
func us(v int64) string {
	if v >= 1e6 {
		return fmt.Sprintf("%.2fs", float64(v)/1e6)
	}
	if v >= 1e3 {
		return fmt.Sprintf("%.2fms", float64(v)/1e3)
	}
	return fmt.Sprintf("%dµs", v)
}

func fatal(err error) {
	if err != nil {
		log.Fatalf("geoquery: %v", err)
	}
}

func requireQ(q string) {
	if q == "" {
		log.Fatal("geoquery: -q is required")
	}
}

func requireID(id int64) {
	if id == 0 {
		log.Fatal("geoquery: -id is required")
	}
}
