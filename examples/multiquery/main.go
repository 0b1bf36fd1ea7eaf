// Multiquery: the Fig. 3 scenario — one DSMS server over a simulated GOES
// feed serving many concurrent continuous queries, each with its own
// region of interest, multiplexed through the shared cascade-tree
// restriction stage. Clients connect over real HTTP and receive PNG
// frames; the program then prints the band routers' telemetry: chunks
// probed against the registered query rects, index matches, crops
// computed, and chunks no rect needed.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"sync"
	"time"

	"geostreams"
	"geostreams/internal/dsms"
)

func main() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Server over a three-band instrument emitting 4 sectors.
	srv := geostreams.NewServer(ctx)
	scene := geostreams.DefaultScene(7)
	imager, err := geostreams.NewLatLonImager(
		geostreams.R(-122, 36, -120, 38), 160, 120, scene,
		[]string{"vis", "nir", "ir"}, geostreams.RowByRow, 4)
	if err != nil {
		log.Fatal(err)
	}
	streams, err := imager.Streams(srv.Group())
	if err != nil {
		log.Fatal(err)
	}
	for _, band := range []string{"vis", "nir", "ir"} {
		if err := srv.AddSource(streams[band]); err != nil {
			log.Fatal(err)
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close() //nolint:errcheck

	// Eight clients with different products and regions.
	queries := []struct{ label, q, cm string }{
		{"visible NW", "rselect(vis, rect(-122, 37, -121, 38))", "gray"},
		{"visible SE", "rselect(vis, rect(-121, 36, -120, 37))", "gray"},
		{"NDVI valley", "stretch(rselect(ndvi(nir, vis), rect(-121.6, 36.4, -120.4, 37.6)), linear, 0, 255)", "ndvi"},
		{"thermal full", "stretch(ir, linear, 0, 255)", "thermal"},
		{"cloud mask", "threshold(vis, 650, 0, 255)", "gray"},
		{"veg classes", "vselect(ndvi(nir, vis), above(0.4))", "ndvi"},
		{"zoomed city", "zoomin(rselect(vis, rect(-121.2, 36.8, -120.8, 37.2)), 2)", "gray"},
		{"coarse overview", "zoomout(vis, 4)", "gray"},
	}
	client := dsms.NewClient(ts.URL)
	type reg struct {
		label string
		id    int64
	}
	regs := make([]reg, 0, len(queries))
	for _, q := range queries {
		qi, err := client.Register(q.q, q.cm)
		if err != nil {
			log.Fatalf("register %s: %v", q.label, err)
		}
		regs = append(regs, reg{q.label, int64(qi.ID)})
		fmt.Printf("registered %-16s as query %d\n", q.label, qi.ID)
	}
	srv.Start()

	// Each client fetches its frames concurrently.
	var wg sync.WaitGroup
	results := make([]string, len(regs))
	for i, r := range regs {
		wg.Add(1)
		go func(i int, r reg) {
			defer wg.Done()
			frames, bytes := 0, 0
			fc := client.Frames(r.id)
			for {
				f, ok, err := fc.Next(10 * time.Second)
				if err != nil {
					results[i] = fmt.Sprintf("%-16s error: %v", r.label, err)
					return
				}
				if !ok {
					break
				}
				frames++
				bytes += len(f.PNG)
			}
			results[i] = fmt.Sprintf("%-16s received %d frames, %6d PNG bytes", r.label, frames, bytes)
		}(i, r)
	}
	wg.Wait()

	fmt.Println()
	for _, r := range results {
		fmt.Println(r)
	}

	fmt.Println("\nband router telemetry (shared cascade-tree restriction):")
	stats, err := client.Stats()
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range stats.Shared.Routers {
		fmt.Printf("band %-4s probes=%-5d matches=%-5d crops=%-5d filtered=%d\n",
			r.Band, r.Probes, r.Matches, r.Crops, r.Filtered)
	}
}
