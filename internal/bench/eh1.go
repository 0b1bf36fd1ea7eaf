package bench

import (
	"context"
	"fmt"
	"os"
	"time"

	"geostreams/internal/store"
	"geostreams/internal/stream"
)

// EH1Replay measures the historical store's catch-up throughput against
// the live production rate (DESIGN.md §14). A subscriber that redials
// with ?resume= only converges on the live edge if the store can serve
// history faster than new data arrives, so the experiment compares three
// paths per point organization:
//
//   - live: draining the imager stream end-to-end — the rate a
//     subscriber attached from the start observes;
//   - ring replay: a Tail over a memory-only band whose whole history
//     sits in the in-memory ring (delta-encoded against the previous
//     grid);
//   - disk replay: the same history in a band with a segment log, which
//     is then the band's only history, so replay reads the log.
//
// The replay tiers store the same pre-rendered chunk sequence, repeated
// well past the ring floor. The run fails when the ring row evicted, or
// when the disk row kept a chunk in the ring or replayed a record from
// anywhere but the segments.
func EH1Replay(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E-H1",
		Title: "historical store: replay throughput vs live production",
		Claim: "ring-tier replay sustains at least the live production rate (a resumed subscriber catches up), and the disk tier stays the same order of magnitude",
		Columns: []string{"org", "path", "records", "points", "wall",
			"throughput", "vs live", "evicted"},
	}
	for _, o := range []struct {
		key  string
		name string
		org  stream.Organization
	}{
		{"row", "row-by-row", stream.RowByRow},
		{"image", "image-by-image", stream.ImageByImage},
	} {
		liveRecs, livePts, liveDur, err := eh1Live(cfg, o.org)
		if err != nil {
			return nil, fmt.Errorf("E-H1 %s/live: %w", o.name, err)
		}
		liveRate := float64(livePts) / liveDur.Seconds()
		t.AddRow(o.name, "live", fmtI(liveRecs), fmtI(livePts),
			fmtDur(liveDur), fmtRate(livePts, liveDur), "1.00x", "-")
		t.SetMetric(o.key+"_live_pts_per_sec", liveRate)

		_, pre, err := preRender(cfg, o.org, "vis")
		if err != nil {
			return nil, err
		}
		// Repeat the sequence until it is well past the ring floor; the ring
		// configuration is sized to hold every repetition.
		reps := 1
		for reps*len(pre) <= 4*store.DefaultKeyframeEvery*8 {
			reps++
		}
		records := reps * len(pre)
		for _, tier := range []struct {
			key  string
			name string
			open func() (*store.Store, func(), error)
		}{
			{o.key + "_ring", "replay (ring tier)", func() (*store.Store, func(), error) {
				st, err := store.Open(store.Options{RingChunks: records + 8})
				return st, func() { st.Close() }, err //nolint:errcheck
			}},
			{o.key + "_disk", "replay (disk tier)", func() (*store.Store, func(), error) {
				dir, err := os.MkdirTemp("", "geobench-eh1-")
				if err != nil {
					return nil, nil, err
				}
				st, err := store.Open(store.Options{Dir: dir})
				if err != nil {
					os.RemoveAll(dir) //nolint:errcheck
					return nil, nil, err
				}
				return st, func() { st.Close(); os.RemoveAll(dir) }, nil //nolint:errcheck
			}},
		} {
			st, done, err := tier.open()
			if err != nil {
				return nil, fmt.Errorf("E-H1 %s/%s: %w", o.name, tier.name, err)
			}
			recs, pts, dur, snap, err := eh1Replay(st, pre, reps)
			done()
			if err != nil {
				return nil, fmt.Errorf("E-H1 %s/%s: %w", o.name, tier.name, err)
			}
			if recs != int64(records) {
				return nil, fmt.Errorf("E-H1 %s/%s: replayed %d of %d records",
					o.name, tier.name, recs, records)
			}
			onDisk := snap.Segments > 0
			if onDisk && (snap.RingChunks != 0 || snap.Replayed != recs) {
				return nil, fmt.Errorf("E-H1 %s/%s: %d chunks in the ring, %d of %d records replayed from segments — the row would not measure the disk tier",
					o.name, tier.name, snap.RingChunks, snap.Replayed, recs)
			}
			if !onDisk && snap.Evicted != 0 {
				return nil, fmt.Errorf("E-H1 %s/%s: ring evicted %d records — replay silently truncated", o.name, tier.name, snap.Evicted)
			}
			rate := float64(pts) / dur.Seconds()
			if !onDisk && rate < liveRate {
				return nil, fmt.Errorf("E-H1 %s/%s: ring replay (%.0f pts/s) slower than live production (%.0f pts/s) — a resumed subscriber could never catch up",
					o.name, tier.name, rate, liveRate)
			}
			t.AddRow(o.name, tier.name, fmtI(recs), fmtI(pts), fmtDur(dur),
				fmtRate(pts, dur), fmt.Sprintf("%.2fx", rate/liveRate),
				fmtI(snap.Evicted))
			t.SetMetric(tier.key+"_pts_per_sec", rate)
			t.SetMetric(tier.key+"_speedup_vs_live", rate/liveRate)
			t.SetMetric(tier.key+"_evicted", float64(snap.Evicted))
			t.SetMetric(tier.key+"_delta_chunks", float64(snap.DeltaChunks))
			t.SetMetric(tier.key+"_disk_bytes", float64(snap.DiskBytes))
		}
		for _, c := range pre {
			c.Release()
		}
	}
	t.Notes = append(t.Notes,
		"live drains the synthetic imager end-to-end: the rate a from-the-start subscriber observes, and the rate a catch-up replay must beat",
		"both replay tiers serve the identical stored sequence; the ring row must not evict, and the disk row must hold nothing in the ring and replay every record from segments, or the run fails",
		"vs live is the replay:live throughput ratio — ≥1x on the ring tier means a resumed subscriber converges on the live edge")
	return t, nil
}

// eh1Live drains a fresh imager stream and reports its production rate.
func eh1Live(cfg Config, org stream.Organization) (recs, pts int64, dur time.Duration, err error) {
	g := stream.NewGroup(context.Background())
	im, err := newImager(cfg, org, []string{"vis"})
	if err != nil {
		return 0, 0, 0, err
	}
	streams, err := im.Streams(g)
	if err != nil {
		return 0, 0, 0, err
	}
	start := time.Now()
	recs, pts, err = stream.Drain(context.Background(), streams["vis"])
	if err != nil {
		return 0, 0, 0, err
	}
	if err := g.Wait(); err != nil {
		return 0, 0, 0, err
	}
	return recs, pts, time.Since(start), nil
}

// eh1Replay appends reps repetitions of the pre-rendered sequence into a
// band, seals it, and times a full Tail replay from the beginning.
func eh1Replay(st *store.Store, pre []*stream.Chunk, reps int) (recs, pts int64, dur time.Duration, snap store.BandSnapshot, err error) {
	b, err := st.Band("vis")
	if err != nil {
		return 0, 0, 0, snap, err
	}
	for r := 0; r < reps; r++ {
		for _, c := range pre {
			b.Append(c)
		}
	}
	b.SealLive()
	start := time.Now()
	tl := b.Tail(0)
	for it := range tl.C() {
		recs++
		pts += int64(it.C.NumPoints())
		it.C.Release()
	}
	dur = time.Since(start)
	if err := tl.Err(); err != nil {
		return 0, 0, 0, snap, err
	}
	return recs, pts, dur, b.Snapshot(), nil
}
