package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"geostreams/internal/faults"
	"geostreams/internal/geom"
	"geostreams/internal/stream"
)

// The segment log is a disk band's only history: these tests pin its
// write-out points, its file handles, its allocation-free append path,
// and the fallback to the ring when a write fails.

// recordBytes returns the framed size of each encoded chunk.
func recordBytes(payloads [][]byte) []int64 {
	out := make([]int64, len(payloads))
	for i, p := range payloads {
		out[i] = int64(len(AppendRecord(nil, uint64(i+1), p)))
	}
	return out
}

func activeSegment(t *testing.T, bandDir string) string {
	t.Helper()
	logs, err := filepath.Glob(filepath.Join(bandDir, "seg-*.log"))
	if err != nil || len(logs) == 0 {
		t.Fatalf("no segment files in %s (%v)", bandDir, err)
	}
	return logs[len(logs)-1]
}

// TestEndOfSectorDurability: once Append of an end-of-sector record
// returns, the active segment file holds every record through it (a
// resume cursor names exactly such a record); records of an unfinished
// sector stay buffered. A store abandoned mid-sector without Close
// reopens with everything through the last end-of-sector.
func TestEndOfSectorDurability(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.Band("vis")
	if err != nil {
		t.Fatal(err)
	}
	frames := testFrames(30, 4)
	want := encodeAll(t, frames)
	sizes := recordBytes(want)
	seg := ""
	var through int64
	for i, c := range frames[:6] {
		b.Append(c)
		through += sizes[i]
		if c.Kind != stream.KindEndOfSector {
			continue
		}
		if seg == "" {
			seg = activeSegment(t, filepath.Join(dir, "vis"))
		}
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != through {
			t.Fatalf("after end-of-sector seq %d the segment holds %d bytes, want %d", i+1, fi.Size(), through)
		}
	}
	b.Append(frames[6]) // the next sector's grid, no end-of-sector yet
	if fi, err := os.Stat(seg); err != nil || fi.Size() != through {
		t.Fatalf("mid-sector record written out early: %v bytes, want %d buffered (%v)", fi.Size(), through, err)
	}
	// Crash: the store is abandoned without Close.

	st2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	b2, err := st2.Band("vis")
	if err != nil {
		t.Fatal(err)
	}
	if got := b2.LastSeq(); got < 6 {
		t.Fatalf("reopened through seq %d, want at least the last end-of-sector (6)", got)
	}
	if seq, ok := b2.CursorAt(2); !ok || seq != 6 {
		t.Fatalf("CursorAt(2) after reopen = %d,%v want 6,true", seq, ok)
	}
	b2.SealLive()
	got := collectAll(t, b2.Tail(0), 0)
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d not bit-identical after abandoning mid-sector", i)
		}
	}
}

// TestSealedSegmentsCloseTheirFiles: only the active segment keeps a
// file handle; sealed segments are reopened by replay reads.
func TestSealedSegmentsCloseTheirFiles(t *testing.T) {
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	dir := t.TempDir()
	b := openTestBand(t, Options{Dir: dir, SegmentBytes: 4 << 10})
	frames := testFrames(31, 1000)
	want := encodeAll(t, frames)
	for _, c := range frames {
		b.Append(c)
	}
	if n := b.Snapshot().Segments; n < 50 {
		t.Fatalf("rolled through %d segments, want at least 50", n)
	}
	bandDir := filepath.Join(dir, "vis")
	open := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, fd := range fds {
			target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
			if err == nil && strings.HasPrefix(target, bandDir+string(filepath.Separator)) {
				n++
			}
		}
		return n
	}
	if n := open(); n > 1 {
		t.Fatalf("%d files open under the band directory, want at most the active segment", n)
	}
	b.SealLive()
	got := collectAll(t, b.Tail(0), 0)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records across reopened segments, want %d", len(got), len(want))
	}
	if n := open(); n > 1 {
		t.Fatalf("replay left %d files open under the band directory", n)
	}
}

// TestDiskAppendZeroAlloc pins the steady-state disk append of a
// 256-point row chunk: encode into a reused scratch, frame into the
// reused write buffer, no ring copy.
func TestDiskAppendZeroAlloc(t *testing.T) {
	b := openTestBand(t, Options{Dir: t.TempDir()})
	lat := geom.Lattice{X0: -122, Y0: 36, DX: 0.01, DY: 0.01, W: 256, H: 1}
	vals := make([]float64, lat.NumPoints())
	for i := range vals {
		vals[i] = float64(i) * 0.5
	}
	row := &stream.Chunk{Kind: stream.KindGrid, T: 1, Grid: &stream.GridPatch{Lat: lat, Vals: vals}}
	// Warm up past the first buffer write-out so every buffer has reached
	// its steady capacity.
	for i := 0; i < 2*maxPendBytes/(8*len(vals)); i++ {
		b.Append(row)
	}
	if allocs := testing.AllocsPerRun(200, func() { b.Append(row) }); allocs != 0 {
		t.Fatalf("disk Append of a 256-point row allocates %.1f times, want 0", allocs)
	}
	if snap := b.Snapshot(); snap.RingChunks != 0 {
		t.Fatalf("disk band kept %d ring chunks", snap.RingChunks)
	}
}

// TestDiskFailureMidBatchFallsBackToRing: a write that fails inside a
// buffered sector batch leaves a durable prefix on disk; the rest of the
// batch and everything after it move to the ring, so a tail from the
// start still sees every record exactly once, bit-identical.
func TestDiskFailureMidBatchFallsBackToRing(t *testing.T) {
	frames := testFrames(32, 40)
	want := encodeAll(t, frames)
	sizes := recordBytes(want)
	var batches int64 // the first five sectors: ten records, five writes
	for _, n := range sizes[:10] {
		batches += n
	}
	for _, tc := range []struct {
		name string
		cut  int64
	}{
		{"inside-first-record", batches + sizes[10]/2},
		{"inside-second-record", batches + sizes[10] + sizes[11]/2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cut *faults.CutWriter
			b := openTestBand(t, Options{
				Dir: t.TempDir(),
				WrapSegmentWriter: func(w io.Writer) io.Writer {
					cut = faults.NewCutWriter(w, int(tc.cut), errors.New("disk full"))
					return cut
				},
			})
			for _, c := range frames {
				b.Append(c)
			}
			if !cut.Cut() {
				t.Fatal("the write never failed")
			}
			snap := b.Snapshot()
			if snap.DiskErrors == 0 {
				t.Fatal("failed write not counted as a disk error")
			}
			if snap.RingChunks == 0 {
				t.Fatal("no records fell back to the ring")
			}
			b.SealLive()
			got := collectAll(t, b.Tail(0), 0)
			if len(got) != len(want) {
				t.Fatalf("replayed %d records, want %d", len(got), len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("record %d not bit-identical across the disk→ring fallback", i)
				}
			}
			// Every retained seq resumes: the fallback left no hole.
			for after := uint64(0); after < uint64(len(want)); after++ {
				if !b.Resumable(after) {
					t.Fatalf("seq %d not resumable after the fallback", after)
				}
			}
		})
	}
}
