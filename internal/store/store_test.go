package store

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"geostreams/internal/geom"
	"geostreams/internal/stream"
	"geostreams/internal/wire"
)

var testLat = geom.Lattice{X0: -122, Y0: 36, DX: 0.5, DY: 0.25, W: 4, H: 3}

// testFrames builds a realistic band history: per sector one grid frame
// (correlated with the previous frame, with occasional uncorrelated
// breaks) followed by end-of-sector punctuation.
func testFrames(seed int64, sectors int) []*stream.Chunk {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*stream.Chunk, 0, 2*sectors)
	prev := make([]float64, testLat.NumPoints())
	for i := range prev {
		prev[i] = rng.NormFloat64() * 50
	}
	for s := 0; s < sectors; s++ {
		vals := make([]float64, len(prev))
		if s%17 == 11 {
			// A low-correlation frame: the delta encoding should lose to raw.
			for i := range vals {
				vals[i] = rng.NormFloat64() * 1e6
			}
		} else {
			for i := range vals {
				vals[i] = prev[i] + rng.NormFloat64()*0.01
			}
		}
		if s%23 == 7 {
			vals[0] = math.NaN() // bit-exactness must cover NaN payloads
		}
		copy(prev, vals)
		g := &stream.Chunk{
			Kind: stream.KindGrid, T: geom.Timestamp(s), Ingest: 1000 + int64(s),
			Grid: &stream.GridPatch{Lat: testLat, Vals: vals},
		}
		eos := stream.NewEndOfSector(geom.Timestamp(s), testLat)
		eos.Ingest = 1000 + int64(s)
		out = append(out, g, eos)
	}
	return out
}

func encodeAll(t testing.TB, cs []*stream.Chunk) [][]byte {
	t.Helper()
	out := make([][]byte, len(cs))
	for i, c := range cs {
		p, err := wire.AppendChunk(nil, c)
		if err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
		out[i] = p
	}
	return out
}

func openTestBand(t *testing.T, opts Options) *Band {
	t.Helper()
	st, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	b, err := st.Band("vis")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// collectAll drains a tail until its channel closes, returning the wire
// encoding of every delivered chunk in order and checking the sequence
// numbers are strictly contiguous.
func collectAll(t *testing.T, tl *Tail, after uint64) [][]byte {
	t.Helper()
	var out [][]byte
	want := after + 1
	for it := range tl.C() {
		if it.Seq != want {
			t.Fatalf("tail seq %d, want %d (gap or duplicate)", it.Seq, want)
		}
		want++
		p, err := wire.AppendChunk(nil, it.C)
		if err != nil {
			t.Fatalf("re-encode seq %d: %v", it.Seq, err)
		}
		it.C.Release()
		out = append(out, p)
	}
	if err := tl.Err(); err != nil {
		t.Fatalf("tail ended with error: %v", err)
	}
	return out
}

func TestRingReplayBitIdentical(t *testing.T) {
	base := stream.PooledLive()
	b := openTestBand(t, Options{})
	frames := testFrames(1, 40)
	want := encodeAll(t, frames)
	for _, c := range frames {
		b.Append(c)
	}
	if got := b.Snapshot().DeltaChunks; got == 0 {
		t.Fatal("correlated frames produced no delta entries")
	}
	b.SealLive()
	got := collectAll(t, b.Tail(0), 0)
	if len(got) != len(want) {
		t.Fatalf("replayed %d chunks, want %d", len(got), len(want))
	}
	if ev := b.Snapshot().Evicted; ev != 0 {
		t.Fatalf("ring evicted %d records it was sized to hold", ev)
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("chunk %d not bit-identical after ring replay", i)
		}
	}
	if live := stream.PooledLive() - base; live != 0 {
		t.Fatalf("%d pooled chunks leaked by replay", live)
	}
}

func TestDiskReplayBitIdentical(t *testing.T) {
	// Small segments force several rolls; with a segment log the log is
	// the whole history, so every record must come back from disk.
	b := openTestBand(t, Options{
		Dir: t.TempDir(), RingChunks: 1, SegmentBytes: 4 << 10,
	})
	frames := testFrames(2, 400)
	want := encodeAll(t, frames)
	for _, c := range frames {
		b.Append(c)
	}
	snap := b.Snapshot()
	if snap.Segments < 2 {
		t.Fatalf("expected several segments, got %d", snap.Segments)
	}
	if snap.RingChunks != 0 || snap.RingBytes != 0 {
		t.Fatalf("disk band kept a heap copy: %d ring chunks, %d bytes", snap.RingChunks, snap.RingBytes)
	}
	b.SealLive()
	got := collectAll(t, b.Tail(0), 0)
	if len(got) != len(want) {
		t.Fatalf("replayed %d chunks, want %d", len(got), len(want))
	}
	if r := b.Snapshot().Replayed; r != int64(len(want)) {
		t.Fatalf("replayed %d records from segments, want %d", r, len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("chunk %d not bit-identical after disk replay", i)
		}
	}
}

func TestMemoryOnlyEvictionTruncates(t *testing.T) {
	b := openTestBand(t, Options{RingChunks: 1}) // clamps to minRingChunks
	frames := testFrames(3, 300)
	for _, c := range frames {
		b.Append(c)
	}
	if b.OldestSeq() <= 1 {
		t.Fatal("ring never evicted")
	}
	if b.Resumable(0) {
		t.Fatal("seq 0 reported resumable past eviction")
	}
	b.SealLive()
	tl := b.Tail(0)
	for it := range tl.C() {
		it.C.Release()
		t.Fatal("truncated tail delivered a chunk")
	}
	if !errors.Is(tl.Err(), ErrTruncated) {
		t.Fatalf("tail err = %v, want ErrTruncated", tl.Err())
	}
	// The eviction invariant: the first grid entry still in the ring is a
	// raw keyframe, so a resume from the oldest retained seq decodes.
	after := b.OldestSeq() - 1
	got := collectAll(t, b.Tail(after), after)
	if len(got) == 0 {
		t.Fatal("resume from oldest retained seq delivered nothing")
	}
}

func TestTailReplayToLiveHandoff(t *testing.T) {
	b := openTestBand(t, Options{})
	frames := testFrames(4, 120)
	want := encodeAll(t, frames)

	// Half the history exists before the tail starts: it replays that
	// from the store, then must switch to live delivery with no gap and
	// no duplicate while appends continue concurrently.
	half := len(frames) / 2
	for _, c := range frames[:half] {
		b.Append(c)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, c := range frames[half:] {
			b.Append(c)
			time.Sleep(50 * time.Microsecond)
		}
		b.SealLive()
	}()
	got := collectAll(t, b.Tail(0), 0)
	wg.Wait()
	if len(got) != len(want) {
		t.Fatalf("got %d chunks, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("chunk %d differs across the replay→live handoff", i)
		}
	}
}

func TestSlowTailFallsBackToReplay(t *testing.T) {
	b := openTestBand(t, Options{Dir: t.TempDir(), RingChunks: 1, SegmentBytes: 1 << 20})
	frames := testFrames(5, 600)
	want := encodeAll(t, frames)
	b.Append(frames[0])
	tl := b.Tail(0)
	// Let the tail catch up and attach live, then flood well past its
	// live buffer so it detaches and must recover via store replay.
	deadline := time.Now().Add(5 * time.Second)
	for b.Snapshot().Tails == 0 {
		if time.Now().After(deadline) {
			t.Fatal("tail never attached live")
		}
		time.Sleep(time.Millisecond)
	}
	for _, c := range frames[1:] {
		b.Append(c)
	}
	if b.Snapshot().TailLags == 0 {
		t.Fatal("flood did not overflow the live tail buffer")
	}
	b.SealLive()
	got := collectAll(t, tl, 0)
	if len(got) != len(want) {
		t.Fatalf("lagged tail got %d chunks, want %d (lost data)", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("chunk %d differs after lag fallback", i)
		}
	}
}

func TestTailCloseReleasesEverything(t *testing.T) {
	base := stream.PooledLive()
	b := openTestBand(t, Options{})
	for _, c := range testFrames(6, 50) {
		b.Append(c)
	}
	tl := b.Tail(0)
	// Consume a few, then abandon mid-stream.
	for i := 0; i < 5; i++ {
		it, ok := <-tl.C()
		if !ok {
			t.Fatal("tail closed early")
		}
		it.C.Release()
	}
	tl.Close()
	for it := range tl.C() {
		it.C.Release()
	}
	deadline := time.Now().Add(5 * time.Second)
	for stream.PooledLive() != base {
		if time.Now().After(deadline) {
			t.Fatalf("%d pooled chunks still live after Close", stream.PooledLive()-base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSealedBandServesHistoryThenCleanEOS(t *testing.T) {
	// The dead-band resume case: the source is gone (band sealed), but a
	// resume must serve the stored history and then end cleanly.
	b := openTestBand(t, Options{})
	frames := testFrames(7, 30)
	want := encodeAll(t, frames)
	for _, c := range frames {
		b.Append(c)
	}
	b.SealLive()
	if !b.Sealed() {
		t.Fatal("band not sealed")
	}
	after := uint64(10)
	got := collectAll(t, b.Tail(after), after)
	if len(got) != len(want)-int(after) {
		t.Fatalf("dead-band resume got %d chunks, want %d", len(got), len(want)-int(after))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i+int(after)]) {
			t.Fatalf("chunk %d differs on dead-band resume", i)
		}
	}
}

func TestCursorMarks(t *testing.T) {
	b := openTestBand(t, Options{})
	frames := testFrames(8, 20)
	for _, c := range frames {
		b.Append(c)
	}
	// Sector s occupies seqs 2s+1 (grid) and 2s+2 (EOS).
	if seq, ok := b.CursorAt(3); !ok || seq != 8 {
		t.Fatalf("CursorAt(3) = %d,%v want 8,true", seq, ok)
	}
	if _, ok := b.CursorAt(99); ok {
		t.Fatal("CursorAt(99) found a mark for a future sector")
	}
	if seq := b.SeqBefore(3); seq != 6 {
		t.Fatalf("SeqBefore(3) = %d, want 6", seq)
	}
	if seq := b.SeqBefore(0); seq != 0 {
		t.Fatalf("SeqBefore(0) = %d, want 0", seq)
	}
	if seq := b.SeqBefore(99); seq != b.LastSeq() {
		t.Fatalf("SeqBefore(99) = %d, want last seq %d", seq, b.LastSeq())
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.Band("vis")
	if err != nil {
		t.Fatal(err)
	}
	frames := testFrames(9, 60)
	want := encodeAll(t, frames)
	half := len(frames) / 2
	for _, c := range frames[:half] {
		b.Append(c)
	}
	lastBefore := b.LastSeq()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(Options{Dir: dir, SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	b2, err := st2.Band("vis")
	if err != nil {
		t.Fatal(err)
	}
	if b2.LastSeq() != lastBefore {
		t.Fatalf("reopened band last seq %d, want %d", b2.LastSeq(), lastBefore)
	}
	// Sector marks must survive the restart.
	if seq := b2.SeqBefore(5); seq != 10 {
		t.Fatalf("SeqBefore(5) after reopen = %d, want 10", seq)
	}
	for _, c := range frames[half:] {
		b2.Append(c)
	}
	b2.SealLive()
	got := collectAll(t, b2.Tail(0), 0)
	if len(got) != len(want) {
		t.Fatalf("replayed %d chunks across restart, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("chunk %d differs across restart (disk+ring splice)", i)
		}
	}
}

func TestConcurrentTailsExactlyOnce(t *testing.T) {
	b := openTestBand(t, Options{Dir: t.TempDir(), SegmentBytes: 16 << 10})
	frames := testFrames(10, 200)
	const tails = 6
	results := make([][][]byte, tails)
	var wg sync.WaitGroup
	for i := 0; i < tails; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Tails start at staggered points mid-stream.
			after := uint64(i * 20)
			tl := b.Tail(after)
			want := after + 1
			for it := range tl.C() {
				if it.Seq != want {
					t.Errorf("tail %d: seq %d want %d", i, it.Seq, want)
					it.C.Release()
					tl.Close()
					return
				}
				want++
				p, _ := wire.AppendChunk(nil, it.C)
				it.C.Release()
				results[i] = append(results[i], p)
			}
		}(i)
	}
	for _, c := range frames {
		b.Append(c)
		time.Sleep(20 * time.Microsecond)
	}
	b.SealLive()
	wg.Wait()
	want := encodeAll(t, frames)
	for i := 0; i < tails; i++ {
		after := i * 20
		if len(results[i]) != len(want)-after {
			t.Fatalf("tail %d delivered %d chunks, want %d", i, len(results[i]), len(want)-after)
		}
		for j, p := range results[i] {
			if !bytes.Equal(p, want[after+j]) {
				t.Fatalf("tail %d chunk %d not bit-identical", i, j)
			}
		}
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := make([]float64, 48)
	cur := make([]float64, 48)
	for i := range base {
		base[i] = rng.NormFloat64() * 100
		cur[i] = base[i] + rng.NormFloat64()*0.001
	}
	cur[3] = math.NaN()
	cur[4] = math.Inf(1)
	raw := make([]byte, deltaHdrLen)
	for i := range raw {
		raw[i] = byte(i * 7)
	}
	for _, v := range cur {
		raw = appendUint64BE(raw, math.Float64bits(v))
	}
	delta := appendDelta(nil, raw, base)
	back, err := decodeDelta(nil, delta, base)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, raw) {
		t.Fatal("delta round trip not bit-identical")
	}
	// Corrupt / truncated deltas must error, not panic.
	if _, err := decodeDelta(nil, delta[:len(delta)-1], base); err == nil {
		t.Fatal("truncated delta accepted")
	}
	if _, err := decodeDelta(nil, append(delta, 0), base); err == nil {
		t.Fatal("trailing delta bytes accepted")
	}
}

func appendUint64BE(p []byte, v uint64) []byte {
	return append(p, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
