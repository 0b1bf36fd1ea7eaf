package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"

	"geostreams/internal/coord"
	"geostreams/internal/faults"
	"geostreams/internal/geom"
	"geostreams/internal/stream"
)

func testGridChunk(seed int64) *stream.Chunk {
	rng := rand.New(rand.NewSource(seed))
	lat := geom.Lattice{X0: -122, Y0: 36, DX: 0.5, DY: 0.25, W: 8, H: 4}
	vals := make([]float64, lat.NumPoints())
	for i := range vals {
		vals[i] = rng.NormFloat64() * 100
	}
	// A NaN payload must survive bit-identically too.
	vals[0] = math.NaN()
	vals[1] = math.Inf(-1)
	return &stream.Chunk{
		Kind: stream.KindGrid, T: geom.Timestamp(seed), Ingest: 1234567 + seed,
		Grid: &stream.GridPatch{Lat: lat, Vals: vals},
	}
}

func testPointsChunk(seed int64) *stream.Chunk {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]stream.PointValue, 5)
	for i := range pts {
		pts[i] = stream.PointValue{
			P: geom.Point{
				S: geom.Vec2{X: rng.Float64()*4 - 122, Y: rng.Float64()*2 + 36},
				T: geom.Timestamp(seed*100 + int64(i)),
			},
			V: rng.NormFloat64(),
		}
	}
	pts[2].V = math.NaN()
	return &stream.Chunk{Kind: stream.KindPoints, T: geom.Timestamp(seed), Points: pts}
}

func testEOSChunk(seed int64) *stream.Chunk {
	c := stream.NewEndOfSector(geom.Timestamp(seed),
		geom.Lattice{X0: -122, Y0: 36, DX: 0.5, DY: 0.25, W: 8, H: 4})
	c.Ingest = seed
	return c
}

// chunksEqual compares chunks at the bit level: float64 fields must match
// as raw bits, so NaN payloads count as equal to themselves.
func chunksEqual(a, b *stream.Chunk) bool {
	ea, erra := AppendChunk(nil, a)
	eb, errb := AppendChunk(nil, b)
	return erra == nil && errb == nil && bytes.Equal(ea, eb)
}

func TestChunkRoundTripBitIdentical(t *testing.T) {
	for _, c := range []*stream.Chunk{testGridChunk(1), testPointsChunk(2), testEOSChunk(3)} {
		p, err := AppendChunk(nil, c)
		if err != nil {
			t.Fatalf("encode kind %v: %v", c.Kind, err)
		}
		got, err := decodeChunk(p, false)
		if err != nil {
			t.Fatalf("decode kind %v: %v", c.Kind, err)
		}
		if got.Kind != c.Kind || got.T != c.T || got.Ingest != c.Ingest {
			t.Fatalf("kind %v header mismatch: got %+v want %+v", c.Kind, got, c)
		}
		if !chunksEqual(got, c) {
			t.Fatalf("kind %v round trip not bit-identical", c.Kind)
		}
	}
}

func TestDecodeChunkRejectsTruncation(t *testing.T) {
	p, err := AppendChunk(nil, testGridChunk(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, chunkHdrLen - 1, chunkHdrLen + 3, len(p) - 1} {
		if _, err := decodeChunk(p[:n], false); err == nil {
			t.Fatalf("decode of %d/%d bytes succeeded", n, len(p))
		}
	}
	// Trailing garbage must be rejected too, not silently ignored.
	if _, err := decodeChunk(append(append([]byte(nil), p...), 0xAB), false); err == nil {
		t.Fatal("decode with trailing byte succeeded")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	infos := []stream.Info{
		{Band: "vis", CRS: coord.LatLon{}, Org: stream.RowByRow,
			Stamp: stream.StampSectorID, HasSectorMeta: true,
			SectorGeom: geom.Lattice{X0: -122, Y0: 36, DX: 0.5, DY: 0.25, W: 8, H: 4},
			VMin:       0, VMax: 1023},
		{Band: "lidar0", CRS: coord.LatLon{}, Org: stream.PointByPoint,
			Stamp: stream.StampMeasurementTime, VMin: 0, VMax: 1023},
	}
	if crs, err := coord.Parse("geos:-75"); err == nil {
		infos = append(infos, stream.Info{Band: "ir", CRS: crs, Org: stream.ImageByImage,
			Stamp: stream.StampSectorID, VMin: 180, VMax: 330})
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, info := range infos {
		if err := w.Hello(info); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)
	for i, info := range infos {
		f, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != FrameHello {
			t.Fatalf("frame %d type %s", i, FrameTypeName(f.Type))
		}
		got, _, err := ParseHelloFlags(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if got.Band != info.Band || got.CRS.Name() != info.CRS.Name() ||
			got.Org != info.Org || got.Stamp != info.Stamp ||
			got.HasSectorMeta != info.HasSectorMeta || got.SectorGeom != info.SectorGeom ||
			got.VMin != info.VMin || got.VMax != info.VMax {
			t.Fatalf("hello %d round trip: got %+v want %+v", i, got, info)
		}
	}
}

func TestFrameRoundTripAllTypes(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Heartbeat(); err != nil {
		t.Fatal(err)
	}
	if err := w.Credit(42); err != nil {
		t.Fatal(err)
	}
	if err := w.Error("boom"); err != nil {
		t.Fatal(err)
	}
	if err := w.Bye(); err != nil {
		t.Fatal(err)
	}
	if err := w.Heartbeat(); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after bye: %v", err)
	}

	r := NewReader(&buf)
	f, _ := r.Next()
	if f.Type != FrameHeartbeat || len(f.Payload) != 0 {
		t.Fatalf("heartbeat: %+v", f)
	}
	f, _ = r.Next()
	if n, err := DecodeCredit(f.Payload); err != nil || n != 42 {
		t.Fatalf("credit: n=%d err=%v", n, err)
	}
	f, _ = r.Next()
	if f.Type != FrameError || string(f.Payload) != "boom" {
		t.Fatalf("error frame: %+v", f)
	}
	f, _ = r.Next()
	if f.Type != FrameBye {
		t.Fatalf("bye: %+v", f)
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("after last frame: %v", err)
	}
	if r.frames.Load() != 4 || r.CRCErrors() != 0 || r.Resyncs() != 0 {
		t.Fatalf("counters: frames=%d crc=%d resyncs=%d", r.frames.Load(), r.CRCErrors(), r.Resyncs())
	}
}

func TestReaderResyncsPastGarbage(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Chunk(testGridChunk(1)); err != nil {
		t.Fatal(err)
	}
	good := append([]byte(nil), buf.Bytes()...)

	// garbage | frame | corrupted frame | garbage with a fake magic | frame
	var wire bytes.Buffer
	wire.WriteString("not a gsp frame at all")
	wire.Write(good)
	bad := append([]byte(nil), good...)
	bad[20] ^= 0xFF // corrupt the payload: CRC must catch it
	wire.Write(bad)
	wire.WriteString("GSP!")
	wire.Write(good)

	r := NewReader(&wire)
	var got []Frame
	for {
		f, err := r.Next()
		if err != nil {
			break
		}
		got = append(got, f)
	}
	if len(got) != 2 {
		t.Fatalf("recovered %d frames, want 2", len(got))
	}
	for i, f := range got {
		c, err := decodeChunk(f.Payload, false)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !chunksEqual(c, testGridChunk(1)) {
			t.Fatalf("frame %d is not the sent chunk", i)
		}
	}
	if r.CRCErrors() == 0 || r.Resyncs() == 0 {
		t.Fatalf("corruption not counted: crc=%d resyncs=%d", r.CRCErrors(), r.Resyncs())
	}
}

func TestReaderRejectsOversizedLength(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Heartbeat(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Corrupt the length field to a huge value; the reader must not
	// allocate it, and must resync instead.
	raw[5] = 0xFF
	r := NewReader(bytes.NewReader(raw))
	r.max = 1 << 16
	if _, err := r.Next(); !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		t.Fatalf("oversized frame: %v", err)
	}
	if r.Resyncs() == 0 {
		t.Fatal("oversized length did not count a resync")
	}
}

// TestReaderNeverYieldsWrongChunk is the corruption property test: a
// stream of chunk frames runs through a seeded bit-flipper, and every
// frame the reader does yield must be bit-identical to one of the sent
// encodings — corruption may cost frames, never invent them.
func TestReaderNeverYieldsWrongChunk(t *testing.T) {
	const frames = 200
	sent := make(map[string]bool, frames)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := int64(0); i < frames; i++ {
		var c *stream.Chunk
		switch i % 3 {
		case 0:
			c = testGridChunk(i)
		case 1:
			c = testPointsChunk(i)
		default:
			c = testEOSChunk(i)
		}
		enc, err := AppendChunk(nil, c)
		if err != nil {
			t.Fatal(err)
		}
		sent[string(enc)] = true
		if err := w.Chunk(c); err != nil {
			t.Fatal(err)
		}
	}

	for _, prob := range []float64{0.0001, 0.001, 0.01} {
		m := faults.NewByteMangler(bytes.NewReader(buf.Bytes()), 7, prob)
		r := NewReader(m)
		valid := 0
		for {
			f, err := r.Next()
			if err != nil {
				break
			}
			if f.Type != FrameChunk {
				// A corrupted type byte can only survive if the CRC still
				// matched — astronomically unlikely; treat as failure.
				t.Fatalf("prob=%g: frame type %s leaked through", prob, FrameTypeName(f.Type))
			}
			if !sent[string(f.Payload)] {
				t.Fatalf("prob=%g: reader yielded a chunk that was never sent", prob)
			}
			if _, err := decodeChunk(f.Payload, false); err != nil {
				t.Fatalf("prob=%g: verified frame failed to decode: %v", prob, err)
			}
			valid++
		}
		if m.Flipped.Load() > 0 && valid == frames && r.CRCErrors() == 0 {
			t.Fatalf("prob=%g: %d bytes flipped yet all frames passed with no CRC errors",
				prob, m.Flipped.Load())
		}
		t.Logf("prob=%g: flipped=%d valid=%d/%d crc_errors=%d resyncs=%d",
			prob, m.Flipped.Load(), valid, frames, r.CRCErrors(), r.Resyncs())
	}
}

// TestPartialWriteDetected cuts the byte stream mid-frame (a TCP reset
// mid-send): the reader must deliver every complete frame before the cut
// and report the truncated one as an error, never as data.
func TestPartialWriteDetected(t *testing.T) {
	var full bytes.Buffer
	w := NewWriter(&full)
	for i := int64(0); i < 10; i++ {
		if err := w.Chunk(testGridChunk(i)); err != nil {
			t.Fatal(err)
		}
	}
	frameLen := full.Len() / 10

	for _, cut := range []int{frameLen * 3, frameLen*3 + 7, frameLen*5 - 1} {
		var got bytes.Buffer
		cw := faults.NewCutWriter(&got, cut, io.ErrClosedPipe)
		cw.Write(full.Bytes()) //nolint:errcheck // the cut error is the point
		if !cw.Cut() {
			t.Fatalf("cut at %d never happened", cut)
		}
		r := NewReader(&got)
		n := 0
		var err error
		for {
			var f Frame
			f, err = r.Next()
			if err != nil {
				break
			}
			if _, derr := decodeChunk(f.Payload, false); derr != nil {
				t.Fatalf("cut at %d: bad chunk surfaced: %v", cut, derr)
			}
			n++
		}
		want := cut / frameLen
		if n != want {
			t.Fatalf("cut at %d: got %d complete frames, want %d", cut, n, want)
		}
		if cut%frameLen != 0 && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d mid-frame: final error %v, want unexpected EOF", cut, err)
		}
	}
}

// TestDecodeChunkRejectsOverflowingLattice pins the decodeLattice size
// guard against integer overflow: W and H are attacker-controlled
// uint32s whose product — and product×8 — can wrap int arithmetic, so a
// CRC-valid frame could previously slip past the frame-cap check and
// reach makeslice with a huge or negative length, panicking the reader's
// goroutine. Every crafted geometry must come back as an error, never a
// panic or a decoded chunk.
func TestDecodeChunkRejectsOverflowingLattice(t *testing.T) {
	mk := func(w, h uint32) []byte {
		p := []byte{kindGrid}
		p = binary.BigEndian.AppendUint64(p, 1) // t
		p = binary.BigEndian.AppendUint64(p, 0) // ingest
		for _, f := range []float64{-122, 36, 0.5, 0.25} {
			p = binary.BigEndian.AppendUint64(p, math.Float64bits(f))
		}
		p = binary.BigEndian.AppendUint32(p, w)
		return binary.BigEndian.AppendUint32(p, h) // no value bytes follow
	}
	for _, tc := range []struct{ w, h uint32 }{
		{1 << 16, 1 << 16},     // 2^32 points: no wrap, just far over the cap
		{1 << 31, 1 << 30},     // W·H = 2^61: W·H·8 wraps to 0 == len(rest)
		{1<<32 - 1, 1<<31 + 1}, // W·H ≥ 2^63: int(W·H) goes negative
		{1<<32 - 1, 1<<32 - 1}, // worst case both dimensions maxed
	} {
		if _, err := decodeChunk(mk(tc.w, tc.h), false); err == nil {
			t.Fatalf("lattice %dx%d decoded without error", tc.w, tc.h)
		}
	}
}
