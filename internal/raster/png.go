package raster

import (
	"bufio"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"sync"
)

// The PNG writer streams a frame scanline by scanline: each row is
// rendered through the colormap straight into a reused 4W+1-byte buffer
// (filter byte 0 = None, then 8-bit RGBA) and fed to one BestSpeed zlib
// stream, which a 32 KiB buffer frames into IDAT chunks. There is no
// full-frame RGBA intermediate. Filter and level are fixed: on 4-byte
// colormapped pixels the Sub/Up filters buy ~4 % smaller frames for ~15 %
// more encode time, and the default level costs ~3× more.

const pngSignature = "\x89PNG\r\n\x1a\n"

// pngEncoder is the state of one encode: destination, framing writer,
// compressor and row scratch. It lives in the process-wide encoders pool
// and is checked out for exactly one EncodePNG call, so encoder memory
// scales with concurrent encodes, never with queries or subscribers (a
// BestSpeed zlib writer holds ~1.2 MB).
type pngEncoder struct {
	w    io.Writer // destination of the current encode; nil while pooled
	err  error     // first write error of the current encode
	bw   *bufio.Writer
	zw   *zlib.Writer
	row  []byte
	head [8]byte  // chunk length + type
	ihdr [13]byte // IHDR body; compression, filter and interlace stay 0
	crc  [4]byte
}

var encoders = sync.Pool{New: func() any {
	e := new(pngEncoder)
	e.bw = bufio.NewWriterSize(e, 32<<10)
	e.zw, _ = zlib.NewWriterLevel(e.bw, zlib.BestSpeed)
	return e
}}

// write sends raw bytes to the destination, keeping the first error.
func (e *pngEncoder) write(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

// writeChunk frames data as one PNG chunk of the given type.
func (e *pngEncoder) writeChunk(typ string, data []byte) {
	binary.BigEndian.PutUint32(e.head[:4], uint32(len(data)))
	copy(e.head[4:], typ)
	crc := crc32.Update(crc32.ChecksumIEEE(e.head[4:]), crc32.IEEETable, data)
	binary.BigEndian.PutUint32(e.crc[:], crc)
	e.write(e.head[:])
	e.write(data)
	e.write(e.crc[:])
}

// Write frames one flush of the 32 KiB buffer as an IDAT chunk.
func (e *pngEncoder) Write(b []byte) (int, error) {
	e.writeChunk("IDAT", b)
	if e.err != nil {
		return 0, e.err
	}
	return len(b), nil
}

// PNGDeflateInput is the number of bytes EncodePNG feeds its compressor
// for a w×h frame: h scanlines of one filter byte plus 4 bytes per pixel.
func PNGDeflateInput(w, h int) int64 { return int64(h) * int64(4*w+1) }

// EncodePNG writes the image as an 8-bit RGBA PNG using a colormap over
// [vmin, vmax]. Pixels are exactly Render's: the row is rendered with the
// same normalization, clamp and NaN → transparent rules, and the
// colormaps' opaque colours read the same straight or premultiplied.
// Steady-state encodes allocate nothing.
func (im *Image) EncodePNG(w io.Writer, cm Colormap, vmin, vmax float64) error {
	width, height := im.Lat.W, im.Lat.H
	if width <= 0 || height <= 0 || width > math.MaxInt32 || height > math.MaxInt32 {
		return errors.New("raster: invalid PNG size")
	}
	e := encoders.Get().(*pngEncoder)
	e.w, e.err = w, nil
	copy(e.head[:], pngSignature)
	e.write(e.head[:])
	binary.BigEndian.PutUint32(e.ihdr[0:], uint32(width))
	binary.BigEndian.PutUint32(e.ihdr[4:], uint32(height))
	e.ihdr[8], e.ihdr[9] = 8, 6 // bit depth, colour type RGBA
	e.writeChunk("IHDR", e.ihdr[:])

	e.bw.Reset(e)
	e.zw.Reset(e.bw)
	n := 4*width + 1 // one row of PNGDeflateInput
	if cap(e.row) < n {
		e.row = make([]byte, n)
	}
	row := e.row[:n]
	row[0] = 0 // filter None
	span := vmax - vmin
	for y := 0; y < height && e.err == nil; y++ {
		px := row[1:]
		for _, v := range im.Vals[y*width : (y+1)*width] {
			if math.IsNaN(v) {
				px[0], px[1], px[2], px[3] = 0, 0, 0, 0
				px = px[4:]
				continue
			}
			t := 0.5
			if span > 0 {
				t = (v - vmin) / span
			}
			if t < 0 {
				t = 0
			}
			if t > 1 {
				t = 1
			}
			c := cm(t)
			px[0], px[1], px[2], px[3] = c.R, c.G, c.B, c.A
			px = px[4:]
		}
		e.zw.Write(row) //nolint:errcheck // write errors surface in e.err
	}
	e.zw.Close() //nolint:errcheck
	e.bw.Flush() //nolint:errcheck
	e.writeChunk("IEND", nil)
	err := e.err
	e.w, e.err = nil, nil
	encoders.Put(e)
	return err
}
