package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync/atomic"
)

// Frame is one decoded GSP frame. The payload is owned by the caller (it
// is freshly allocated per frame).
type Frame struct {
	Type    byte
	Payload []byte
}

// ErrClosed is returned by a Writer after Bye has been sent.
var ErrClosed = errors.New("wire: connection closed")

// Writer frames and writes GSP messages. It is not safe for concurrent
// use; each connection direction has exactly one writing goroutine.
type Writer struct {
	bw      *bufio.Writer
	scratch []byte
	hdr     [9]byte // magic + type + length
	tail    [4]byte // crc
	closed  bool
}

// NewWriter wraps w in a GSP frame writer.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 32<<10)}
}

// WriteFrame writes one frame and flushes it to the connection.
func (w *Writer) WriteFrame(t byte, payload []byte) error {
	if w.closed {
		return ErrClosed
	}
	copy(w.hdr[:4], magic[:])
	w.hdr[4] = t
	binary.BigEndian.PutUint32(w.hdr[5:9], uint32(len(payload)))
	crc := crc32.NewIEEE()
	crc.Write(w.hdr[4:9]) //nolint:errcheck // hash writes cannot fail
	crc.Write(payload)    //nolint:errcheck
	binary.BigEndian.PutUint32(w.tail[:], crc.Sum32())
	if _, err := w.bw.Write(w.hdr[:]); err != nil {
		return err
	}
	if _, err := w.bw.Write(payload); err != nil {
		return err
	}
	if _, err := w.bw.Write(w.tail[:]); err != nil {
		return err
	}
	return w.bw.Flush()
}

// Heartbeat writes an empty heartbeat frame.
func (w *Writer) Heartbeat() error { return w.WriteFrame(FrameHeartbeat, nil) }

// Credit grants the peer n further chunk frames.
func (w *Writer) Credit(n uint32) error {
	var p [4]byte
	binary.BigEndian.PutUint32(p[:], n)
	return w.WriteFrame(FrameCredit, p[:])
}

// Bye signals a clean end of stream; the Writer refuses further frames.
func (w *Writer) Bye() error {
	err := w.WriteFrame(FrameBye, nil)
	w.closed = true
	return err
}

// Error sends a protocol error message (e.g. a rejected feed).
func (w *Writer) Error(msg string) error { return w.WriteFrame(FrameError, []byte(msg)) }

// Reader decodes GSP frames from a byte stream. On corruption (bad magic,
// oversized length, CRC mismatch) it scans forward to the next magic word
// instead of returning garbage: Next never yields a frame whose CRC did
// not verify. Corruption telemetry is exposed through CRCErrors and
// Resyncs (safe to read from other goroutines).
type Reader struct {
	br  *bufio.Reader
	max uint32

	frames    atomic.Int64
	crcErrors atomic.Int64
	resyncs   atomic.Int64
}

// NewReader wraps r in a GSP frame reader with the default payload cap.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 32<<10), max: MaxFrame}
}

// CRCErrors returns the count of frames discarded for CRC mismatch.
func (r *Reader) CRCErrors() int64 { return r.crcErrors.Load() }

// Resyncs returns how many times the reader had to scan for the magic
// word after losing frame alignment.
func (r *Reader) Resyncs() int64 { return r.resyncs.Load() }

// Next returns the next valid frame, transparently resynchronizing past
// corrupted bytes. It returns an error only when the underlying stream
// does (EOF, timeout, closed connection).
func (r *Reader) Next() (Frame, error) {
	for {
		if err := r.sync(); err != nil {
			return Frame{}, err
		}
		var hdr [5]byte // type (1) + payload length (4)
		if _, err := io.ReadFull(r.br, hdr[:5]); err != nil {
			return Frame{}, eofToUnexpected(err)
		}
		length := binary.BigEndian.Uint32(hdr[1:5])
		if length > r.max {
			// A corrupted length field: only the 5 header bytes were
			// consumed, so rescan from the current position.
			r.resyncs.Add(1)
			continue
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r.br, payload); err != nil {
			return Frame{}, eofToUnexpected(err)
		}
		var tail [4]byte
		if _, err := io.ReadFull(r.br, tail[:]); err != nil {
			return Frame{}, eofToUnexpected(err)
		}
		crc := crc32.NewIEEE()
		crc.Write(hdr[:5]) //nolint:errcheck
		crc.Write(payload) //nolint:errcheck
		if crc.Sum32() != binary.BigEndian.Uint32(tail[:]) {
			r.crcErrors.Add(1)
			r.resyncs.Add(1)
			continue
		}
		r.frames.Add(1)
		return Frame{Type: hdr[0], Payload: payload}, nil
	}
}

// sync consumes bytes until the 4-byte magic word has been read. The fast
// path (already aligned) costs four byte reads and no scanning; a stream
// that has lost alignment is scanned byte-by-byte, counting one resync
// per realignment.
func (r *Reader) sync() error {
	have, skipped := 0, false
	for have < len(magic) {
		b, err := r.br.ReadByte()
		if err != nil {
			return err
		}
		if b == magic[have] {
			have++
			continue
		}
		// Misalignment: the failing byte may itself start a magic word.
		skipped = true
		if b == magic[0] {
			have = 1
		} else {
			have = 0
		}
	}
	if skipped {
		r.resyncs.Add(1)
	}
	return nil
}

// eofToUnexpected maps a clean EOF that lands mid-frame to
// io.ErrUnexpectedEOF so callers can distinguish "stream ended between
// frames" from "stream cut inside a frame".
func eofToUnexpected(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// DecodeCredit parses a credit frame payload.
func DecodeCredit(p []byte) (uint32, error) {
	if len(p) != 4 {
		return 0, fmt.Errorf("wire: credit payload is %d bytes, want 4", len(p))
	}
	return binary.BigEndian.Uint32(p), nil
}
