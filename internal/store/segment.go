package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"geostreams/internal/wire"
)

// The on-disk tier: an append-only segment log per band. Each segment is
// a file of self-delimiting records plus an index sidecar. Records are
// buffered per band and written out in sector-sized batches; fsync runs
// on segment roll and on close, accepting a bounded torn tail on crash —
// recovery scans the data file (the authority), truncates the tear, and
// rebuilds the sidecar when it disagrees.
//
// Record layout (big-endian):
//
//	+--------------+---------+----------+------------------+-------+
//	| magic "GSL1" | seq u64 | len u32  | payload          | crc32 |
//	+--------------+---------+----------+------------------+-------+
//
// The CRC-32 (IEEE) covers seq, len, and payload. The payload is the
// wire chunk encoding (bit-exact, see internal/wire), so payload[0] is
// the chunk kind and payload[1:9] its timestamp — the index sidecar is
// derivable from record headers alone. A scanner that observes a bad
// magic or CRC resyncs to the next magic word, so one corrupted record
// loses itself, not the segment.

// segMagic is the record sync word: "GSL1" (GeoStreams Segment Log v1).
var segMagic = [4]byte{'G', 'S', 'L', '1'}

const (
	recHdrLen     = 4 + 8 + 4 // magic + seq + len
	recTrailerLen = 4         // crc32
	// recMinPayload is the smallest valid chunk payload (the wire chunk
	// header); anything shorter cannot be a record.
	recMinPayload = 17
	// recMaxPayload bounds what a corrupted length field can make the
	// scanner skip or a reader allocate.
	recMaxPayload = wire.MaxFrame
	// maxPendBytes caps the write buffer of a band whose stream carries
	// no end-of-sector punctuation; punctuated streams write out at each
	// end of sector, well before this.
	maxPendBytes = 1 << 20
	// maxSpanBytes caps one replay read. A read always covers at least
	// one whole sector span, so a sector larger than this is still read
	// in one piece.
	maxSpanBytes = 1 << 20
)

// Record is one scanned segment record.
type Record struct {
	Seq     uint64
	T       int64 // chunk timestamp, from the payload header
	Kind    byte  // wire chunk kind (0 grid, 1 points, 2 eos)
	Payload []byte
	Off     int64 // record start offset in the segment
	End     int64 // offset just past the record's trailer
}

// recordCRC is the CRC-32 (IEEE) of a record's seq, len and payload.
func recordCRC(seqLen, payload []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(seqLen), crc32.IEEETable, payload)
}

// AppendRecord appends the segment-record framing of one chunk payload
// to dst. The payload must be a wire chunk encoding (>= 17 bytes).
func AppendRecord(dst []byte, seq uint64, payload []byte) []byte {
	dst = append(dst, segMagic[:]...)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	seqLen := dst[len(dst)-12:]
	dst = append(dst, payload...)
	return binary.BigEndian.AppendUint32(dst, recordCRC(seqLen, payload))
}

// ScanStats reports what a segment scan had to repair.
type ScanStats struct {
	// Resyncs counts how many times the scanner lost framing and searched
	// forward for the next magic word.
	Resyncs int
}

// ScanRecords walks a segment image and returns every decodable record,
// the offset just past the last good record (the truncation point for a
// torn tail), and repair statistics. It never panics and never reads past
// p: a bad magic, an oversized or undersized length, or a CRC mismatch
// advances the scan to the next magic word.
func ScanRecords(p []byte) ([]Record, int64, ScanStats) {
	var (
		recs  []Record
		stats ScanStats
		valid int64
	)
	off := 0
	resyncing := false
	for off+recHdrLen+recMinPayload+recTrailerLen <= len(p) {
		if !bytes.Equal(p[off:off+4], segMagic[:]) {
			if !resyncing {
				stats.Resyncs++
				resyncing = true
			}
			// Search for the next magic word.
			i := bytes.Index(p[off+1:], segMagic[:])
			if i < 0 {
				return recs, valid, stats
			}
			off += 1 + i
			continue
		}
		seq := binary.BigEndian.Uint64(p[off+4 : off+12])
		plen := int(binary.BigEndian.Uint32(p[off+12 : off+16]))
		if plen < recMinPayload || plen > recMaxPayload ||
			off+recHdrLen+plen+recTrailerLen > len(p) {
			// Bad or truncated length: this magic word was not a record
			// start (or the record is torn at the tail).
			if !resyncing {
				stats.Resyncs++
				resyncing = true
			}
			off++
			continue
		}
		payload := p[off+recHdrLen : off+recHdrLen+plen]
		want := binary.BigEndian.Uint32(p[off+recHdrLen+plen : off+recHdrLen+plen+4])
		if recordCRC(p[off+4:off+16], payload) != want {
			if !resyncing {
				stats.Resyncs++
				resyncing = true
			}
			off++
			continue
		}
		end := int64(off + recHdrLen + plen + recTrailerLen)
		recs = append(recs, Record{
			Seq:     seq,
			T:       int64(binary.BigEndian.Uint64(payload[1:9])),
			Kind:    payload[0],
			Payload: payload,
			Off:     int64(off),
			End:     end,
		})
		valid = end
		off = int(end)
		resyncing = false
	}
	return recs, valid, stats
}

// secEntry is one in-memory (and sidecar) index entry. It covers one
// sector span of a segment: a run of contiguous sequence numbers with
// one timestamp, ending at the sector's end-of-sector record or at a
// segment boundary. Its records occupy [off, next entry's off) — or the
// rest of the segment for the last entry.
type secEntry struct {
	seq  uint64 // first record's seq
	last uint64 // last record's seq
	off  int64  // first record's offset
	t    int64  // the records' timestamp
	eos  bool   // the span ends with an end-of-sector record
}

// Sidecar layout (big-endian): magic "GSI2" | data size u64 | last
// record's offset u64, then one entry per sector span: seq u64 | last u64
// | off u64 | t u64 | flags u8.
var idxMagic = [4]byte{'G', 'S', 'I', '2'}

const (
	idxHdrLen   = 4 + 8 + 8
	idxEntryLen = 8 + 8 + 8 + 8 + 1
	idxEOSFlag  = 1
)

func appendIdxEntry(dst []byte, e secEntry) []byte {
	dst = binary.BigEndian.AppendUint64(dst, e.seq)
	dst = binary.BigEndian.AppendUint64(dst, e.last)
	dst = binary.BigEndian.AppendUint64(dst, uint64(e.off))
	dst = binary.BigEndian.AppendUint64(dst, uint64(e.t))
	var flags byte
	if e.eos {
		flags |= idxEOSFlag
	}
	return append(dst, flags)
}

func decodeIdxEntries(p []byte) []secEntry {
	n := len(p) / idxEntryLen
	out := make([]secEntry, 0, n)
	for i := 0; i < n; i++ {
		o := p[i*idxEntryLen:]
		out = append(out, secEntry{
			seq:  binary.BigEndian.Uint64(o[0:8]),
			last: binary.BigEndian.Uint64(o[8:16]),
			off:  int64(binary.BigEndian.Uint64(o[16:24])),
			t:    int64(binary.BigEndian.Uint64(o[24:32])),
			eos:  o[32]&idxEOSFlag != 0,
		})
	}
	return out
}

// segment is one on-disk log file plus its in-memory index.
type segment struct {
	path string
	f    *os.File // the active segment's append handle; nil once sealed
	idx  []secEntry
	size int64 // bytes written to the file
	// lastOff is the offset of the last indexed record.
	lastOff int64
	// scanned holds the records a recovery scan found, until the
	// cross-segment audit turns them into index entries.
	scanned []Record
}

func (s *segment) firstSeq() uint64 {
	if len(s.idx) == 0 {
		return 0
	}
	return s.idx[0].seq
}

func (s *segment) lastSeq() uint64 {
	if len(s.idx) == 0 {
		return 0
	}
	return s.idx[len(s.idx)-1].last
}

// index records one record at off in the segment's sector index,
// opening a new entry at each sector boundary and sequence gap.
func (s *segment) index(seq uint64, off, t int64, kind byte) {
	n := len(s.idx)
	if n == 0 || s.idx[n-1].eos || s.idx[n-1].t != t || s.idx[n-1].last+1 != seq {
		s.idx = append(s.idx, secEntry{seq: seq, off: off, t: t})
		n++
	}
	e := &s.idx[n-1]
	e.last = seq
	e.eos = kind == wireKindEOS
	s.lastOff = off
}

// RecoveryStats reports what opening a band's segment directory found
// and repaired.
type RecoveryStats struct {
	Segments   int   `json:"segments"`
	Records    int64 `json:"records"`
	TornBytes  int64 `json:"torn_bytes"`    // truncated off segment tails
	RebuiltIdx int   `json:"rebuilt_index"` // sidecars rebuilt from a data scan
	DupRecords int64 `json:"dup_records"`   // duplicate seqs skipped
	GapRecords int64 `json:"gap_records"`   // seq gaps (missing records)
	Resyncs    int64 `json:"resyncs"`       // mid-file framing recoveries
}

// segmentLog is a band's on-disk tier.
type segmentLog struct {
	dir    string
	maxSeg int64
	wrap   func(io.Writer) io.Writer
	segs   []*segment
	w      io.Writer // active segment's (possibly wrapped) writer
	// pend holds the records buffered for the active segment, from seq
	// pendSeq on; they are indexed already but not yet written.
	pend    []byte
	pendSeq uint64
	idxBuf  []byte
	dirty   bool // written since the last fsync
	// failed disables the log after a write error; unwritten is how many
	// bytes of pend the failing write still got into the file.
	failed    bool
	unwritten int
	recovery  RecoveryStats
}

// openSegmentLog opens (or creates) a band's segment directory, running
// recovery over any existing segments: each sidecar is verified against
// its data file and rebuilt by a scan when it disagrees; a torn tail (a
// crashed batched write) is truncated; duplicate and missing sequence
// numbers across the whole log are counted. Only the last segment stays
// open, for appends.
func openSegmentLog(dir string, maxSeg int64, wrap func(io.Writer) io.Writer) (*segmentLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &segmentLog{dir: dir, maxSeg: maxSeg, wrap: wrap}
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	for _, path := range names {
		seg, err := l.openSegment(path)
		if err != nil {
			l.closeFiles()
			return nil, fmt.Errorf("store: open %s: %w", path, err)
		}
		l.segs = append(l.segs, seg)
	}
	// Order by first seq (lexical order matches the zero-padded names, but
	// trust the contents) and audit the global sequence.
	first := func(s *segment) uint64 {
		switch {
		case s.scanned != nil:
			return s.scanned[0].Seq
		case len(s.idx) == 0:
			// Empty (a crash right after a roll): keep it last, where it
			// stays the active segment.
			return math.MaxUint64
		}
		return s.firstSeq()
	}
	sort.SliceStable(l.segs, func(i, j int) bool { return first(l.segs[i]) < first(l.segs[j]) })
	var prev uint64
	for _, seg := range l.segs {
		if seg.scanned != nil {
			prev = l.auditScanned(seg, prev)
			if err := l.writeSidecar(seg); err != nil {
				l.closeFiles()
				return nil, err
			}
			continue
		}
		prev = l.auditIndexed(seg, prev)
	}
	// Every segment but the last is sealed: close it (replay reopens it),
	// and drop empty ones so only the active segment can hold no records.
	kept := l.segs[:0]
	for i, seg := range l.segs {
		if i < len(l.segs)-1 {
			seg.f.Close() //nolint:errcheck
			seg.f = nil
			if len(seg.idx) == 0 {
				continue
			}
		}
		kept = append(kept, seg)
	}
	l.segs = kept
	l.recovery.Segments = len(l.segs)
	if seg := l.active(); seg != nil {
		l.w = l.wrapWriter(seg.f)
	}
	return l, nil
}

// auditScanned indexes a scanned segment's records in sequence order,
// skipping duplicates and counting gaps against prev, the last sequence
// of the segments before it. It returns the new last sequence.
func (l *segmentLog) auditScanned(seg *segment, prev uint64) uint64 {
	for _, r := range seg.scanned {
		if prev != 0 && r.Seq <= prev {
			l.recovery.DupRecords++
			continue
		}
		if prev != 0 && r.Seq != prev+1 {
			l.recovery.GapRecords += int64(r.Seq - prev - 1)
		}
		prev = r.Seq
		seg.index(r.Seq, r.Off, r.T, r.Kind)
		l.recovery.Records++
	}
	seg.scanned = nil
	return prev
}

// auditIndexed audits a sidecar-loaded segment entry by entry. A
// duplicate run is trimmed from the index; its bytes stay in the span,
// where replay skips them by sequence.
func (l *segmentLog) auditIndexed(seg *segment, prev uint64) uint64 {
	kept := seg.idx[:0]
	for _, e := range seg.idx {
		if prev != 0 && e.seq <= prev {
			if e.last <= prev {
				l.recovery.DupRecords += int64(e.last - e.seq + 1)
				continue
			}
			l.recovery.DupRecords += int64(prev - e.seq + 1)
			e.seq = prev + 1
		}
		if prev != 0 && e.seq != prev+1 {
			l.recovery.GapRecords += int64(e.seq - prev - 1)
		}
		prev = e.last
		l.recovery.Records += int64(e.last - e.seq + 1)
		kept = append(kept, e)
	}
	seg.idx = kept
	return prev
}

func (l *segmentLog) wrapWriter(f *os.File) io.Writer {
	if l.wrap != nil {
		return l.wrap(f)
	}
	return f
}

// openSegment opens one data file, validating its sidecar or scanning
// it (which also truncates a torn tail).
func (l *segmentLog) openSegment(path string) (*segment, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	seg := &segment{path: path, f: f, size: st.Size()}
	if !l.loadSidecar(seg) {
		if err := l.scanSegment(seg); err != nil {
			f.Close()
			return nil, err
		}
	}
	// Position the write offset at the end: reopening must append.
	if _, err := f.Seek(seg.size, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return seg, nil
}

// scanSegment reads the whole data file — the authority when the sidecar
// is missing or inconsistent — and truncates a torn tail.
func (l *segmentLog) scanSegment(seg *segment) error {
	data := make([]byte, seg.size)
	if _, err := seg.f.ReadAt(data, 0); err != nil && err != io.EOF {
		return err
	}
	recs, valid, stats := ScanRecords(data)
	l.recovery.Resyncs += int64(stats.Resyncs)
	l.recovery.RebuiltIdx++
	if valid < seg.size {
		l.recovery.TornBytes += seg.size - valid
		if err := seg.f.Truncate(valid); err != nil {
			return err
		}
		seg.size = valid
	}
	seg.scanned = recs
	if len(recs) == 0 {
		seg.scanned = nil
	}
	return nil
}

// loadSidecar loads <path>.idx into seg when it exactly covers the data
// file: the recorded data size matches, the entries are ordered within
// the file, the last span's first record verifies on disk, and so does
// the last record, which must end at the file size. Anything else fails
// the load and recovery falls back to the authoritative data scan.
func (l *segmentLog) loadSidecar(seg *segment) bool {
	raw, err := os.ReadFile(seg.path + ".idx")
	if err != nil || len(raw) <= idxHdrLen || (len(raw)-idxHdrLen)%idxEntryLen != 0 ||
		!bytes.Equal(raw[:4], idxMagic[:]) ||
		int64(binary.BigEndian.Uint64(raw[4:12])) != seg.size {
		return false
	}
	lastOff := int64(binary.BigEndian.Uint64(raw[12:20]))
	idx := decodeIdxEntries(raw[idxHdrLen:])
	for i, e := range idx {
		if e.last < e.seq || e.off > lastOff ||
			(i > 0 && (e.off <= idx[i-1].off || e.seq <= idx[i-1].last)) {
			return false
		}
	}
	last := idx[len(idx)-1]
	if plen, ok := seg.recordAt(last.off, last.seq); !ok ||
		last.off+recHdrLen+int64(plen)+recTrailerLen > seg.size {
		return false
	}
	if plen, ok := seg.recordAt(lastOff, last.last); !ok ||
		lastOff+recHdrLen+int64(plen)+recTrailerLen != seg.size {
		return false
	}
	seg.idx, seg.lastOff = idx, lastOff
	return true
}

// recordAt reads the record header at off and reports its payload
// length when it carries the record magic and sequence seq.
func (s *segment) recordAt(off int64, seq uint64) (uint32, bool) {
	var hdr [recHdrLen]byte
	if _, err := s.f.ReadAt(hdr[:], off); err != nil ||
		!bytes.Equal(hdr[:4], segMagic[:]) || binary.BigEndian.Uint64(hdr[4:12]) != seq {
		return 0, false
	}
	return binary.BigEndian.Uint32(hdr[12:16]), true
}

func (l *segmentLog) writeSidecar(seg *segment) error {
	buf := append(l.idxBuf[:0], idxMagic[:]...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(seg.size))
	buf = binary.BigEndian.AppendUint64(buf, uint64(seg.lastOff))
	for _, e := range seg.idx {
		buf = appendIdxEntry(buf, e)
	}
	l.idxBuf = buf
	tmp := seg.path + ".idx.tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, seg.path+".idx")
}

// active returns the current append segment.
func (l *segmentLog) active() *segment {
	if len(l.segs) == 0 {
		return nil
	}
	return l.segs[len(l.segs)-1]
}

// append buffers one raw chunk payload as a record of the active
// segment, rolling to a new segment when the active one is full. The
// buffer is written out at each end-of-sector record, so every seq a
// resume cursor can name is in the file before Append returns. On error
// the log is failed; takeUnwritten hands back what never reached disk.
func (l *segmentLog) append(seq uint64, t int64, kind byte, payload []byte) error {
	seg := l.active()
	if seg == nil || seg.size+int64(len(l.pend)) >= l.maxSeg {
		if err := l.roll(seq); err != nil {
			return err
		}
		seg = l.active()
	}
	if len(l.pend) == 0 {
		l.pendSeq = seq
	}
	seg.index(seq, seg.size+int64(len(l.pend)), t, kind)
	l.pend = AppendRecord(l.pend, seq, payload)
	if kind == wireKindEOS || len(l.pend) >= maxPendBytes {
		return l.flush()
	}
	return nil
}

// flush writes the pending records to the active segment.
func (l *segmentLog) flush() error {
	if len(l.pend) == 0 || l.failed {
		return nil
	}
	n, err := l.w.Write(l.pend)
	if err != nil {
		l.failed = true
		l.unwritten = n
		return err
	}
	l.active().size += int64(n)
	l.pend = l.pend[:0]
	l.pendSeq = 0
	l.dirty = true
	return nil
}

// flushThrough writes the pending records out if seq is among them.
func (l *segmentLog) flushThrough(seq uint64) error {
	if l.pendSeq == 0 || seq < l.pendSeq {
		return nil
	}
	return l.flush()
}

// takeUnwritten, after a failed write, cuts the index back to the last
// record that fully reached the file and returns the records that did
// not. The returned payloads alias the log's buffer, which a failed log
// never reuses.
func (l *segmentLog) takeUnwritten() []Record {
	seg := l.active()
	if seg == nil || len(l.pend) == 0 {
		return nil
	}
	var lost []Record
	lastKept := l.pendSeq - 1
	written := int64(l.unwritten)
	var durable int64
	for off := 0; off < len(l.pend); {
		seq := binary.BigEndian.Uint64(l.pend[off+4 : off+12])
		plen := int(binary.BigEndian.Uint32(l.pend[off+12 : off+16]))
		end := off + recHdrLen + plen + recTrailerLen
		if int64(end) <= written {
			lastKept = seq
			seg.lastOff = seg.size + int64(off)
			durable = int64(end)
		} else {
			p := l.pend[off+recHdrLen : off+recHdrLen+plen]
			lost = append(lost, Record{Seq: seq, T: int64(binary.BigEndian.Uint64(p[1:9])), Kind: p[0], Payload: p})
		}
		off = end
	}
	seg.size += durable
	for len(seg.idx) > 0 && seg.idx[len(seg.idx)-1].seq > lastKept {
		seg.idx = seg.idx[:len(seg.idx)-1]
	}
	if n := len(seg.idx); n > 0 && seg.idx[n-1].last > lastKept {
		seg.idx[n-1].last = lastKept
		seg.idx[n-1].eos = false
	}
	l.pend, l.pendSeq = nil, 0
	return lost
}

// roll writes out, fsyncs, indexes and closes the active segment, and
// opens a new one whose name carries its first sequence number.
func (l *segmentLog) roll(firstSeq uint64) error {
	if seg := l.active(); seg != nil {
		if err := l.flush(); err != nil {
			return err
		}
		seg.f.Sync() //nolint:errcheck // batched durability: best effort on roll
		l.dirty = false
		if err := l.writeSidecar(seg); err != nil {
			l.failed = true
			return err
		}
		seg.f.Close() //nolint:errcheck
		seg.f = nil
	}
	path := filepath.Join(l.dir, fmt.Sprintf("seg-%020d.log", firstSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		l.failed = true
		return err
	}
	l.segs = append(l.segs, &segment{path: path, f: f})
	l.w = l.wrapWriter(f)
	return nil
}

// firstSeqOnDisk returns the oldest stored sequence (0 when empty).
func (l *segmentLog) firstSeqOnDisk() uint64 {
	for _, seg := range l.segs {
		if len(seg.idx) > 0 {
			return seg.firstSeq()
		}
	}
	return 0
}

// lastSeqOnDisk returns the newest indexed sequence, pending ones
// included (0 when empty).
func (l *segmentLog) lastSeqOnDisk() uint64 {
	for i := len(l.segs) - 1; i >= 0; i-- {
		if len(l.segs[i].idx) > 0 {
			return l.segs[i].lastSeq()
		}
	}
	return 0
}

// holds reports whether seq lies within the log's indexed range.
func (l *segmentLog) holds(seq uint64) bool {
	first := l.firstSeqOnDisk()
	return first != 0 && seq >= first && seq <= l.lastSeqOnDisk()
}

// logBytes sums the log's bytes, pending ones included.
func (l *segmentLog) logBytes() int64 {
	n := int64(len(l.pend))
	for _, seg := range l.segs {
		n += seg.size
	}
	return n
}

// span is one contiguous written byte range of a segment, covering
// whole sector spans.
type span struct {
	path     string
	off, end int64
}

// spansAfter plans the reads that serve the records with seq > after:
// whole written sector spans, coalesced per segment, until they hold
// about maxN such records or maxSpanBytes. It stops at the first
// unwritten byte.
func (l *segmentLog) spansAfter(after uint64, maxN int) []span {
	var out []span
	n := 0
	si := sort.Search(len(l.segs), func(i int) bool {
		s := l.segs[i]
		return len(s.idx) == 0 || s.lastSeq() > after
	})
	for ; si < len(l.segs) && n < maxN; si++ {
		seg := l.segs[si]
		j := sort.Search(len(seg.idx), func(j int) bool { return seg.idx[j].last > after })
		sp := span{path: seg.path, off: -1}
		for ; j < len(seg.idx) && n < maxN; j++ {
			e := seg.idx[j]
			end := seg.size
			if j+1 < len(seg.idx) {
				end = seg.idx[j+1].off
			}
			if end > seg.size {
				end = seg.size
			}
			if e.off >= end {
				break // not written yet
			}
			if sp.off < 0 {
				sp.off = e.off
			} else if end-sp.off > maxSpanBytes {
				break
			}
			sp.end = end
			from := e.seq
			if from <= after {
				from = after + 1
			}
			n += int(e.last - from + 1)
		}
		if sp.off < 0 {
			break
		}
		out = append(out, sp)
		if j < len(seg.idx) {
			break // the segment has more, but this read is full or unwritten
		}
	}
	return out
}

// close writes out, fsyncs, indexes and closes the active segment.
func (l *segmentLog) close() {
	if seg := l.active(); seg != nil && seg.f != nil {
		l.flush() //nolint:errcheck // a failure leaves the torn tail to recovery
		l.sync()
		if !l.failed {
			l.writeSidecar(seg) //nolint:errcheck // recovery rescans without it
		}
	}
	l.closeFiles()
	l.segs = nil
}

// sync flushes the active segment to stable storage.
func (l *segmentLog) sync() {
	if seg := l.active(); seg != nil && seg.f != nil && l.dirty {
		seg.f.Sync() //nolint:errcheck
		l.dirty = false
	}
}

func (l *segmentLog) closeFiles() {
	for _, seg := range l.segs {
		if seg.f != nil {
			seg.f.Close() //nolint:errcheck
			seg.f = nil
		}
	}
}
