package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"geostreams/internal/faults"
)

// TestCrashRecoveryTornTail simulates a crash mid-record: the segment
// writer is cut after an arbitrary byte count, leaving a torn record at
// the tail of the data file and a sidecar that claims more than the file
// holds. Reopening must truncate the torn tail, rebuild the index, and
// serve every fully-written record bit-identically.
func TestCrashRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	cutErr := errors.New("simulated power loss")
	var cut *faults.CutWriter
	st, err := Open(Options{
		Dir: dir, SegmentBytes: 1 << 20,
		WrapSegmentWriter: func(w io.Writer) io.Writer {
			// 4321 lands mid-record (records here are a few hundred bytes).
			cut = faults.NewCutWriter(w, 4321, cutErr)
			return cut
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.Band("vis")
	if err != nil {
		t.Fatal(err)
	}
	frames := testFrames(20, 40)
	want := encodeAll(t, frames)
	for _, c := range frames {
		b.Append(c)
	}
	if !cut.Cut() {
		t.Fatal("cut never happened; test writes too small")
	}
	if b.Snapshot().DiskErrors == 0 {
		t.Fatal("torn write not surfaced as a disk error")
	}
	// Crash: no clean close — the store is simply abandoned.

	st2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer st2.Close()
	b2, err := st2.Band("vis")
	if err != nil {
		t.Fatal(err)
	}
	snap := b2.Snapshot()
	if snap.Recovery.TornBytes == 0 {
		t.Fatalf("no torn tail detected: %+v", snap.Recovery)
	}
	if snap.Recovery.RebuiltIdx == 0 {
		t.Fatalf("index not rebuilt: %+v", snap.Recovery)
	}
	if snap.Recovery.DupRecords != 0 || snap.Recovery.GapRecords != 0 {
		t.Fatalf("clean prefix misread as dup/gap: %+v", snap.Recovery)
	}
	k := b2.LastSeq()
	if k == 0 || k >= uint64(len(want)) {
		t.Fatalf("recovered %d records, want a strict nonzero prefix of %d", k, len(want))
	}
	b2.SealLive()
	got := collectAll(t, b2.Tail(0), 0)
	if uint64(len(got)) != k {
		t.Fatalf("replayed %d records, recovered %d", len(got), k)
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d not bit-identical after crash recovery", i)
		}
	}
}

// TestRecoveryRebuildsDeletedSidecar: the index sidecar is derived
// state — losing it must only cost a scan.
func TestRecoveryRebuildsDeletedSidecar(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := st.Band("vis")
	frames := testFrames(21, 80)
	want := encodeAll(t, frames)
	for _, c := range frames {
		b.Append(c)
	}
	st.Close()
	idxs, _ := filepath.Glob(filepath.Join(dir, "vis", "*.idx"))
	if len(idxs) == 0 {
		t.Fatal("no sidecars written")
	}
	for _, p := range idxs {
		os.Remove(p)
	}

	st2, err := Open(Options{Dir: dir, SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	b2, _ := st2.Band("vis")
	snap := b2.Snapshot()
	if snap.Recovery.RebuiltIdx == 0 || snap.Recovery.TornBytes != 0 {
		t.Fatalf("want pure index rebuild, got %+v", snap.Recovery)
	}
	b2.SealLive()
	got := collectAll(t, b2.Tail(0), 0)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d differs after sidecar rebuild", i)
		}
	}
}

// TestRecoveryRejectsCorruptSidecar: a sidecar that disagrees with the
// data file (stale length or corrupt entries) must be discarded in
// favor of the authoritative data scan.
func TestRecoveryRejectsCorruptSidecar(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := st.Band("vis")
	frames := testFrames(22, 20)
	for _, c := range frames {
		b.Append(c)
	}
	st.Close()
	idxs, _ := filepath.Glob(filepath.Join(dir, "vis", "*.idx"))
	if len(idxs) != 1 {
		t.Fatalf("want 1 sidecar, got %d", len(idxs))
	}
	// Corrupt the last sector entry's record offset (the low byte of the
	// u64 after seq and last) so the sidecar disagrees with the data file.
	raw, err := os.ReadFile(idxs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-idxEntryLen+8+8+7] ^= 0xFF
	if err := os.WriteFile(idxs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	b2, _ := st2.Band("vis")
	snap := b2.Snapshot()
	if snap.Recovery.RebuiltIdx == 0 {
		t.Fatalf("corrupt sidecar was trusted: %+v", snap.Recovery)
	}
	if b2.LastSeq() != uint64(len(frames)) {
		t.Fatalf("recovered %d records, want %d", b2.LastSeq(), len(frames))
	}
}

// TestRecoveryResyncsPastCorruption: flipped bytes in the middle of a
// segment must not take down the records after them — the scanner
// resyncs on the record magic.
func TestRecoveryResyncsPastCorruption(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := st.Band("vis")
	frames := testFrames(23, 30)
	for _, c := range frames {
		b.Append(c)
	}
	total := b.LastSeq()
	st.Close()
	logs, _ := filepath.Glob(filepath.Join(dir, "vis", "seg-*.log"))
	if len(logs) != 1 {
		t.Fatalf("want 1 segment, got %d", len(logs))
	}
	raw, err := os.ReadFile(logs[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := len(raw) / 2; i < len(raw)/2+8; i++ {
		raw[i] ^= 0xA5
	}
	if err := os.WriteFile(logs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	os.Remove(logs[0] + ".idx") // force the scan path

	st2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	b2, _ := st2.Band("vis")
	snap := b2.Snapshot()
	if snap.Recovery.GapRecords == 0 {
		t.Fatalf("corrupted record not reported as a gap: %+v", snap.Recovery)
	}
	if b2.LastSeq() != total {
		t.Fatalf("records after the corruption lost: last seq %d, want %d", b2.LastSeq(), total)
	}
}

// TestRecoveryCountsDupsAndGaps: hand-crafted segment files with a
// duplicated and a missing sequence must be detected (dups skipped,
// gaps counted) instead of silently merged.
func TestRecoveryCountsDupsAndGaps(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "vis")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	frames := testFrames(24, 4)
	payloads := encodeAll(t, frames)
	rec := func(seq uint64, p []byte) []byte { return AppendRecord(nil, seq, p) }

	// seg A: seqs 1,2,3. seg B: 3 (dup), 4, 6 (gap at 5).
	var a, b []byte
	a = append(a, rec(1, payloads[0])...)
	a = append(a, rec(2, payloads[1])...)
	a = append(a, rec(3, payloads[2])...)
	b = append(b, rec(3, payloads[2])...)
	b = append(b, rec(4, payloads[3])...)
	b = append(b, rec(6, payloads[4])...)
	if err := os.WriteFile(filepath.Join(dir, "seg-00000000000000000001.log"), a, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-00000000000000000003.log"), b, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := Open(Options{Dir: filepath.Dir(dir)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	bd, err := st.Band("vis")
	if err != nil {
		t.Fatal(err)
	}
	snap := bd.Snapshot()
	if snap.Recovery.DupRecords != 1 {
		t.Fatalf("dup records = %d, want 1: %+v", snap.Recovery.DupRecords, snap.Recovery)
	}
	if snap.Recovery.GapRecords != 1 {
		t.Fatalf("gap records = %d, want 1: %+v", snap.Recovery.GapRecords, snap.Recovery)
	}
	if bd.LastSeq() != 6 {
		t.Fatalf("last seq %d, want 6", bd.LastSeq())
	}
}

func FuzzSegmentRecord(f *testing.F) {
	frames := testFrames(25, 2)
	payloads := encodeAll(f, frames)
	one := AppendRecord(nil, 1, payloads[0])
	two := append(append([]byte(nil), one...), AppendRecord(nil, 2, payloads[1])...)
	f.Add(one)
	f.Add(two)
	f.Add(one[:len(one)-3])                  // torn tail
	f.Add(append([]byte("garbage"), one...)) // resync required
	corrupt := append([]byte(nil), two...)
	corrupt[len(one)/2] ^= 0xFF
	f.Add(corrupt)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		// Adversarial scan: must never panic or over-read, and the valid
		// offset can never exceed the input.
		recs, valid, _ := ScanRecords(p)
		if valid < 0 || valid > int64(len(p)) {
			t.Fatalf("valid offset %d out of range [0,%d]", valid, len(p))
		}
		for _, r := range recs {
			if r.End > int64(len(p)) || r.Off < 0 || r.Off >= r.End {
				t.Fatalf("record bounds [%d,%d) out of range", r.Off, r.End)
			}
			// Every accepted record must round-trip through the encoder.
			enc := AppendRecord(nil, r.Seq, r.Payload)
			recs2, v2, stats := ScanRecords(enc)
			if len(recs2) != 1 || v2 != int64(len(enc)) || stats.Resyncs != 0 {
				t.Fatalf("re-encoded record did not scan back cleanly: %d recs, valid %d/%d", len(recs2), v2, len(enc))
			}
			if recs2[0].Seq != r.Seq || !bytes.Equal(recs2[0].Payload, r.Payload) {
				t.Fatal("record round trip drift")
			}
		}
		// A clean append after arbitrary preceding bytes is always
		// recoverable by resync.
		withTail := append(append([]byte(nil), p...), AppendRecord(nil, 99, payloads[0])...)
		tailRecs, _, _ := ScanRecords(withTail)
		found := false
		for _, r := range tailRecs {
			if r.Seq == 99 && bytes.Equal(r.Payload, payloads[0]) {
				found = true
			}
		}
		if !found {
			t.Fatal("appended record lost after arbitrary prefix (resync failed)")
		}
	})
}
