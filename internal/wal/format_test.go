package wal

// The record format pin: a committed payload under testdata/ fixes the
// record layout. A round-trip test alone would pass even if encode and
// decode changed the layout together; this fails on any layout change,
// which must then come with a new recordVersion.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"phasekit/internal/trace"
)

var updateFormat = flag.Bool("update", false, "rewrite the pinned record payload under testdata/")

// pinnedRecord holds an event for every pair of length classes, PC
// delta 0–8 bytes by instruction count 0–4 bytes, with deltas of both
// signs and a PC that wraps past zero.
func pinnedRecord() *Record {
	r := &Record{Stream: "pinned", Seq: 42, Cycles: 123_456_789, EndInterval: true}
	pc := uint64(0x400000)
	for ld := 0; ld <= 8; ld++ {
		for li := 0; li <= 4; li++ {
			z := ofLen(0x9E3779B97F4A7C15, ld)
			if ld > 0 {
				z = z&^1 | uint64(li&1) // odd: a negative delta
			}
			pc += z>>1 ^ -(z & 1)
			r.Events = append(r.Events, trace.BranchEvent{PC: pc, Instrs: uint32(ofLen(0xC2B2AE35, li))})
		}
	}
	return r
}

// ofLen returns the low n bytes of x with the top bit of the last one
// set: a value of exactly n bytes (0 for n = 0).
func ofLen(x uint64, n int) uint64 {
	if n == 0 {
		return 0
	}
	return x&(1<<(8*n)-1) | 1<<(8*n-1)
}

// TestRecordFormatPinned checks that the pinned record encodes to its
// committed bytes and that the committed bytes decode to it. Run with
// -update to rewrite the file after a deliberate, versioned layout
// change.
func TestRecordFormatPinned(t *testing.T) {
	path := filepath.Join("testdata", "record_v2.bin")
	rec := pinnedRecord()
	got := appendPayload(nil, rec)
	if *updateFormat {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("record (%d B) differs from %s (%d B)", len(got), path, len(want))
	}
	dec, err := decodePayload(want)
	if err != nil {
		t.Fatalf("decode %s: %v", path, err)
	}
	if !sameRecord(&dec, rec) {
		t.Errorf("%s decodes to %+v, want %+v", path, dec, *rec)
	}
}

// writeSegment writes a segment holding the given payloads, framed.
func writeSegment(t *testing.T, path string, payloads ...[]byte) {
	t.Helper()
	seg := []byte(segMagic)
	for _, p := range payloads {
		seg = binary.LittleEndian.AppendUint32(seg, uint32(len(p)))
		seg = binary.LittleEndian.AppendUint32(seg, crc32.Checksum(p, castagnoli))
		seg = append(seg, p...)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReplayRefusesVersion1 replays a log whose second segment holds,
// after one current record, a record the version-1 encoder wrote
// (testdata/record_v1.bin, the pinned record in the old delta-varint
// layout). Replay must stop with ErrUnsupportedVersion — not skip the
// segment as corrupt, which would drop an acknowledged record — and
// count the records it delivered, the one before the old record too.
func TestReplayRefusesVersion1(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "record_v1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodePayload(v1); !errors.Is(err, ErrUnsupportedVersion) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("decoding a version-1 record: %v, want only ErrUnsupportedVersion", err)
	}
	root := t.TempDir()
	dir := filepath.Join(root, "shard-0")
	cur := appendPayload(nil, testRecord("s", 1, 3))
	writeSegment(t, segPath(dir, 1), cur)
	writeSegment(t, segPath(dir, 2), appendPayload(nil, testRecord("s", 2, 3)), v1, appendPayload(nil, testRecord("s", 3, 3)))
	var seqs []uint64
	stats, err := Replay(dir, func(r Record) error {
		seqs = append(seqs, r.Seq)
		return nil
	})
	if !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("Replay over a version-1 record: %v, want ErrUnsupportedVersion", err)
	}
	if stats.Quarantined != 0 || stats.Records != 2 || !slices.Equal(seqs, []uint64{1, 2}) {
		t.Fatalf("Replay stats %+v, delivered %v; want 2 records (seqs 1, 2) and nothing quarantined", stats, seqs)
	}
	if _, err := ReplayDirs(root, func(Record) error { return nil }); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("ReplayDirs over a version-1 record: %v, want ErrUnsupportedVersion", err)
	}
}

// TestReplayCountsRecordsBeforeCorruption pins RecoveryStats.Records
// for a segment that fails part way: a CRC-clean record that does not
// decode skips the rest of its segment, but the records it delivered
// before that still count.
func TestReplayCountsRecordsBeforeCorruption(t *testing.T) {
	dir := t.TempDir()
	bad := appendPayload(nil, testRecord("s", 3, 3))
	bad = append(bad, 0) // a data byte no control byte describes
	writeSegment(t, segPath(dir, 1),
		appendPayload(nil, testRecord("s", 1, 3)), appendPayload(nil, testRecord("s", 2, 3)),
		bad, appendPayload(nil, testRecord("s", 4, 3)))
	writeSegment(t, segPath(dir, 2), appendPayload(nil, testRecord("s", 5, 3)))
	var delivered int
	stats, err := Replay(dir, func(Record) error {
		delivered++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 3 || stats.Records != delivered || stats.Quarantined != 1 || stats.Segments != 1 {
		t.Fatalf("delivered %d records, stats %+v; want 3 delivered and counted, 1 quarantined, 1 clean segment", delivered, stats)
	}
}

// TestDecodeRejectsNonCanonical pins the canonical-encoding checks:
// a value one byte longer than it needs to be, a nibble out of range,
// and data bytes the control bytes do not account for are all corrupt.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	rec := &Record{Stream: "s", Events: []trace.BranchEvent{{PC: 1, Instrs: 7}}}
	good := appendPayload(nil, rec)
	hdr := len(good) - 3 // control byte, one PC byte, one instruction byte
	if good[hdr] != 0x11 {
		t.Fatalf("control byte %#x, want 0x11", good[hdr])
	}
	cases := map[string][]byte{
		"padded pc":        append(append(slices.Clone(good[:hdr]), 0x12), 2, 0, 7),
		"padded instrs":    append(append(slices.Clone(good[:hdr]), 0x21), 2, 7, 0),
		"pc nibble 9":      append(append(slices.Clone(good[:hdr]), 0x19), 2, 0, 0, 0, 0, 0, 0, 0, 0, 7),
		"instrs nibble 5":  append(append(slices.Clone(good[:hdr]), 0x51), 2, 7, 0, 0, 0, 0),
		"trailing byte":    append(slices.Clone(good), 0),
		"missing byte":     good[:len(good)-1],
		"zero with length": append(append(slices.Clone(good[:hdr]), 0x11), 0, 7),
	}
	for name, p := range cases {
		if _, err := decodePayload(p); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: decode error %v, want ErrCorrupt", name, err)
		}
	}
	if _, err := decodePayload(good); err != nil {
		t.Fatalf("the unmodified payload: %v", err)
	}
}

// sameRecord reports whether two records are field for field equal.
func sameRecord(a, b *Record) bool {
	return a.Stream == b.Stream && a.Seq == b.Seq && a.Cycles == b.Cycles &&
		a.EndInterval == b.EndInterval && slices.Equal(a.Events, b.Events)
}

// recipeRecord builds a record from fuzz bytes: the first byte sets
// the header flags, and then every event takes a class byte (PC delta
// length in its low nibble mod 9, sign in bit 4, instruction length in
// its high three bits mod 5) and the value bytes it needs. Every class
// pair, negative deltas and PC wrap are reachable.
func recipeRecord(b []byte) *Record {
	r := &Record{Stream: "fuzz"}
	if len(b) > 0 {
		r.Seq, r.Cycles, r.EndInterval = uint64(b[0]), uint64(b[0])<<40, b[0]&1 == 1
		b = b[1:]
	}
	var pc uint64
	for len(b) > 0 {
		c := b[0]
		ld, li := int(c&15)%9, int(c>>5)%5
		b = b[1:]
		var z, v uint64
		z, b = take(b, ld)
		v, b = take(b, li)
		if ld > 0 {
			z = ofLen(z, ld)&^1 | uint64(c>>4&1) // odd: a negative delta
		}
		pc += z>>1 ^ -(z & 1)
		r.Events = append(r.Events, trace.BranchEvent{PC: pc, Instrs: uint32(ofLen(v, li))})
	}
	return r
}

// take reads up to n little-endian bytes of b, zero-filled past its end.
func take(b []byte, n int) (uint64, []byte) {
	var buf [8]byte
	k := copy(buf[:n], b)
	return binary.LittleEndian.Uint64(buf[:]), b[k:]
}

// heapBytes is the process's cumulative allocation.
func heapBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// FuzzRecordCodec holds the record codec's contract on arbitrary
// bytes: decoding never panics and never allocates more than a small
// multiple of the payload (a count is bounded before any slice is
// sized); an accepted payload re-encodes byte-identically (the encoding
// is canonical); and the record the bytes describe as a recipe
// round-trips through encode and decode.
func FuzzRecordCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendPayload(nil, pinnedRecord()))
	f.Add(appendPayload(nil, testRecord("s", 7, 16)))
	classes := []byte{0} // a recipe with every class pair, both signs
	for ld := byte(0); ld <= 8; ld++ {
		for li := byte(0); li <= 4; li++ {
			for _, sign := range []byte{0, 0x10} {
				classes = append(classes, ld|sign|li<<5)
				classes = append(classes, bytes.Repeat([]byte{0xA5 ^ sign}, int(ld+li))...)
			}
		}
	}
	f.Add(classes)
	f.Fuzz(func(t *testing.T, b []byte) {
		before := heapBytes()
		rec, err := decodePayload(b)
		if grew := heapBytes() - before; grew > 64<<10+32*uint64(len(b)) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(b), grew)
		}
		if err == nil {
			if again := appendPayload(nil, &rec); !bytes.Equal(again, b) {
				t.Fatalf("accepted payload %x re-encodes to %x", b, again)
			}
		} else if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrUnsupportedVersion) {
			t.Fatalf("decode error %v is neither corrupt nor an unsupported version", err)
		}

		want := recipeRecord(b)
		enc := appendPayload(nil, want)
		got, err := decodePayload(enc)
		if err != nil {
			t.Fatalf("decoding an encoded record: %v", err)
		}
		if !sameRecord(&got, want) {
			t.Fatalf("round trip: got %+v, want %+v", got, *want)
		}
	})
}
