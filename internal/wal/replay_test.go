package wal

// Replay and recovery stream segments through chunk buffers and decode
// them on several goroutines. These tests hold that to the sequential
// whole-file walk it replaced, kept below as the reference: the same
// records reach fn in the same order, with the same RecoveryStats and
// error, and Open repairs a log exactly as the old recovery did.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"phasekit/internal/rng"
)

// refScanSegment is the reference segment walk: it reads the whole
// file, then checks frames front to back, calling fn for each intact
// one. It returns the clean length (header included), whether the
// segment ended torn, and the records fn accepted.
func refScanSegment(path string, fn func(payload []byte) error) (clean int64, torn bool, records int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, false, 0, err
	}
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return 0, false, 0, fmt.Errorf("%w: %s: bad magic", ErrCorrupt, filepath.Base(path))
	}
	off := int64(len(segMagic))
	for int64(len(data))-off >= frameHeaderSize {
		n := binary.LittleEndian.Uint32(data[off:])
		want := binary.LittleEndian.Uint32(data[off+4:])
		if n == 0 || int64(n) > MaxRecordBytes {
			return off, true, records, nil
		}
		end := off + frameHeaderSize + int64(n)
		if end > int64(len(data)) {
			return off, true, records, nil
		}
		payload := data[off+frameHeaderSize : end]
		if crc32.Checksum(payload, castagnoli) != want {
			return off, true, records, nil
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return off, false, records, err
			}
		}
		off = end
		records++
	}
	return off, int64(len(data)) != off, records, nil
}

// refReplay is the reference Replay: one segment after another, each
// scanned whole on the calling goroutine.
func refReplay(dir string, fn func(Record) error) (RecoveryStats, error) {
	var stats RecoveryStats
	segs, err := listSegments(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return stats, nil
		}
		return stats, err
	}
	for _, n := range segs {
		_, torn, records, err := refScanSegment(segPath(dir, n), func(payload []byte) error {
			rec, err := decodePayload(payload)
			if err != nil {
				return err
			}
			return fn(rec)
		})
		stats.Records += records
		if err != nil {
			if errors.Is(err, ErrCorrupt) {
				stats.Quarantined++
				continue
			}
			return stats, err
		}
		stats.Segments++
		if torn {
			stats.TornBytes++
		}
	}
	return stats, nil
}

// refRecovery is what the reference recovery makes of dir, without
// touching it: its RecoveryStats and the length each segment keeps
// (-1 for a quarantined one).
func refRecovery(t testing.TB, dir string) (RecoveryStats, map[string]int64) {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var stats RecoveryStats
	keep := map[string]int64{}
	for i, n := range segs {
		path := segPath(dir, n)
		info, serr := os.Stat(path)
		if serr != nil {
			t.Fatal(serr)
		}
		clean, torn, records, err := refScanSegment(path, nil)
		switch {
		case err != nil, torn && i < len(segs)-1:
			stats.Quarantined++
			keep[filepath.Base(path)] = -1
			continue
		case torn:
			stats.TornBytes += info.Size() - clean
			keep[filepath.Base(path)] = clean
		default:
			keep[filepath.Base(path)] = info.Size()
		}
		stats.Segments++
		stats.Records += records
	}
	return stats, keep
}

// randomLog writes a log into dir as x directs: records of 0 to a few
// hundred events, and now and then one of tens of thousands that
// straddles chunk boundaries or outgrows a chunk, appended through a
// Log with a segment size from 64 bytes to the default; then damage —
// a torn tail, a flipped byte, a bad magic, a CRC-clean record that
// does not decode, a version-1 record — each on some logs only. It
// returns the number of records appended.
func randomLog(t testing.TB, dir string, x *rng.Xoshiro256, v1 []byte, bigEvents int) int {
	t.Helper()
	sizes := []int64{64, 1 << 10, 64 << 10, 300 << 10, DefaultSegmentBytes}
	l, err := Open(Options{Dir: dir, Sync: SyncOff, SegmentBytes: sizes[x.Intn(len(sizes))]})
	if err != nil {
		t.Fatal(err)
	}
	n := 1 + x.Intn(40)
	for i := 1; i <= n; i++ {
		events := x.Intn(600)
		if x.Intn(12) == 0 {
			events = bigEvents/4 + x.Intn(bigEvents)
		}
		rec := walkRecord(x.Uint64(), events)
		rec.Stream, rec.Seq, rec.EndInterval = fmt.Sprintf("s-%d", x.Intn(4)), uint64(i), x.Intn(2) == 0
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	pick := func() string { return segPath(dir, segs[x.Intn(len(segs))]) }
	if x.Intn(4) == 0 { // a crash mid-append: cut the last segment short
		path := segPath(dir, segs[len(segs)-1])
		data := readFile(t, path)
		writeFile(t, path, data[:len(segMagic)+x.Intn(len(data)-len(segMagic)+1)])
	}
	if x.Intn(4) == 0 { // a torn frame header or junk past the last frame
		path := segPath(dir, segs[len(segs)-1])
		junk := make([]byte, 1+x.Intn(16))
		for i := range junk {
			junk[i] = byte(x.Uint64())
		}
		writeFile(t, path, append(readFile(t, path), junk...))
	}
	if x.Intn(4) == 0 { // bit rot anywhere past the magic
		path := pick()
		if data := readFile(t, path); len(data) > len(segMagic) {
			data[len(segMagic)+x.Intn(len(data)-len(segMagic))] ^= byte(1 + x.Intn(255))
			writeFile(t, path, data)
		}
	}
	if x.Intn(6) == 0 {
		path := pick()
		data := readFile(t, path)
		data[x.Intn(len(segMagic))] ^= 0x20
		writeFile(t, path, data)
	}
	if x.Intn(4) == 0 { // CRC-clean but not a record
		bad := appendPayload(nil, walkRecord(x.Uint64(), x.Intn(100)))
		insertFrame(t, pick(), x, append(bad, 0))
	}
	if x.Intn(6) == 0 {
		insertFrame(t, pick(), x, v1)
	}
	return n
}

// insertFrame frames payload into the segment at path, at a frame
// boundary x picks among the segment's leading intact frames.
func insertFrame(t testing.TB, path string, x *rng.Xoshiro256, payload []byte) {
	t.Helper()
	data := readFile(t, path)
	if len(data) < len(segMagic) {
		return
	}
	bounds := []int{len(segMagic)}
	for off := len(segMagic); len(data)-off >= frameHeaderSize; {
		end := off + frameHeaderSize + int(binary.LittleEndian.Uint32(data[off:]))
		if end > len(data) || end <= off+frameHeaderSize {
			break
		}
		bounds = append(bounds, end)
		off = end
	}
	at := bounds[x.Intn(len(bounds))]
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, castagnoli))
	frame = append(frame, payload...)
	out := append(append(append([]byte(nil), data[:at]...), frame...), data[at:]...)
	writeFile(t, path, out)
}

func readFile(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeFile(t testing.TB, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

var errStop = errors.New("fn stops the walk")

// walk runs replay over dir with an fn that keeps every record and
// fails on the failAt-th (never if failAt < 0).
func walk(dir string, failAt int, replay func(string, func(Record) error) (RecoveryStats, error)) ([]Record, RecoveryStats, error) {
	var got []Record
	stats, err := replay(dir, func(r Record) error {
		if len(got) == failAt {
			return errStop
		}
		got = append(got, r)
		return nil
	})
	return got, stats, err
}

// checkSameWalk replays dir through Replay and refReplay and fails on
// any difference in records, stats or error.
func checkSameWalk(t testing.TB, dir string, failAt int) {
	t.Helper()
	want, wantStats, wantErr := walk(dir, failAt, refReplay)
	got, gotStats, gotErr := walk(dir, failAt, Replay)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || errors.Is(gotErr, ErrCorrupt) != errors.Is(wantErr, ErrCorrupt) ||
		errors.Is(gotErr, ErrUnsupportedVersion) != errors.Is(wantErr, ErrUnsupportedVersion) || errors.Is(gotErr, errStop) != errors.Is(wantErr, errStop) {
		t.Fatalf("Replay error %v, sequential walk %v", gotErr, wantErr)
	}
	if gotStats != wantStats {
		t.Fatalf("Replay stats %+v, sequential walk %+v", gotStats, wantStats)
	}
	if len(got) != len(want) {
		t.Fatalf("Replay delivered %d records, sequential walk %d", len(got), len(want))
	}
	for i := range got {
		if !sameRecord(&got[i], &want[i]) {
			t.Fatalf("record %d: Replay delivered seq %d (%d events), sequential walk seq %d (%d events)",
				i, got[i].Seq, len(got[i].Events), want[i].Seq, len(want[i].Events))
		}
	}
}

// checkSameRecovery opens dir and checks that Open reports what the
// reference recovery reports and leaves every segment at the length
// (or in the quarantine) the reference decides.
func checkSameRecovery(t testing.TB, dir string) {
	t.Helper()
	wantStats, keep := refRecovery(t, dir)
	l, err := Open(Options{Dir: dir, Sync: SyncOff})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	active := filepath.Base(l.f.Name())
	gotStats := l.Recovered()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if gotStats != wantStats {
		t.Fatalf("Open stats %+v, sequential recovery %+v", gotStats, wantStats)
	}
	for name, size := range keep {
		info, err := os.Stat(filepath.Join(dir, name))
		switch {
		case size < 0:
			if err == nil {
				t.Fatalf("%s: kept, want quarantined", name)
			}
			if _, err := os.Stat(filepath.Join(dir, "quarantine", name)); err != nil {
				t.Fatalf("%s: not in the quarantine: %v", name, err)
			}
		case err != nil:
			t.Fatalf("%s: %v, want kept at %d bytes", name, err, size)
		case info.Size() != size:
			t.Fatalf("%s: %d bytes after Open, want %d", name, info.Size(), size)
		}
	}
	if _, ok := keep[active]; ok {
		t.Fatalf("Open appends to existing segment %s", active)
	}
}

// v1Record is the committed version-1 record payload.
func v1Record(t testing.TB) []byte {
	t.Helper()
	return readFile(t, filepath.Join("testdata", "record_v1.bin"))
}

// TestReplayMatchesSequentialWalk holds Replay and Open to the
// sequential reference over random logs: small and default segment
// sizes, records straddling chunk boundaries and records larger than a
// chunk, torn tails, corrupt and foreign segments, CRC-clean records
// that do not decode, version-1 records, and fn failing at a random
// record.
func TestReplayMatchesSequentialWalk(t *testing.T) {
	v1 := v1Record(t)
	seeds := 40
	if testing.Short() {
		seeds = 15
	}
	for seed := 1; seed <= seeds; seed++ {
		x := rng.NewXoshiro256(uint64(seed))
		dir := t.TempDir()
		n := randomLog(t, dir, x, v1, chunkBytes/4)
		failAt := -1
		if x.Intn(3) == 0 {
			failAt = x.Intn(n + 1)
		}
		checkSameWalk(t, dir, failAt)
		checkSameRecovery(t, dir)
		checkSameWalk(t, dir, failAt) // the repaired log
	}
}

// TestReplayLargeRecords pins the chunk edges: frames ending exactly
// at a chunk boundary and one byte either side of one, and a record
// larger than a chunk, in one segment, each replayed whole and in
// order.
func TestReplayLargeRecords(t *testing.T) {
	dir := t.TempDir()
	used := len(segMagic)
	var payloads [][]byte
	add := func(p []byte) {
		payloads = append(payloads, p)
		used += frameHeaderSize + len(p)
	}
	add(appendPayload(nil, testRecord("s", 1, 10)))
	for i, target := range []int{chunkBytes, 2*chunkBytes + 1, 3*chunkBytes - 1} {
		add(recordEndingAt(uint64(i+2), used, target))
		if used != target {
			t.Fatalf("frame %d ends at %d, want %d", i+2, used, target)
		}
	}
	add(appendPayload(nil, walkRecord(5, 3*chunkBytes/2)))
	add(appendPayload(nil, testRecord("s", 6, 1)))
	writeSegment(t, segPath(dir, 1), payloads...)
	checkSameWalk(t, dir, -1)
	got, stats, err := walk(dir, -1, Replay)
	if err != nil || stats.Records != len(payloads) || len(got) != len(payloads) {
		t.Fatalf("replayed %d records, stats %+v, err %v; want %d", len(got), stats, err, len(payloads))
	}
	checkSameRecovery(t, dir)
}

// TestReplaySkipsRestOfCorruptSegment pins that a record failing to
// decode in a segment's first chunk drops every later chunk of that
// segment, which the reader has already streamed, and that replay goes
// on with the next segment.
func TestReplaySkipsRestOfCorruptSegment(t *testing.T) {
	dir := t.TempDir()
	bad := append(appendPayload(nil, testRecord("s", 2, 3)), 0)
	payloads := [][]byte{appendPayload(nil, testRecord("s", 1, 3)), bad}
	for seq := uint64(3); seq < 9; seq++ {
		r := walkRecord(seq, chunkBytes/8)
		r.Seq = seq
		payloads = append(payloads, appendPayload(nil, r))
	}
	writeSegment(t, segPath(dir, 1), payloads...)
	writeSegment(t, segPath(dir, 2), appendPayload(nil, testRecord("s", 9, 3)))
	checkSameWalk(t, dir, -1)
	got, stats, err := walk(dir, -1, Replay)
	if err != nil || len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 9 {
		t.Fatalf("replayed %d records (err %v), want seqs 1 and 9", len(got), err)
	}
	if want := (RecoveryStats{Segments: 1, Records: 2, Quarantined: 1}); stats != want {
		t.Fatalf("stats %+v, want %+v", stats, want)
	}
}

// recordEndingAt returns the payload of a record with sequence seq
// whose frame, placed at offset used, ends exactly at target: as many
// events as fit, then a stream name padded to the last byte.
func recordEndingAt(seq uint64, used, target int) []byte {
	r := walkRecord(seq, target/3) // about five bytes an event: more than fit
	r.Seq = seq
	all := r.Events
	fits := func(n int) bool {
		r.Events = all[:n]
		return used+frameHeaderSize+len(appendPayload(nil, r)) <= target
	}
	lo, hi := 0, len(all) // fits(lo), and hi is past the last n that fits
	for hi-lo > 1 {
		if mid := (lo + hi) / 2; fits(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	r.Events = all[:lo]
	pad := target - used - frameHeaderSize - len(appendPayload(nil, r))
	r.Stream += strings.Repeat("x", pad)
	return appendPayload(nil, r)
}

// FuzzReplayMatchesSequentialWalk mutates a random log byte by byte
// (three bytes per edit: segment, then a position scaled to the
// file) and holds Replay and Open to the sequential reference.
func FuzzReplayMatchesSequentialWalk(f *testing.F) {
	f.Add(uint64(1), []byte{})
	f.Add(uint64(2), []byte{0, 0, 9})
	f.Add(uint64(3), []byte{1, 0x80, 0, 0, 0xff, 0xff})
	f.Add(uint64(4), []byte{0, 0, 0, 0, 0, 4})
	v1 := v1Record(f)
	f.Fuzz(func(t *testing.T, seed uint64, edits []byte) {
		x := rng.NewXoshiro256(seed)
		dir := t.TempDir()
		n := randomLog(t, dir, x, v1, chunkBytes/6)
		segs, err := listSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		for ; len(edits) >= 3 && len(segs) > 0; edits = edits[3:] {
			path := segPath(dir, segs[int(edits[0])%len(segs)])
			data := readFile(t, path)
			if len(data) == 0 {
				continue
			}
			data[(int(edits[1])<<8|int(edits[2]))*len(data)>>16] ^= edits[0] | 1
			writeFile(t, path, data)
		}
		failAt := -1
		if seed%3 == 0 {
			failAt = int(seed/3) % (n + 1)
		}
		checkSameWalk(t, dir, failAt)
		checkSameRecovery(t, dir)
	})
}

// TestReplayEarlyStopReleasesEverything pins Replay's cleanup when the
// walk stops early — fn fails, a record has an unsupported version, a
// segment cannot be read — while the reader is chunks ahead: once
// Replay returns, its goroutines exit and every segment file is closed.
func TestReplayEarlyStopReleasesEverything(t *testing.T) {
	v1 := v1Record(t)
	// A segment larger than the ring, so that the reader is blocked on
	// a full ring when the walk stops.
	var payloads [][]byte
	for size := 0; size <= ringChunks*chunkBytes; {
		r := walkRecord(uint64(len(payloads)+1), 8000)
		payloads = append(payloads, appendPayload(nil, r))
		size += len(payloads[len(payloads)-1])
	}
	big := func(dir string, n uint64) { writeSegment(t, segPath(dir, n), payloads...) }
	cases := map[string]struct {
		build func(dir string)
		fn    func(Record) error
		want  error
	}{
		"fn error": {
			build: func(dir string) { big(dir, 1); big(dir, 2) },
			fn:    func(r Record) error { return errStop },
			want:  errStop,
		},
		"unsupported version": {
			build: func(dir string) {
				big(dir, 1)
				writeSegment(t, segPath(dir, 2), appendPayload(nil, testRecord("s", 200, 3)), v1)
				big(dir, 3)
			},
			fn:   func(Record) error { return nil },
			want: ErrUnsupportedVersion,
		},
		"segment read error": {
			build: func(dir string) {
				big(dir, 1)
				// A directory posing as segment 2: it opens, but reading
				// it fails.
				if err := os.Mkdir(filepath.Join(dir, "elsewhere"), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.Symlink("elsewhere", segPath(dir, 2)); err != nil {
					t.Skipf("no symlinks here: %v", err)
				}
				big(dir, 3)
			},
			fn:   func(Record) error { return nil },
			want: nil, // any error that is not corruption
		},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c.build(dir)
			base := runtime.NumGoroutine()
			_, err := Replay(dir, c.fn)
			switch {
			case err == nil:
				t.Fatal("Replay returned no error")
			case c.want != nil && !errors.Is(err, c.want):
				t.Fatalf("Replay error %v, want %v", err, c.want)
			case c.want == nil && (errors.Is(err, ErrCorrupt) || errors.Is(err, ErrUnsupportedVersion)):
				t.Fatalf("Replay error %v, want a read error", err)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Fatalf("%d goroutines after Replay returned, %d before", n, base)
			}
			if open := openFilesUnder(t, dir); len(open) > 0 {
				t.Fatalf("files still open after Replay returned: %v", open)
			}
		})
	}
}

// openFilesUnder lists the files under dir this process holds open.
func openFilesUnder(t *testing.T, dir string) []string {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open files: %v", err)
	}
	root, err := filepath.EvalSymlinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	var open []string
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.HasPrefix(target, root+string(filepath.Separator)) {
			open = append(open, target)
		}
	}
	return open
}

// TestCorruptLengthAllocationBound pins that a frame length is checked
// against the bytes left in the segment before any buffer grows for
// it: a header claiming nearly MaxRecordBytes in a segment of about
// 1 MiB costs Open and Replay no more than about the segment's size,
// where growing first would allocate the claimed 64 MiB.
func TestCorruptLengthAllocationBound(t *testing.T) {
	dir := t.TempDir()
	path := segPath(dir, 1)
	writeSegment(t, path, appendPayload(nil, testRecord("s", 1, 3)))
	hdr := binary.LittleEndian.AppendUint32(nil, MaxRecordBytes-1)
	hdr = binary.LittleEndian.AppendUint32(hdr, 0)
	seg := append(readFile(t, path), hdr...)
	seg = append(seg, make([]byte, 1<<20)...)
	writeFile(t, path, seg)
	limit := uint64(len(seg))

	before := heapBytes()
	stats, err := Replay(dir, func(Record) error { return nil })
	if grew := heapBytes() - before; grew > limit {
		t.Fatalf("Replay allocated %d bytes over a %d-byte segment", grew, len(seg))
	}
	if err != nil || stats.Records != 1 || stats.TornBytes != 1 {
		t.Fatalf("Replay stats %+v, err %v; want 1 record and a torn segment", stats, err)
	}

	before = heapBytes()
	l, err := Open(Options{Dir: dir, Sync: SyncOff})
	if grew := heapBytes() - before; grew > limit {
		t.Fatalf("Open allocated %d bytes over a %d-byte segment", grew, len(seg))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if st := l.Recovered(); st.Records != 1 || st.TornBytes != int64(len(hdr)+1<<20) {
		t.Fatalf("Open stats %+v, want 1 record and the bogus frame truncated", st)
	}
}
