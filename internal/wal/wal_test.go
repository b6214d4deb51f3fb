package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"phasekit/internal/rng"
	"phasekit/internal/trace"
)

func testRecord(stream string, seq uint64, n int) *Record {
	r := &Record{Stream: stream, Seq: seq, Cycles: 100 * uint64(n), EndInterval: seq%3 == 0}
	for i := 0; i < n; i++ {
		r.Events = append(r.Events, trace.BranchEvent{PC: 0x400000 + uint64(i)*64, Instrs: uint32(10 + i)})
	}
	return r
}

func appendCommit(t *testing.T, l *Log, rec *Record) {
	t.Helper()
	lsn, err := l.Append(rec)
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.Commit(lsn); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

func replayAll(t *testing.T, dir string) []Record {
	t.Helper()
	var out []Record
	if _, err := Replay(dir, func(r Record) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

// TestRoundTrip pins that appended records replay byte-identically, in
// order, across a close/reopen.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	var want []*Record
	for i := 1; i <= 20; i++ {
		rec := testRecord(fmt.Sprintf("s-%d", i%4), uint64(i), i%7+1)
		want = append(want, rec)
		appendCommit(t, l, rec)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range got {
		w := *want[i]
		if got[i].Stream != w.Stream || got[i].Seq != w.Seq || got[i].Cycles != w.Cycles ||
			got[i].EndInterval != w.EndInterval || len(got[i].Events) != len(w.Events) {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], w)
		}
		for j := range w.Events {
			if got[i].Events[j] != w.Events[j] {
				t.Fatalf("record %d event %d: got %+v, want %+v", i, j, got[i].Events[j], w.Events[j])
			}
		}
	}
}

// TestTornTailTruncatedOnOpen pins the crash signature: a partial frame
// at the tail is truncated away on reopen, the intact prefix survives,
// and appends resume cleanly.
func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		appendCommit(t, l, testRecord("s", uint64(i), 3))
	}
	seg := l.f.Name()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: tack a partial frame onto the tail.
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var torn [12]byte
	binary.LittleEndian.PutUint32(torn[0:], 500) // length promises 500 payload bytes
	if _, err := f.Write(torn[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(Options{Dir: dir, Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	if st := l2.Recovered(); st.Records != 5 || st.TornBytes != 12 {
		t.Fatalf("recovery stats %+v, want 5 records and 12 torn bytes", st)
	}
	appendCommit(t, l2, testRecord("s", 6, 3))
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	if len(got) != 6 {
		t.Fatalf("replayed %d records, want 6", len(got))
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d seq %d, want %d", i, r.Seq, i+1)
		}
	}
}

// TestCorruptMidSegmentQuarantined pins that a bit-flip inside a sealed
// (non-tail) segment quarantines that segment on open while the other
// segments stay replayable.
func TestCorruptMidSegmentQuarantined(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force a rotation every record or two.
	l, err := Open(Options{Dir: dir, Sync: SyncGroup, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		appendCommit(t, l, testRecord("s", uint64(i), 2))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %v (err %v)", segs, err)
	}
	// Flip a payload byte in the middle segment.
	victim := segPath(dir, segs[1])
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(segMagic)+frameHeaderSize+2] ^= 0x80
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(Options{Dir: dir, Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	st := l2.Recovered()
	l2.Close()
	if st.Quarantined != 1 {
		t.Fatalf("quarantined %d segments, want 1 (stats %+v)", st.Quarantined, st)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", filepath.Base(victim))); err != nil {
		t.Fatalf("quarantined segment not preserved: %v", err)
	}
	got := replayAll(t, dir)
	// The corrupt segment's records are gone; everything else survives.
	seen := map[uint64]bool{}
	for _, r := range got {
		seen[r.Seq] = true
	}
	if len(got) == 0 || len(got) >= 6 {
		t.Fatalf("replayed %d records after quarantine, want a strict non-empty subset of 6", len(got))
	}
	for s := range seen {
		if s < 1 || s > 6 {
			t.Fatalf("unexpected seq %d", s)
		}
	}
}

// TestRotation pins that the log rotates at the segment threshold and
// that replay spans segments in order.
func TestRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncOff, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 40; i++ {
		appendCommit(t, l, testRecord("s", uint64(i), 4))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 4 {
		t.Fatalf("want >=4 segments after 40 records at 256B threshold, got %d", len(segs))
	}
	got := replayAll(t, dir)
	if len(got) != 40 {
		t.Fatalf("replayed %d records, want 40", len(got))
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d seq %d, want %d (cross-segment order broken)", i, r.Seq, i+1)
		}
	}
}

// TestTruncateDiscardsHistory pins that Truncate (post-checkpoint)
// leaves nothing to replay while the log stays appendable.
func TestTruncateDiscardsHistory(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncGroup, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		appendCommit(t, l, testRecord("s", uint64(i), 3))
	}
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, dir); len(got) != 0 {
		t.Fatalf("replayed %d records after truncate, want 0", len(got))
	}
	appendCommit(t, l, testRecord("s", 11, 3))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	if len(got) != 1 || got[0].Seq != 11 {
		t.Fatalf("post-truncate replay %+v, want just seq 11", got)
	}
}

// TestGroupCommitConcurrent hammers Append+Commit from many goroutines
// under -race and checks every committed record replays. The group
// window means syncs ≪ appends.
func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= per; i++ {
				rec := testRecord(fmt.Sprintf("w-%d", w), uint64(i), 2)
				lsn, err := l.Append(rec)
				if err == nil {
					err = l.Commit(lsn)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	appends, syncs := l.Stats()
	if appends != writers*per {
		t.Fatalf("appends %d, want %d", appends, writers*per)
	}
	if syncs == 0 || syncs > appends {
		t.Fatalf("syncs %d outside (0, %d]", syncs, appends)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	if len(got) != writers*per {
		t.Fatalf("replayed %d records, want %d", len(got), writers*per)
	}
	// Per-stream order must hold even though writers interleave.
	last := map[string]uint64{}
	for _, r := range got {
		if r.Seq != last[r.Stream]+1 {
			t.Fatalf("stream %s: seq %d after %d", r.Stream, r.Seq, last[r.Stream])
		}
		last[r.Stream] = r.Seq
	}
}

// TestAppendBufferBoundedDuringSync pins the append buffer's bound: with
// a group fsync held in flight, a long run of appends is written
// through to the segment instead of growing the buffer, and a commit
// after the fsync still covers every record, which replays intact and
// in order.
func TestAppendBufferBoundedDuringSync(t *testing.T) {
	dir := t.TempDir()
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	l, err := Open(Options{Dir: dir, Sync: SyncGroup, Hooks: Hooks{BeforeSync: func(string) error {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
		return nil
	}}})
	if err != nil {
		t.Fatal(err)
	}
	var want []*Record
	first := testRecord("s", 1, 64)
	want = append(want, first)
	lsn, err := l.Append(first)
	if err != nil {
		t.Fatal(err)
	}
	committed := make(chan error, 1)
	go func() { committed <- l.Commit(lsn) }()
	<-entered // the first window's fsync is in flight, lock released

	const n = 2000
	var maxCap int
	for i := 2; i <= n; i++ {
		rec := testRecord("s", uint64(i), 64)
		want = append(want, rec)
		if lsn, err = l.Append(rec); err != nil {
			t.Fatal(err)
		}
		l.mu.Lock()
		maxCap = max(maxCap, cap(l.buf))
		l.mu.Unlock()
	}
	// One record past the threshold, rounded up by append's growth.
	if limit := 2 * writeThroughBytes; maxCap > limit {
		t.Fatalf("append buffer grew to %d bytes during the fsync, want <= %d", maxCap, limit)
	}
	close(gate)
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	if appends, _ := l.Stats(); appends != n {
		t.Fatalf("appends %d, want %d", appends, n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	for i := range got {
		w := want[i]
		if got[i].Seq != w.Seq || got[i].Cycles != w.Cycles || len(got[i].Events) != len(w.Events) {
			t.Fatalf("record %d: got seq %d, want %d", i, got[i].Seq, w.Seq)
		}
		for j := range w.Events {
			if got[i].Events[j] != w.Events[j] {
				t.Fatalf("record %d event %d: got %+v, want %+v", i, j, got[i].Events[j], w.Events[j])
			}
		}
	}
}

// walkRecord returns a record of n events whose PCs move as a program's
// branches do: short hops, backward loop edges, far calls and returns
// to a hot region, with instruction counts of 1–300.
func walkRecord(seed uint64, n int) *Record {
	x := rng.NewXoshiro256(seed)
	r := &Record{Stream: "walk", Seq: seed, Cycles: 100_000}
	pc := uint64(0x400000)
	for i := 0; i < n; i++ {
		switch x.Intn(4) {
		case 0:
			pc += uint64(x.Intn(64))
		case 1:
			pc -= uint64(x.Intn(4096))
		case 2:
			pc += uint64(x.Intn(1 << 20))
		default:
			pc = 0x400000 + uint64(x.Intn(1<<16))
		}
		r.Events = append(r.Events, trace.BranchEvent{PC: pc, Instrs: uint32(1 + x.Intn(300))})
	}
	return r
}

// TestAppendBufferRetainedCap pins the capacity the log keeps in its
// append buffer under a server's steady load: 512-event records in
// commit windows of 19 appends (what ingest-durable's group commits
// cover), so writes go through at writeThroughBytes. The buffer then
// holds less than writeThroughBytes plus one frame, and Append reserves
// each record's exact size, so append's growth rule (at most a quarter
// more, rounded to a size class) bounds what it keeps. A buffer grown
// to twice its capacity plus the record would keep more.
func TestAppendBufferRetainedCap(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recs := make([]*Record, 16)
	for i := range recs {
		recs[i] = walkRecord(uint64(i+1), 512)
	}
	var maxCap, maxFrame int
	for i := 0; i < 2000; i++ {
		before := l.wroteLSN
		lsn, err := l.Append(recs[i%len(recs)])
		if err != nil {
			t.Fatal(err)
		}
		maxFrame = max(maxFrame, int(l.wroteLSN-before))
		if i%19 == 18 {
			if err := l.Commit(lsn); err != nil {
				t.Fatal(err)
			}
		}
		maxCap = max(maxCap, cap(l.buf))
	}
	t.Logf("max cap %d, max frame %d", maxCap, maxFrame)
	if limit := writeThroughBytes*5/4 + maxFrame; maxCap > limit {
		t.Fatalf("append buffer kept %d bytes of capacity, want <= %d (largest frame %d)", maxCap, limit, maxFrame)
	}
}

// TestInjectedTornWrite pins the faults-hook contract: a torn append
// fails, latches the log, and a reopen truncates exactly the torn
// fragment so the acked prefix replays intact.
func TestInjectedTornWrite(t *testing.T) {
	dir := t.TempDir()
	n := 0
	hooks := Hooks{TornWrite: func(frame []byte) (int, bool) {
		n++
		if n == 4 {
			return len(frame) / 2, true
		}
		return 0, false
	}}
	l, err := Open(Options{Dir: dir, Sync: SyncGroup, Hooks: hooks})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		appendCommit(t, l, testRecord("s", uint64(i), 3))
	}
	if _, err := l.Append(testRecord("s", 4, 3)); err == nil {
		t.Fatal("torn append reported success")
	}
	// The log is latched: even a previously-fine append now fails.
	if _, err := l.Append(testRecord("s", 5, 3)); err == nil {
		t.Fatal("append after torn write reported success")
	}
	l.f.Close() // crash: no orderly Close

	l2, err := Open(Options{Dir: dir, Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	if st := l2.Recovered(); st.TornBytes == 0 {
		t.Fatalf("recovery stats %+v, want torn bytes truncated", st)
	}
	l2.Close()
	got := replayAll(t, dir)
	if len(got) != 3 {
		t.Fatalf("replayed %d records, want the 3 acked ones", len(got))
	}
}

// TestInjectedShortFsync pins that a failing fsync surfaces to Commit
// instead of acking undurable data.
func TestInjectedShortFsync(t *testing.T) {
	dir := t.TempDir()
	fail := errors.New("injected short fsync")
	n := 0
	hooks := Hooks{BeforeSync: func(string) error {
		n++
		if n == 1 {
			return fail
		}
		return nil
	}}
	l, err := Open(Options{Dir: dir, Sync: SyncGroup, Hooks: hooks})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Append(testRecord("s", 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(lsn); err == nil {
		t.Fatal("commit with failed fsync reported success")
	}
}

// TestReplayDirs pins multi-shard replay order and missing-root
// tolerance.
func TestReplayDirs(t *testing.T) {
	root := t.TempDir()
	for _, shard := range []string{"shard-0", "shard-1"} {
		l, err := Open(Options{Dir: filepath.Join(root, shard), Sync: SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 3; i++ {
			appendCommit(t, l, testRecord(shard, uint64(i), 1))
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	var order []string
	stats, err := ReplayDirs(root, func(r Record) error {
		order = append(order, fmt.Sprintf("%s/%d", r.Stream, r.Seq))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 6 {
		t.Fatalf("replayed %d records, want 6", stats.Records)
	}
	want := []string{"shard-0/1", "shard-0/2", "shard-0/3", "shard-1/1", "shard-1/2", "shard-1/3"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("replay order %v, want %v", order, want)
		}
	}
	if stats, err := ReplayDirs(filepath.Join(root, "never-created"), nil); err != nil || stats.Records != 0 {
		t.Fatalf("missing root: stats %+v err %v, want empty success", stats, err)
	}
}

// TestSegmentMagicRejected pins that a foreign file posing as a segment
// quarantines instead of decoding.
func TestSegmentMagicRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(segPath(dir, 1), []byte("not a wal segment at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(Options{Dir: dir, Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if st := l.Recovered(); st.Quarantined != 1 || st.Segments != 0 {
		t.Fatalf("recovery stats %+v, want 1 quarantined", st)
	}
}

// FuzzTornTail feeds arbitrary tails appended to a valid segment
// prefix through Open: recovery must never error, never panic, and
// always preserve the intact prefix.
func FuzzTornTail(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add(bytes.Repeat([]byte{0xFF}, 32))
	var tornFrame [12]byte
	binary.LittleEndian.PutUint32(tornFrame[0:], 1<<30)
	f.Add(tornFrame[:])
	f.Fuzz(func(t *testing.T, tail []byte) {
		dir := t.TempDir()
		l, err := Open(Options{Dir: dir, Sync: SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 3; i++ {
			lsn, err := l.Append(testRecord("s", uint64(i), 2))
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Commit(lsn); err != nil {
				t.Fatal(err)
			}
		}
		seg := l.f.Name()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		fh, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		fh.Write(tail)
		fh.Close()

		l2, err := Open(Options{Dir: dir, Sync: SyncOff})
		if err != nil {
			t.Fatalf("recovery errored on torn tail %x: %v", tail, err)
		}
		l2.Close()
		var n int
		if _, err := Replay(dir, func(r Record) error {
			n++
			if r.Seq != uint64(n) {
				return fmt.Errorf("seq %d at position %d", r.Seq, n)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if n < 3 {
			t.Fatalf("replayed %d records, torn tail ate acked data", n)
		}
	})
}
