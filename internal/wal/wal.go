// Package wal is a segmented, CRC32C-framed, group-commit write-ahead
// log for acked ingest batches. The server appends every admitted batch
// to the owning shard's log and withholds the ACK until the record is
// durable, so a kill -9 can lose only frames the client never saw
// acknowledged — and the client's reconnect replay re-delivers those.
//
// On-disk layout (one directory per log):
//
//	000000001.wal, 000000002.wal, ...   numbered segments
//	quarantine/                         corrupt non-tail segments
//
// Each segment starts with an 8-byte magic header and then holds
// length-prefixed records:
//
//	u32 LE payload length | u32 LE CRC32C(payload) | payload
//
// The payload itself is an internal/state section (TagRecord), so the
// record format is versioned like every other codec in the repo.
//
// Durability discipline mirrors the FileStore (DESIGN.md §10): appends
// go to the active segment through a bounded write buffer; a group commit
// batches fsyncs across whatever accumulated while the previous fsync
// ran, and committers wait until the synced offset covers their record.
// Opening a log truncates a torn tail (a crash mid-append) off the last
// segment and quarantines corrupt earlier segments, so recovery always
// yields the maximal clean prefix of acked records.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"phasekit/internal/state"
	"phasekit/internal/trace"
)

// TagRecord is the section tag of every WAL record payload. Distinct
// from the snapshot tags (0xA1–0xF5) so a WAL payload can never be
// misdecoded as tracker state.
const TagRecord = byte(0xE1)

// recordVersion is the record layout revision this build writes and
// the only one it reads. Version 1 delta-varint packed its events; no
// reader for it remains, so a log must be drained (checkpoint, then
// Truncate) before an upgrade across a version change.
const recordVersion = 2

// segMagic opens every segment file. The trailing newline makes a
// head(1) of a segment self-identifying, like the wire protocol magic.
const segMagic = "PKWAL1\n\x00"

// segExt is the segment filename extension.
const segExt = ".wal"

// frameHeaderSize is the per-record framing overhead: u32 length plus
// u32 CRC32C.
const frameHeaderSize = 8

// DefaultSegmentBytes is the rotation threshold: an active segment that
// grows past it is sealed and a new one started, bounding both the
// replay unit and the space reclaimed per truncation.
const DefaultSegmentBytes = 16 << 20

// writeThroughBytes bounds the append buffer: once it holds this much,
// Append writes it out to the active segment instead of letting it
// grow. Without the bound the buffer would keep the capacity of the
// largest commit window it ever held.
const writeThroughBytes = 16 << 10

// MaxRecordBytes bounds one record's payload. Ingest batches are capped
// well below this by the wire frame limit; anything larger in a segment
// is corruption, and rejecting it before allocating defends the replay
// path the same way the FileStore size limit defends Load.
const MaxRecordBytes = 64 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt wraps every recovery/replay integrity failure: a bad
// magic, a CRC mismatch, or an impossible length.
var ErrCorrupt = errors.New("wal: corrupt segment")

// ErrUnsupportedVersion is returned by Replay and ReplayDirs for an
// intact record written in a layout version this build does not read.
// Unlike corruption it is never skipped: the record was acknowledged,
// so replay stops rather than lose it.
var ErrUnsupportedVersion = errors.New("wal: unsupported record version")

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// SyncMode selects the durability level of Append+Commit.
type SyncMode int

const (
	// SyncOff never fsyncs: records reach the OS on Commit but an OS
	// crash can lose them. Orderly shutdowns still leave a complete,
	// replayable log.
	SyncOff SyncMode = iota
	// SyncGroup batches fsyncs across a commit window: committers wait
	// until a flush has synced past their record, and every committer
	// that arrives while an fsync runs is covered together by the next
	// one. The default durable mode.
	SyncGroup
)

func (m SyncMode) String() string {
	switch m {
	case SyncOff:
		return "off"
	case SyncGroup:
		return "group"
	}
	return fmt.Sprintf("SyncMode(%d)", int(m))
}

// Record is one acked ingest batch: exactly the fields the fleet needs
// to re-apply it on replay, including the client's per-stream sequence
// number that makes re-application idempotent.
type Record struct {
	Stream      string
	Seq         uint64 // per-stream monotonic sequence (0 = unstamped)
	Cycles      uint64
	EndInterval bool
	Events      []trace.BranchEvent
}

// appendPayload encodes a record as a state-codec section: the header
// fields, the event count n, then the events in a control-byte layout
// (after Lemire et al.'s Stream VByte). Each event contributes one
// control byte, whose low nibble is the byte length (0–8) of the zigzag
// PC delta from the previous event and whose high nibble is the byte
// length (0–4) of its instruction count; the n control bytes are
// followed by every value's bytes, little-endian, packed back to back.
// Lengths are minimal (a value's top byte is nonzero, and 0 has length
// 0), so the encoding of a record is canonical. Branch PCs cluster, so
// most deltas take 1–2 bytes where a fixed u64 spends 8.
func appendPayload(buf []byte, r *Record) []byte {
	enc := state.AppendTo(buf)
	enc.Section(TagRecord, recordVersion)
	enc.String(r.Stream)
	enc.U64(r.Seq)
	enc.U64(r.Cycles)
	enc.Bool(r.EndInterval)
	enc.U32(uint32(len(r.Events)))
	return appendEvents(enc.Bytes(), r.Events)
}

// appendEvents appends the control bytes and packed values of evs. A
// first pass sizes the output exactly, so the append buffer grows only
// by what the record needs; the second writes every value with one
// unconditional 8-byte store, whose bytes past the value's length are
// overwritten by the next store or lie in the 8 bytes of slack past the
// end.
func appendEvents(buf []byte, evs []trace.BranchEvent) []byte {
	size := len(evs)
	var prev uint64
	for _, ev := range evs {
		size += byteLen(zigzag(ev.PC-prev)) + byteLen(uint64(ev.Instrs))
		prev = ev.PC
	}
	start := len(buf)
	buf = slices.Grow(buf, size+8)
	ctrl := buf[start : start+len(evs)]
	data := buf[start+len(evs) : start+size+8]
	prev = 0
	off := 0
	for i, ev := range evs {
		d, v := zigzag(ev.PC-prev), uint64(ev.Instrs)
		prev = ev.PC
		ld, li := byteLen(d), byteLen(v)
		ctrl[i] = byte(ld | li<<4)
		binary.LittleEndian.PutUint64(data[off:], d)
		off += ld
		binary.LittleEndian.PutUint64(data[off:], v)
		off += li
	}
	return buf[:start+size]
}

// decodePayload decodes one record payload. A record of another layout
// version fails with ErrUnsupportedVersion; any other defect, including
// a non-minimal value length, fails with ErrCorrupt.
func decodePayload(payload []byte) (Record, error) {
	if len(payload) >= 2 && payload[0] == TagRecord && payload[1] != recordVersion {
		return Record{}, fmt.Errorf("%w: record version %d, this build reads only %d", ErrUnsupportedVersion, payload[1], recordVersion)
	}
	d := state.NewDecoder(payload)
	d.Section(TagRecord, recordVersion)
	var r Record
	r.Stream = d.String()
	r.Seq = d.U64()
	r.Cycles = d.U64()
	r.EndInterval = d.Bool()
	n := d.Count(1) // one control byte per event at least
	ctrl, _ := d.Block(n, 1)
	data, _ := d.Block(d.Len(), 1)
	if err := d.Finish(); err != nil {
		return Record{}, fmt.Errorf("%w: record: %w", ErrCorrupt, err)
	}
	if want, ok := dataLen(ctrl); !ok || want != len(data) {
		return Record{}, fmt.Errorf("%w: record: control bytes out of range or not describing the %d data bytes", ErrCorrupt, len(data))
	}
	if n > 0 {
		r.Events = make([]trace.BranchEvent, n)
		if !decodeEvents(r.Events, ctrl, data) {
			return Record{}, fmt.Errorf("%w: record: event value not minimally encoded", ErrCorrupt)
		}
	}
	return r, nil
}

// dataLen returns the number of value bytes the control bytes describe,
// and false if any nibble is out of range. It reads eight control bytes
// a word: adding 7 to each low nibble (11 to each high one) carries into
// the byte's bit 4 exactly when the nibble exceeds 8 (4), and one
// multiply sums the word's sixteen lengths, at most 240.
func dataLen(ctrl []byte) (int, bool) {
	const nibbles = 0x0F0F0F0F0F0F0F0F
	var size, bad uint64
	for len(ctrl) > 0 {
		var x uint64
		if len(ctrl) >= 8 {
			x = binary.LittleEndian.Uint64(ctrl)
			ctrl = ctrl[8:]
		} else {
			var tail [8]byte
			copy(tail[:], ctrl)
			x = binary.LittleEndian.Uint64(tail[:])
			ctrl = nil
		}
		ld, li := x&nibbles, x>>4&nibbles
		bad |= (ld + 0x0707070707070707) | (li + 0x0B0B0B0B0B0B0B0B)
		size += (ld + li) * 0x0101010101010101 >> 56
	}
	return int(size), bad&0x1010101010101010 == 0
}

// decodeEvents decodes the events that dataLen has validated ctrl and
// data for, and reports whether every value had its minimal length.
// Each value is one masked 8-byte load, taken while at least 16 data
// bytes remain; the values in the last 15 bytes or fewer are read the
// same way from a zero-padded copy, so no load leaves its slice and no
// byte takes a branch of its own.
func decodeEvents(evs []trace.BranchEvent, ctrl, data []byte) bool {
	i, off, pc, minimal := decodeRun(evs, ctrl, data, 0)
	var pad [32]byte
	copy(pad[:], data[off:])
	_, _, _, padMinimal := decodeRun(evs[i:], ctrl[i:], pad[:], pc)
	return minimal && padMinimal
}

// decodeRun decodes events from the front of data, continuing from the
// previous event's pc, until evs is full or fewer than 16 bytes are
// left. It returns the events decoded, the bytes read, the last pc and
// whether every value it read had its minimal length.
func decodeRun(evs []trace.BranchEvent, ctrl, data []byte, pc uint64) (int, int, uint64, bool) {
	ctrl = ctrl[:len(evs)]
	minimal := true
	i, off := 0, 0
	for ; i < len(evs) && off <= len(data)-16; i++ {
		c := ctrl[i]
		ld, li := int(c&15), int(c>>4)
		d := binary.LittleEndian.Uint64(data[off:]) & valueMask[c&15]
		v := binary.LittleEndian.Uint64(data[off+ld:]) & valueMask[c>>4]
		off += ld + li
		if d < minValue[c&15] || v < minValue[c>>4] {
			minimal = false
		}
		pc += d>>1 ^ -(d & 1)
		evs[i] = trace.BranchEvent{PC: pc, Instrs: uint32(v)}
	}
	return i, off, pc, minimal
}

// valueMask[k] keeps the low k bytes of a little-endian load, and
// minValue[k] is the least value whose minimal length is k bytes.
// Entries past 8 are never used: dataLen rejects those lengths first.
var (
	valueMask = [16]uint64{0, 1<<8 - 1, 1<<16 - 1, 1<<24 - 1, 1<<32 - 1, 1<<40 - 1, 1<<48 - 1, 1<<56 - 1, 1<<64 - 1}
	minValue  = [16]uint64{0, 1, 1 << 8, 1 << 16, 1 << 24, 1 << 32, 1 << 40, 1 << 48, 1 << 56}
)

// byteLen is the minimal byte length of v: 0 for 0, else 1–8.
func byteLen(v uint64) int { return (bits.Len64(v) + 7) >> 3 }

// zigzag maps a two's-complement delta onto an unsigned value whose
// byte length grows with its magnitude, for either sign.
func zigzag(x uint64) uint64 { return x<<1 ^ uint64(int64(x)>>63) }

// Hooks intercept the durability steps for fault injection (see
// internal/faults.WAL). Nil hooks are skipped. Install before the
// first append; intended for tests.
type Hooks struct {
	// TornWrite is consulted with each record frame about to be
	// written; returning tear=true makes the log write only the first
	// keep bytes and fail the append — a crash mid-write.
	TornWrite func(frame []byte) (keep int, tear bool)
	// BeforeSync runs before each segment fsync; an error aborts the
	// sync — data written but not durable (a short fsync).
	BeforeSync func(path string) error
}

// Options configure Open.
type Options struct {
	// Dir is the log directory, created if needed.
	Dir string
	// Sync is the durability mode (default SyncOff).
	Sync SyncMode
	// SegmentBytes is the rotation threshold (default
	// DefaultSegmentBytes).
	SegmentBytes int64
	// Hooks install fault injection (tests only).
	Hooks Hooks
}

// RecoveryStats reports what opening (or replaying) a log found and
// repaired.
type RecoveryStats struct {
	// Segments is how many clean segments were found.
	Segments int
	// Records is how many intact records they hold.
	Records int
	// TornBytes is how many torn-tail bytes were truncated off the
	// last segment (a crash mid-append).
	TornBytes int64
	// Quarantined is how many corrupt non-tail segments were
	// quarantined (Open) or skipped (Replay).
	Quarantined int
}

// LSN identifies a record's position in the log: the byte offset just
// past its frame, in a total order across segments. Commit(lsn) returns
// once the log is durable at least through lsn.
type LSN uint64

// Log is an append-only write-ahead log over one directory. All methods
// are safe for concurrent use.
type Log struct {
	dir    string
	mode   SyncMode
	segMax int64
	hooks  Hooks
	stats  RecoveryStats

	mu        sync.Mutex
	cond      *sync.Cond // broadcast when a group flush completes or the log closes
	f         *os.File   // active segment
	buf       []byte     // bytes appended but not yet written to f
	segIdx    uint64     // active segment number
	segSize   int64      // bytes appended to the active segment (incl. header)
	wroteLSN  LSN        // total bytes appended across all segments
	syncedLSN LSN        // durable prefix
	appends   uint64
	syncs     uint64
	closed    bool
	flushing  bool  // a group-commit fsync is in flight (lock released)
	err       error // sticky append-path failure
}

// Open opens (creating if needed) the log at opts.Dir and runs
// recovery: corrupt non-tail segments are quarantined, and a torn tail
// on the last segment is truncated away, so the log always reopens to
// the maximal clean prefix.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating log dir: %w", err)
	}
	l := &Log{dir: opts.Dir, mode: opts.Sync, segMax: opts.SegmentBytes, hooks: opts.Hooks}
	l.cond = sync.NewCond(&l.mu)
	if err := l.recover(); err != nil {
		return nil, err
	}
	return l, nil
}

// segPath returns the path of segment n in dir.
func segPath(dir string, n uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%09d%s", n, segExt))
}

// listSegments returns the existing segment numbers in ascending order.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: scanning log dir: %w", err)
	}
	var segs []uint64
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || filepath.Ext(name) != segExt {
			continue
		}
		var n uint64
		if _, err := fmt.Sscanf(name, "%d"+segExt, &n); err != nil || n == 0 {
			continue
		}
		segs = append(segs, n)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// chunkBytes is the size of the buffers segments are streamed through:
// recovery and replay read a segment a chunk at a time, whatever its
// size. Only a frame longer than a chunk grows a buffer, and only after
// its length has been checked against the bytes left in the file.
const chunkBytes = 256 << 10

// frameReader streams one segment's frames through chunk buffers. Each
// call to next returns a chunk of whole, CRC-checked frames; the front
// of a frame that straddles the end of a chunk is carried to the front
// of the next. A truncated frame, an impossible length and a CRC
// mismatch all end the walk as torn — from a crash mid-write the three
// look the same.
type frameReader struct {
	f       *os.File
	left    int64  // bytes the file held at open that are not read yet
	carry   []byte // read but not yet returned: the front of a straddling frame
	clean   int64  // length of the intact prefix returned so far, header included
	records int    // frames returned so far
	torn    bool   // the segment ended in a torn frame or trailing bytes
	done    bool   // nothing more to return
}

// openFrames opens the segment at path and checks its magic. Only the
// bytes the file holds now are read: a segment that grows meanwhile is
// walked to its length at open, one that shrinks to what it still has.
func openFrames(path string) (*frameReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	var magic [len(segMagic)]byte
	n, err := io.ReadFull(f, magic[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		f.Close()
		return nil, err
	}
	if info.Size() < int64(len(segMagic)) || n < len(segMagic) || string(magic[:]) != segMagic {
		f.Close()
		return nil, fmt.Errorf("%w: %s: bad magic", ErrCorrupt, filepath.Base(path))
	}
	return &frameReader{f: f, left: info.Size() - int64(len(segMagic)), clean: int64(len(segMagic))}, nil
}

// close closes the segment file.
func (r *frameReader) close() { r.f.Close() }

// next fills buf (a chunk buffer, allocated if nil) with the carried
// bytes and then the file's, and returns the prefix of whole frames it
// verified, in buf's memory or in a buffer grown for a frame longer
// than buf. The frames of the returned chunk must be consumed before
// buf is passed to next again. After the segment's last chunk, done is
// set and torn tells whether the walk stopped short of the file's end.
func (r *frameReader) next(buf []byte) ([]byte, error) {
	if cap(buf) == 0 {
		buf = make([]byte, 0, chunkBytes)
	}
	buf = append(buf[:0], r.carry...)
	r.carry = nil
	for {
		if room := int64(cap(buf) - len(buf)); room > 0 && r.left > 0 {
			n, err := io.ReadFull(r.f, buf[len(buf):len(buf)+int(min(room, r.left))])
			buf = buf[:len(buf)+n]
			r.left -= int64(n)
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				r.left = 0 // the file shrank since open: walk what it holds now
			} else if err != nil {
				r.done = true
				return buf[:0], err
			}
		}
		off, need := r.frames(buf)
		if !r.done && r.left == 0 {
			r.done = true
			r.torn = off != len(buf)
		}
		if r.done || off > 0 {
			if !r.done {
				r.carry = buf[off:]
			}
			r.clean += int64(off)
			return buf[:off], nil
		}
		// The frame at the front is longer than the buffer. Grow for
		// it only if the file still holds it: a corrupt length must not
		// size an allocation.
		if need > int64(len(buf))+r.left {
			r.done, r.torn = true, true
			return buf[:0], nil
		}
		grown := make([]byte, len(buf), need)
		copy(grown, buf)
		buf = grown
	}
}

// frames walks the whole frames at the front of buf and returns the
// length they span. At a torn frame it sets done and torn; at a frame
// that does not fit in buf it returns the frame's full length as need.
func (r *frameReader) frames(buf []byte) (off int, need int64) {
	for len(buf)-off >= frameHeaderSize {
		n := binary.LittleEndian.Uint32(buf[off:])
		want := binary.LittleEndian.Uint32(buf[off+4:])
		if n == 0 || int64(n) > MaxRecordBytes {
			r.done, r.torn = true, true
			return off, 0
		}
		end := off + frameHeaderSize + int(n)
		if end > len(buf) {
			return off, int64(frameHeaderSize) + int64(n)
		}
		if crc32.Checksum(buf[off+frameHeaderSize:end], castagnoli) != want {
			r.done, r.torn = true, true
			return off, 0
		}
		off = end
		r.records++
	}
	return off, 0
}

// segmentScan is what verifying one segment found.
type segmentScan struct {
	clean   int64 // intact prefix, header included
	torn    bool
	records int
	err     error
}

// verifySegment streams the segment at path through buf, checking every
// frame, and returns what it found and the buffer to reuse.
func verifySegment(path string, buf []byte) (segmentScan, []byte) {
	r, err := openFrames(path)
	if err != nil {
		return segmentScan{err: err}, buf
	}
	defer r.close()
	for !r.done {
		chunk, err := r.next(buf)
		buf = chunk[:0]
		if err != nil {
			return segmentScan{err: err}, buf
		}
	}
	return segmentScan{clean: r.clean, torn: r.torn, records: r.records}, buf
}

// verifySegments verifies the segments concurrently, on at most
// GOMAXPROCS workers with one chunk buffer each, and returns their
// scans in segment order.
func verifySegments(dir string, segs []uint64) []segmentScan {
	scans := make([]segmentScan, len(segs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(segs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for i := next.Add(1) - 1; i < int64(len(segs)); i = next.Add(1) - 1 {
				scans[i], buf = verifySegment(segPath(dir, segs[i]), buf)
			}
		}()
	}
	wg.Wait()
	return scans
}

// quarantine moves a damaged segment aside, best-effort (falling back
// to removal), mirroring the FileStore discipline: recovery must never
// turn one bad file into a fatal error.
func (l *Log) quarantine(path string) {
	qdir := filepath.Join(l.dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		if os.Rename(path, filepath.Join(qdir, filepath.Base(path))) == nil {
			return
		}
	}
	os.Remove(path)
}

// recover verifies the existing segments concurrently, then decides in
// segment order: corruption in a non-tail segment quarantines that segment whole (its records may already be
// reflected in checkpoints, and replay's seq dedup absorbs the gap); a
// torn tail on the *last* segment is the expected crash signature and
// is truncated in place. The log then resumes appending to a fresh
// segment numbered after the highest seen, so recovery never rewrites
// clean history.
func (l *Log) recover() error {
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	last := uint64(0)
	for i, scan := range verifySegments(l.dir, segs) {
		n := segs[i]
		if n > last {
			last = n
		}
		path := segPath(l.dir, n)
		if scan.err != nil {
			l.stats.Quarantined++
			l.quarantine(path)
			continue
		}
		if scan.torn {
			if i == len(segs)-1 {
				// Torn tail on the final segment: a crash mid-append.
				// Truncate to the clean prefix so replay and future
				// opens never see the partial frame.
				if info, serr := os.Stat(path); serr == nil {
					l.stats.TornBytes += info.Size() - scan.clean
				}
				if err := os.Truncate(path, scan.clean); err != nil {
					return fmt.Errorf("wal: truncating torn tail of %s: %w", filepath.Base(path), err)
				}
				if err := syncDir(l.dir); err != nil {
					return err
				}
			} else {
				// Torn mid-history: something other than a tail crash
				// damaged this segment. Quarantine it whole.
				l.stats.Quarantined++
				l.quarantine(path)
				continue
			}
		}
		l.stats.Segments++
		l.stats.Records += scan.records
	}
	return l.openSegment(last + 1)
}

// openSegment starts appending to a new segment numbered n.
func (l *Log) openSegment(n uint64) error {
	f, err := os.OpenFile(segPath(l.dir, n), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	l.f = f
	l.segIdx = n
	l.segSize = int64(len(segMagic))
	return nil
}

// Recovered reports what Open found and repaired.
func (l *Log) Recovered() RecoveryStats { return l.stats }

// Stats returns the append and fsync counters.
func (l *Log) Stats() (appends, syncs uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appends, l.syncs
}

// Append encodes rec, frames it, and buffers it for the active segment.
// It returns the record's LSN; the record is not durable until
// Commit(lsn) returns (and never promised durable in SyncOff mode).
// Safe for concurrent use.
func (l *Log) Append(rec *Record) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	// Encode in place at the tail of the append buffer: the buffer's
	// capacity survives flushes, so steady-state appends allocate
	// nothing and copy each record exactly once.
	start := len(l.buf)
	l.buf = append(l.buf, make([]byte, frameHeaderSize)...)
	l.buf = appendPayload(l.buf, rec)
	frame := l.buf[start:]
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(frame)-frameHeaderSize))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(frame[frameHeaderSize:], castagnoli))
	if l.hooks.TornWrite != nil {
		if keep, tear := l.hooks.TornWrite(frame); tear {
			// Push what a real crash would have left behind — the
			// buffered prefix plus the torn fragment — straight to the
			// file, then latch the failure.
			l.buf = l.buf[:start+keep]
			l.writeOutLocked()
			l.err = fmt.Errorf("wal: injected torn write (%d/%d bytes)", keep, len(frame))
			return 0, l.err
		}
	}
	l.segSize += int64(len(frame))
	l.wroteLSN += LSN(len(frame))
	l.appends++
	lsn := l.wroteLSN
	// Write through a full buffer even while a group fsync is in
	// flight: the fsync's flusher captured the LSN it covers before
	// releasing the lock, so bytes written now only ever make the file
	// more durable than syncedLSN claims, never less.
	if len(l.buf) >= writeThroughBytes {
		if err := l.writeOutLocked(); err != nil {
			l.err = err
			return 0, err
		}
	}
	// Rotation waits out an in-flight group fsync: the fsync holds the
	// active file while the lock is released, so swapping it out from
	// under the flusher would sync the wrong file.
	if l.segSize >= l.segMax && !l.flushing {
		if err := l.rotateLocked(); err != nil {
			l.err = err
			return 0, err
		}
	}
	return lsn, nil
}

// writeOutLocked moves the append buffer into the active segment file.
// Caller holds l.mu.
func (l *Log) writeOutLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	if _, err := l.f.Write(l.buf); err != nil {
		return fmt.Errorf("wal: writing segment: %w", err)
	}
	l.buf = l.buf[:0]
	return nil
}

// rotateLocked seals the active segment (write out + fsync, regardless
// of sync mode: a sealed segment must be self-contained) and opens the
// next one. Caller holds l.mu with no flush in flight.
func (l *Log) rotateLocked() error {
	if err := l.writeOutLocked(); err != nil {
		return err
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: sealing segment: %w", err)
	}
	if err := l.openSegment(l.segIdx + 1); err != nil {
		return err
	}
	return syncDir(l.dir)
}

// syncLocked runs the hook-guarded fsync of the active segment and
// advances the durable horizon past everything already written out.
// Caller holds l.mu.
func (l *Log) syncLocked() error {
	synced := l.wroteLSN - LSN(len(l.buf))
	if l.hooks.BeforeSync != nil {
		if err := l.hooks.BeforeSync(l.f.Name()); err != nil {
			return err
		}
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.syncs++
	if synced > l.syncedLSN {
		l.syncedLSN = synced
	}
	return nil
}

// Commit blocks until the log is durable through lsn under the
// configured sync mode:
//
//   - SyncOff: writes the buffer to the OS and returns (no fsync).
//   - SyncGroup: joins the in-flight group fsync, or runs one itself.
//     Every committer whose record was written out before the fsync is
//     covered by it; later arrivals form the next window.
func (l *Log) Commit(lsn LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		switch {
		case l.err != nil:
			return l.err
		case l.closed:
			return ErrClosed
		case l.mode == SyncOff:
			if err := l.writeOutLocked(); err != nil {
				l.err = err
				return err
			}
			return nil
		case l.syncedLSN >= lsn:
			return nil
		case !l.flushing:
			// No fsync in flight: this committer flushes the window.
			// The lock is released around the fsync so appenders keep
			// filling the next window; rotation is deferred while
			// flushing, so f stays valid.
			if err := l.writeOutLocked(); err != nil {
				l.err = err
				return err
			}
			covered := l.wroteLSN
			l.flushing = true
			f, hook := l.f, l.hooks.BeforeSync
			l.mu.Unlock()
			var err error
			if hook != nil {
				err = hook(f.Name())
			}
			if err == nil {
				err = f.Sync()
			}
			l.mu.Lock()
			l.flushing = false
			if err != nil {
				l.err = fmt.Errorf("wal: fsync: %w", err)
			} else {
				l.syncs++
				if covered > l.syncedLSN {
					l.syncedLSN = covered
				}
			}
			l.cond.Broadcast()
		default:
			// An fsync is in flight; wait for its verdict and re-check.
			l.cond.Wait()
		}
	}
}

// Truncate discards every sealed segment and the active one, restarting
// in a fresh segment: called after a successful full checkpoint, when
// every record in the log is reflected in the state store and replaying
// it would be a no-op.
func (l *Log) Truncate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.flushing {
		l.cond.Wait()
	}
	if l.closed {
		return ErrClosed
	}
	if err := l.writeOutLocked(); err != nil {
		l.err = err
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for _, n := range segs {
		if err := os.Remove(segPath(l.dir, n)); err != nil {
			return fmt.Errorf("wal: truncate: %w", err)
		}
	}
	if err := l.openSegment(l.segIdx + 1); err != nil {
		return err
	}
	l.syncedLSN = l.wroteLSN
	return syncDir(l.dir)
}

// Close writes out, fsyncs (unless SyncOff), and closes the active
// segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.flushing {
		l.cond.Wait()
	}
	if l.closed {
		return nil
	}
	l.closed = true
	l.cond.Broadcast()
	err := l.writeOutLocked()
	if err == nil && l.mode != SyncOff && l.err == nil {
		err = l.syncLocked()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ringChunks is how many chunk buffers one replay circulates: read
// and verified, being decoded, or decoded and waiting for fn. It bounds
// the log in flight to ringChunks × chunkBytes raw bytes plus their
// decoded records.
const ringChunks = 8

// replayChunk is one slot of a replay's ring: a chunk of one segment's
// verified frames and, once a worker has decoded it, their records.
type replayChunk struct {
	seg     int    // the segment's index in the walk
	buf     []byte // the slot's chunk buffer
	data    []byte // whole verified frames, a prefix of buf
	end     bool   // the segment's last chunk
	torn    bool   // with end: the segment ended torn
	err     error  // a failure to open or read the segment, or the decode failure that ends recs
	recs    []Record
	decoded chan struct{} // signalled once recs and err are final
}

// Replay walks a log directory read-only, in segment order, calling fn
// for every intact record. A torn tail stops that segment's walk
// cleanly (those records were never acked durable); a corrupt non-tail
// segment is skipped and counted, never modified — the caller may not
// own the directory (WAL-tail takeover reads the dead node's log in
// place). A record of an unsupported version stops the walk with
// ErrUnsupportedVersion. Records counts every record delivered to fn,
// including those a segment delivered before it failed.
//
// The walk is a pipeline: one goroutine streams and verifies the
// segments a chunk at a time, GOMAXPROCS workers decode whole chunks,
// and the caller's goroutine calls fn strictly in log order. Chunks
// circulate through a ring of ringChunks buffers. No record after a
// segment's first failing one reaches fn, and every goroutine and file
// of the walk is gone when Replay returns, early stops included.
func Replay(dir string, fn func(Record) error) (RecoveryStats, error) {
	var stats RecoveryStats
	segs, err := listSegments(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return stats, nil
		}
		return stats, err
	}
	// Every channel holds at most each slot of the ring once, so none
	// of their sends blocks.
	free := make(chan *replayChunk, ringChunks)
	work := make(chan *replayChunk, ringChunks)
	order := make(chan *replayChunk, ringChunks)
	for range ringChunks {
		free <- &replayChunk{decoded: make(chan struct{}, 1)}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		readChunks(dir, segs, free, work, order, stop)
	}()
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				select {
				case <-stop: // the walk ended early: the records are unwanted
				default:
					if c.err == nil {
						c.recs, c.err = decodeFrames(c.recs, c.data)
					}
				}
				c.decoded <- struct{}{}
			}
		}()
	}

	skip := -1 // a segment that failed: the rest of its chunks are dropped
	for c := range order {
		<-c.decoded
		seg, end, torn, err := c.seg, c.end, c.torn, c.err
		if seg != skip {
			for i := range c.recs {
				if ferr := fn(c.recs[i]); ferr != nil {
					err = ferr
					break
				}
				stats.Records++
			}
		}
		c.release(free)
		switch {
		case seg == skip:
		case err == nil:
			if end {
				stats.Segments++
				if torn {
					stats.TornBytes++
				}
			}
		case errors.Is(err, ErrCorrupt):
			stats.Quarantined++
			skip = seg
		default:
			return stats, err
		}
	}
	return stats, nil
}

// release empties c, dropping its records and any buffer grown past a
// chunk, and returns it to the free ring.
func (c *replayChunk) release(free chan<- *replayChunk) {
	clear(c.recs)
	c.recs = c.recs[:0]
	c.data, c.err, c.end, c.torn = nil, nil, false, false
	if cap(c.buf) > chunkBytes {
		c.buf = nil
	}
	free <- c
}

// readChunks streams the segments' verified chunks, in order, into free
// slots, and hands each slot to the workers and to the caller's ordered
// queue. Every segment ends with a slot marked end. It stops after a
// segment it cannot open or read, and as soon as stop closes.
func readChunks(dir string, segs []uint64, free <-chan *replayChunk, work, order chan<- *replayChunk, stop <-chan struct{}) {
	defer close(order)
	defer close(work)
	var r *frameReader
	defer func() {
		if r != nil {
			r.close()
		}
	}()
	for i, n := range segs {
		var err error
		r, err = openFrames(segPath(dir, n))
		for done := false; !done; {
			var c *replayChunk
			select {
			case c = <-free:
			case <-stop:
				return
			}
			c.seg = i
			if err == nil {
				c.data, err = r.next(c.buf)
				c.buf = c.data[:0]
			}
			c.err = err
			done = err != nil || r.done
			c.end, c.torn = done, err == nil && r.torn
			work <- c
			order <- c
		}
		if err != nil && !errors.Is(err, ErrCorrupt) {
			return
		}
		if r != nil {
			r.close()
			r = nil
		}
	}
}

// decodeFrames appends the records of data's frames, which a
// frameReader has verified whole, to recs, stopping at the first that
// does not decode.
func decodeFrames(recs []Record, data []byte) ([]Record, error) {
	for off := 0; off < len(data); {
		end := off + frameHeaderSize + int(binary.LittleEndian.Uint32(data[off:]))
		rec, err := decodePayload(data[off+frameHeaderSize : end])
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
		off = end
	}
	return recs, nil
}

// ReplayDirs replays every per-shard subdirectory of root, in sorted
// order, through fn. A missing root is not an error — a node that never
// enabled the WAL has nothing to replay.
func ReplayDirs(root string, fn func(Record) error) (RecoveryStats, error) {
	var stats RecoveryStats
	entries, err := os.ReadDir(root)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return stats, nil
		}
		return stats, fmt.Errorf("wal: scanning %s: %w", root, err)
	}
	names := make([]string, 0, len(entries))
	for _, ent := range entries {
		if ent.IsDir() && ent.Name() != "quarantine" {
			names = append(names, ent.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		s, err := Replay(filepath.Join(root, name), fn)
		stats.Segments += s.Segments
		stats.Records += s.Records
		stats.TornBytes += s.TornBytes
		stats.Quarantined += s.Quarantined
		if err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// syncDir fsyncs a directory so segment creation/removal survives power
// loss, mirroring the FileStore.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
