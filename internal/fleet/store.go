package fleet

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
)

// StateStore persists evicted stream state. Fleet calls Save when it
// evicts an idle stream's tracker and Load to rehydrate the stream on
// its next batch, so a store plus a resident limit bounds memory by
// *active* stream count instead of total stream count.
//
// Implementations must be safe for concurrent use: every shard worker
// calls the store independently. Save must durably replace any previous
// snapshot for the stream; Load returns ok=false when the stream has
// never been saved.
//
// Snapshots cross the interface in memory the caller owns, both ways:
// Save's argument is the caller's to reuse once Save returns, and
// Load copies out into a buffer the caller supplies. A store may
// therefore overwrite its stored bytes in place, and a caller may
// decode, keep or reuse what Load returned without racing later
// Saves of the same stream.
//
// Error contract: a Load error wrapping ErrSnapshotCorrupt (or
// ErrSnapshotTooLarge) means the stored bytes are bad — the Fleet
// quarantines the stream and never retries. Any other error is treated
// as transient and retried under the Fleet's RetryPolicy.
type StateStore interface {
	// Save persists a stream's snapshot, replacing any previous one.
	// The snapshot slice is owned by the caller; implementations must
	// copy it if they retain it.
	Save(stream string, snapshot []byte) error
	// Load copies the most recent snapshot for a stream into memory
	// the caller owns: the returned slice reuses dst's storage when
	// the snapshot fits in cap(dst) and is freshly allocated otherwise,
	// and it never aliases the store's own memory. dst's contents are
	// overwritten. The slice is nil when ok is false or err is set.
	Load(dst []byte, stream string) (snapshot []byte, ok bool, err error)
}

// MemStore is an in-memory StateStore: evicted trackers survive as
// compact serialized state on the heap instead of live table structures
// (one contiguous buffer per stream versus dozens of live allocations),
// and restart durability is not needed.
type MemStore struct {
	mu    sync.RWMutex
	snaps map[string][]byte
	marks map[string][]byte // CreateExclusive markers, outside the snapshot namespace

	writeMu sync.Mutex // LockStream
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{snaps: make(map[string][]byte)}
}

// Save stores a copy of the snapshot, overwriting the stream's stored
// buffer in place while the snapshot fits and the buffer is at most
// about twice its size (the rule of state.Reuse): a stream evicted
// again and again keeps one buffer instead of a fresh copy per save.
// A new buffer is sized by append, up to its allocation size class.
// That slack costs no memory the allocator would not hand out anyway,
// and a stream whose tables are still filling saves into it many times
// before it has to regrow.
func (s *MemStore) Save(stream string, snapshot []byte) error {
	s.mu.Lock()
	buf := s.snaps[stream]
	if n := len(snapshot); cap(buf) < n || cap(buf) > 2*n+8 {
		buf = nil
	}
	s.snaps[stream] = append(buf[:0], snapshot...)
	s.mu.Unlock()
	return nil
}

// Load copies the stored snapshot for stream into dst's storage.
func (s *MemStore) Load(dst []byte, stream string) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	snap, ok := s.snaps[stream]
	if !ok {
		return nil, false, nil
	}
	return append(dst[:0], snap...), true, nil
}

// Len returns the number of streams with a stored snapshot.
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.snaps)
}

// List returns the stored stream IDs in sorted order — the same
// takeover inventory the FileStore offers, for in-memory cluster tests.
func (s *MemStore) List() ([]string, error) {
	s.mu.RLock()
	names := make([]string, 0, len(s.snaps))
	for name := range s.snaps {
		names = append(names, name)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return names, nil
}

// CreateExclusive atomically creates a named marker record, outside
// the snapshot namespace: exactly one of any number of concurrent
// callers (across every store handle sharing the backing storage)
// observes created=true. When the marker already exists, the call
// returns its stored contents instead. The cluster layer uses this as
// its arbitration primitive: minting a ring epoch requires winning the
// marker for that epoch number, so two partitioned survivors can never
// adopt conflicting rings at the same epoch.
func (s *MemStore) CreateExclusive(name string, data []byte) (existing []byte, created bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.marks == nil {
		s.marks = make(map[string][]byte)
	}
	if prev, ok := s.marks[name]; ok {
		return prev, false, nil
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.marks[name] = cp
	return nil, true, nil
}

// WriteLease overwrites a named mutable record in the marker namespace,
// in place. The cluster layer keeps one per node, its liveness lease;
// a lease name must not also name a CreateExclusive marker. Like the
// markers, lease records are never listed or loaded as stream state.
func (s *MemStore) WriteLease(name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.marks == nil {
		s.marks = make(map[string][]byte)
	}
	s.marks[name] = append(s.marks[name][:0], data...)
	return nil
}

// ReadLease returns a copy of the named lease record.
func (s *MemStore) ReadLease(name string) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.marks[name]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), data...), true, nil
}

// LockStream takes the stream's writer lock and returns the function
// that releases it. It does not block Save or Load: it only excludes
// other LockStream holders, for every handle sharing the backing
// storage, so a caller can read, decide and write as one step against
// every other caller that locks first. The cluster layer's epoch fence
// is built on it. A MemStore has one lock for all its streams.
func (s *MemStore) LockStream(string) (unlock func(), err error) {
	s.writeMu.Lock()
	return s.writeMu.Unlock, nil
}

// Corrupt overwrites a stored snapshot with mutated bytes (bit-flip of
// byte i, or truncation to i bytes when flip is false). It exists for
// fault-injection tests; production code never mutates stored state.
func (s *MemStore) Corrupt(stream string, i int, flip bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap, ok := s.snaps[stream]
	if !ok || i >= len(snap) {
		return false
	}
	if flip {
		snap[i] ^= 0x80 // Load copies out, so no reader sees the flip land
	} else {
		s.snaps[stream] = snap[:i]
	}
	return true
}

// DefaultMaxSnapshotBytes bounds the snapshot payload size a FileStore
// will read or write. Real tracker snapshots are a few KB; anything
// approaching this limit is a corrupted file (e.g. a bad length field),
// and rejecting it before the read defends against multi-GB
// allocations.
const DefaultMaxSnapshotBytes = 64 << 20

// crcSize is the CRC32C (Castagnoli) trailer appended to every
// snapshot file: Load recomputes it over the payload and rejects
// mismatches as ErrSnapshotCorrupt, so torn or bit-rotted files are
// detected instead of decoded.
const crcSize = 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// quarantineDir is where the recovery scan and Load move damaged files
// (orphaned temp files, truncated or checksum-failing snapshots), so a
// crash never leaves the store in a state that fails to open and the
// damaged bytes stay available for inspection.
const quarantineDir = "quarantine"

// FileHooks intercept the durability steps of FileStore.Save for fault
// injection: each hook runs immediately before the named step and
// aborts the save if it returns an error, simulating a crash at that
// point (the on-disk state is whatever the completed steps left
// behind). Nil hooks are skipped. See internal/faults.FS.
type FileHooks struct {
	// BeforeSync runs after the payload is written, before the temp
	// file is fsynced.
	BeforeSync func(tmpPath string) error
	// BeforeRename runs after the temp file is synced and closed,
	// before it is renamed over the destination.
	BeforeRename func(tmpPath, dstPath string) error
	// BeforeDirSync runs after the rename, before the directory fsync
	// that makes it durable.
	BeforeDirSync func(dir string) error
}

// RecoveryStats reports what the startup recovery scan found.
type RecoveryStats struct {
	// Scanned is the number of snapshot files examined.
	Scanned int
	// Orphans is the number of leftover temp files (a crash between
	// write and rename) moved to the quarantine directory.
	Orphans int
	// Corrupt is the number of snapshot files that failed size or
	// checksum verification and were quarantined.
	Corrupt int
}

// FileStore is a crash-safe file-backed StateStore: one snapshot file
// per stream, written via temp file + fsync + rename + directory fsync
// with a CRC32C trailer, so a crash at any point leaves either the old
// snapshot or the new one — never a torn file that decodes. Opening a
// store runs a recovery scan that quarantines (rather than fails on)
// orphaned temp files and corrupt snapshots.
type FileStore struct {
	dir   string
	limit int64 // max payload bytes accepted by Save/Load
	stats RecoveryStats

	mu    sync.Mutex // serializes quarantine moves
	hooks FileHooks
}

// NewFileStore returns a store rooted at dir, creating it if needed,
// after running the crash-recovery scan (see Recovered).
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: creating state dir: %w", err)
	}
	s := &FileStore{dir: dir, limit: DefaultMaxSnapshotBytes}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// SetHooks installs fault-injection hooks on the save path. Not safe
// to call concurrently with Save; intended for tests.
func (s *FileStore) SetHooks(h FileHooks) { s.hooks = h }

// SetSizeLimit overrides the maximum snapshot payload size (bytes).
// Intended for tests; the default is DefaultMaxSnapshotBytes.
func (s *FileStore) SetSizeLimit(n int64) { s.limit = n }

// Recovered reports what the startup recovery scan found and
// quarantined.
func (s *FileStore) Recovered() RecoveryStats { return s.stats }

// streamSafe reports whether a stream-ID byte maps to itself in a
// snapshot filename.
func streamSafe(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c >= '0' && c <= '9' || c == '-' || c == '_'
}

const hexUpper = "0123456789ABCDEF"

// escapeStream maps an arbitrary stream ID injectively onto a safe
// filename stem: every byte outside [A-Za-z0-9_-] becomes %XX. A
// cluster's shared store sees stream names chosen by remote clients, so
// the escaping must be airtight, not merely URL-safe: '.' is escaped
// too, which keeps hostile IDs ("..", "/etc/passwd", ".tmp-evil") from
// walking out of the directory, colliding with the recovery scan's
// ".tmp-*" orphan pattern, or confusing extension matching. '%' is
// escaped as well, making the mapping reversible (unescapeStream).
func escapeStream(stream string) string {
	n := 0
	for i := 0; i < len(stream); i++ {
		if !streamSafe(stream[i]) {
			n++
		}
	}
	if n == 0 {
		return stream
	}
	out := make([]byte, 0, len(stream)+2*n)
	for i := 0; i < len(stream); i++ {
		c := stream[i]
		if streamSafe(c) {
			out = append(out, c)
		} else {
			out = append(out, '%', hexUpper[c>>4], hexUpper[c&0xf])
		}
	}
	return string(out)
}

// unescapeStream inverts escapeStream, recovering a stream ID from a
// snapshot filename stem.
func unescapeStream(stem string) (string, error) {
	if !strings.ContainsRune(stem, '%') {
		return stem, nil
	}
	out := make([]byte, 0, len(stem))
	for i := 0; i < len(stem); i++ {
		c := stem[i]
		if c != '%' {
			out = append(out, c)
			continue
		}
		if i+2 >= len(stem) {
			return "", fmt.Errorf("fleet: truncated escape in snapshot name %q", stem)
		}
		hi := strings.IndexByte(hexUpper, stem[i+1])
		lo := strings.IndexByte(hexUpper, stem[i+2])
		if hi < 0 || lo < 0 {
			return "", fmt.Errorf("fleet: bad escape %q in snapshot name %q", stem[i:i+3], stem)
		}
		out = append(out, byte(hi<<4|lo))
		i += 2
	}
	return string(out), nil
}

// path maps a stream name to its snapshot file. Names are round-trip
// escaped (escapeStream) so arbitrary stream identifiers cannot walk
// out of the directory or collide with each other, the orphan pattern,
// or the quarantine subdirectory.
func (s *FileStore) path(stream string) string {
	return filepath.Join(s.dir, escapeStream(stream)+".pkst")
}

// List returns the stream IDs with a snapshot in the store — the
// takeover inventory: when a node dies, the survivor lists the shared
// store to find the streams it must adopt. Filenames that do not
// round-trip (foreign files in the directory) are skipped.
func (s *FileStore) List() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("fleet: scanning state dir: %w", err)
	}
	var out []string
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || filepath.Ext(name) != ".pkst" {
			continue
		}
		stream, err := unescapeStream(strings.TrimSuffix(name, ".pkst"))
		if err != nil {
			continue
		}
		out = append(out, stream)
	}
	return out, nil
}

// CreateExclusive atomically creates a named marker file (see the
// MemStore method for the contract). The marker lives beside the
// snapshots with a ".mark" extension, so List and the recovery scan
// never confuse it with stream state. The claimant is written and
// fsynced to a temp file first, then hard-linked into place: link(2)
// fails with EEXIST atomically, so of any number of processes sharing
// the directory exactly one creates the marker, and a visible marker is
// always complete — a loser never reads a half-written claimant. A
// crash before the link leaves only a temp file, which the recovery
// scan quarantines.
func (s *FileStore) CreateExclusive(name string, data []byte) (existing []byte, created bool, err error) {
	path := filepath.Join(s.dir, escapeStream(name)+".mark")
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return nil, false, fmt.Errorf("fleet: creating marker %q: %w", name, err)
	}
	defer os.Remove(tmp.Name())
	_, werr := tmp.Write(data)
	if serr := tmp.Sync(); werr == nil {
		werr = serr
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return nil, false, fmt.Errorf("fleet: writing marker %q: %w", name, werr)
	}
	if err := os.Link(tmp.Name(), path); err != nil {
		if os.IsExist(err) {
			prev, rerr := os.ReadFile(path)
			if rerr != nil {
				return nil, false, fmt.Errorf("fleet: reading marker %q: %w", name, rerr)
			}
			return prev, false, nil
		}
		return nil, false, fmt.Errorf("fleet: creating marker %q: %w", name, err)
	}
	os.Remove(tmp.Name())
	if err := syncDir(s.dir); err != nil {
		// The marker exists (the decision is made); only its durability
		// is suspect. Report the win along with the failure.
		return nil, true, fmt.Errorf("fleet: syncing marker %q: %w", name, err)
	}
	return nil, true, nil
}

// WriteLease overwrites a named lease record (see the MemStore method)
// in the marker namespace: written whole to "<name>.mark.tmp" and
// renamed over "<name>.mark", so a reader sees the old record or the
// new one. Neither file is fsynced: a lease is liveness evidence,
// rewritten every detector interval, and one lost to a power cut is
// replaced by the next write. Each name has one writer, so the fixed
// temp name never races; the recovery scan and List ignore both files.
func (s *FileStore) WriteLease(name string, data []byte) error {
	path := filepath.Join(s.dir, escapeStream(name)+".mark")
	if err := os.WriteFile(path+".tmp", data, 0o644); err != nil {
		return fmt.Errorf("fleet: writing lease %q: %w", name, err)
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		return fmt.Errorf("fleet: writing lease %q: %w", name, err)
	}
	return nil
}

// ReadLease reads the named lease record.
func (s *FileStore) ReadLease(name string) ([]byte, bool, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, escapeStream(name)+".mark"))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("fleet: reading lease %q: %w", name, err)
	}
	return data, true, nil
}

// LockStream is MemStore.LockStream for a directory: an exclusive lock
// on a ".lock" file beside the stream's snapshot, which excludes every
// other FileStore on the directory, in this process or another, and
// dies with its holder. List and the recovery scan ignore lock files.
func (s *FileStore) LockStream(stream string) (unlock func(), err error) {
	unlock, err = lockFile(filepath.Join(s.dir, escapeStream(stream)+".lock"))
	if err != nil {
		return nil, fmt.Errorf("fleet: locking %q: %w", stream, err)
	}
	return unlock, nil
}

// quarantine moves a damaged file into the quarantine subdirectory,
// best-effort: recovery must never turn one bad file into a fatal
// error, so a failed move falls back to deletion.
func (s *FileStore) quarantine(path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	qdir := filepath.Join(s.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		if os.Rename(path, filepath.Join(qdir, filepath.Base(path))) == nil {
			return
		}
	}
	os.Remove(path)
}

// recover scans the store directory once at open: leftover temp files
// (crash between write and rename) and snapshot files failing size or
// CRC verification are quarantined so later Loads see a clean store.
func (s *FileStore) recover() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("fleet: scanning state dir: %w", err)
	}
	var buf []byte // one read buffer for the whole scan
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() {
			continue
		}
		path := filepath.Join(s.dir, name)
		if matched, _ := filepath.Match(".tmp-*", name); matched {
			s.stats.Orphans++
			s.quarantine(path)
			continue
		}
		if filepath.Ext(name) != ".pkst" {
			continue
		}
		s.stats.Scanned++
		if buf, err = s.readVerified(buf, path); err != nil {
			s.stats.Corrupt++
			s.quarantine(path)
		}
	}
	return nil
}

// readVerified reads a snapshot file into dst's storage, enforcing the
// size limit before allocating and the CRC32C trailer after, and
// returns the payload with the trailer stripped. Integrity failures
// wrap ErrSnapshotCorrupt / ErrSnapshotTooLarge.
func (s *FileStore) readVerified(dst []byte, path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := info.Size()
	if size > s.limit+crcSize {
		return nil, fmt.Errorf("%w: %s is %d bytes (limit %d)",
			ErrSnapshotTooLarge, filepath.Base(path), size, s.limit)
	}
	if size < crcSize {
		return nil, fmt.Errorf("%w: %s is %d bytes, shorter than its checksum trailer",
			ErrSnapshotCorrupt, filepath.Base(path), size)
	}
	// Snapshot files are written whole and renamed into place, never
	// written where they lie, so the open file keeps the size just read.
	data := slices.Grow(dst[:0], int(size))[:size]
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, err
	}
	payload, trailer := data[:len(data)-crcSize], data[len(data)-crcSize:]
	want := uint32(trailer[0]) | uint32(trailer[1])<<8 | uint32(trailer[2])<<16 | uint32(trailer[3])<<24
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("%w: %s checksum %08x, trailer says %08x",
			ErrSnapshotCorrupt, filepath.Base(path), got, want)
	}
	return payload, nil
}

// Save writes the snapshot crash-safely: temp file, CRC32C trailer,
// fsync, rename, directory fsync. A failure (or injected crash) at any
// step leaves the previous snapshot intact.
func (s *FileStore) Save(stream string, snapshot []byte) error {
	if int64(len(snapshot)) > s.limit {
		return fmt.Errorf("fleet: saving %q: %w: %d bytes (limit %d)",
			stream, ErrSnapshotTooLarge, len(snapshot), s.limit)
	}
	dst := s.path(stream)
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("fleet: saving %q: %w", stream, err)
	}
	crc := crc32.Checksum(snapshot, castagnoli)
	trailer := [crcSize]byte{byte(crc), byte(crc >> 8), byte(crc >> 16), byte(crc >> 24)}
	err = s.writeSynced(tmp, dst, snapshot, trailer[:])
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("fleet: saving %q: %w", stream, err)
	}
	return nil
}

// writeSynced performs the ordered durability steps of Save on an open
// temp file, running the fault-injection hooks between them.
func (s *FileStore) writeSynced(tmp *os.File, dst string, payload, trailer []byte) error {
	_, err := tmp.Write(payload)
	if err == nil {
		_, err = tmp.Write(trailer)
	}
	if err == nil && s.hooks.BeforeSync != nil {
		err = s.hooks.BeforeSync(tmp.Name())
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil && s.hooks.BeforeRename != nil {
		err = s.hooks.BeforeRename(tmp.Name(), dst)
	}
	if err == nil {
		err = os.Rename(tmp.Name(), dst)
	}
	if err != nil {
		return err
	}
	// The rename is visible; make it durable. A crash (or injected
	// fault) past this point may lose the rename but never corrupts:
	// recovery sees either the old file or the new one, both
	// checksum-valid.
	if s.hooks.BeforeDirSync != nil {
		if err := s.hooks.BeforeDirSync(s.dir); err != nil {
			return err
		}
	}
	return syncDir(s.dir)
}

// syncDir fsyncs a directory so a completed rename survives power loss.
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

// Load reads and verifies the snapshot file for stream. A file that
// fails verification is quarantined and reported as ErrSnapshotCorrupt
// (or ErrSnapshotTooLarge), so one bad snapshot can never poison
// subsequent loads.
func (s *FileStore) Load(dst []byte, stream string) ([]byte, bool, error) {
	path := s.path(stream)
	payload, err := s.readVerified(dst, path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		if permanent(err) {
			s.quarantine(path)
		}
		return nil, false, fmt.Errorf("fleet: loading %q: %w", stream, err)
	}
	return payload, true, nil
}
