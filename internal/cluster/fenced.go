package cluster

import (
	"fmt"
	"sync/atomic"

	"phasekit/internal/fleet"
	"phasekit/internal/state"
)

// TagFence is the section tag of the epoch-fence prefix FencedStore
// wraps around snapshots. Distinct from every core snapshot tag (0xF1–
// 0xF3), so a fenced payload can never be misread as a bare tracker
// snapshot or vice versa.
const TagFence = byte(0xF4)

// fenceVersion is the only fence prefix FencedStore reads or writes:
// tag, version, epoch, writer node ID, payload. The writer ID lets
// equal-epoch writers — impossible under arbitrated epoch allocation,
// but reachable when two partitions each run against a store that
// cannot arbitrate — resolve by a deterministic node-ID tiebreak
// instead of silently clobbering each other. A stored payload with any
// other prefix (a bare snapshot, an older version) is refused as
// corrupt.
const fenceVersion = 2

// FencedStore wraps a fleet.StateStore shared across cluster nodes with
// epoch fencing: every Save is stamped with the writing node's ring
// epoch, and a Save from an epoch older than the one already recorded
// for that stream is rejected with ErrStaleEpoch.
//
// This is the guard that makes shared-storage takeover safe. When node
// A is declared dead and node B adopts A's streams at epoch e+1, B's
// first checkpoint advances the stored epoch. If A was not actually
// dead — just partitioned — and later tries to checkpoint at epoch e,
// the store refuses, so a zombie owner can never clobber the successor's
// state. The check is read-compare-write per stream. Two nodes adopting
// the same stream at adjacent epochs could interleave the two halves
// (old writer reads "epoch e, fine", new writer lands e+1 and returns,
// old writer's physical write lands last), so over a store with stream
// locks (MemStore, FileStore) Save holds the stream's lock from the
// read to the write, and the stale writer either fails the check or
// writes first and is overwritten. Save also re-reads after writing and
// re-asserts its payload until the stored epoch is >= its own; over a
// store without locks that narrows the race but cannot close it.
type FencedStore struct {
	inner  fleet.StateStore
	epoch  atomic.Uint64
	writer atomic.Value // string: the writing node's ID, "" until SetWriter
}

// arbiter is the store's marker namespace, through which the cluster
// makes its two shared decisions: CreateExclusive is an atomic
// create-if-absent record (FileStore links it into place, MemStore
// holds its mutex), over which ring epochs are claimed; the lease
// records are one mutable record per node, renewed by its failure
// detector and read by its peers. Stores without it cannot arbitrate:
// epochs fall back to unarbitrated local minting, and the cluster runs
// no automatic failover.
type arbiter interface {
	CreateExclusive(name string, data []byte) (existing []byte, created bool, err error)
	WriteLease(name string, data []byte) error
	ReadLease(name string) ([]byte, bool, error)
}

// streamLocker is the store-level primitive that makes Save's
// read-compare-write one step: LockStream excludes every other holder
// of the stream's lock, across every handle sharing the backing
// storage.
type streamLocker interface {
	LockStream(stream string) (unlock func(), err error)
}

// fencedWriteError marks a fence refusal as permanent for the fleet's
// retry machinery: re-trying a write the epoch fence rejected cannot
// succeed and must not count against the store's circuit breaker.
type fencedWriteError struct{ err error }

func (e *fencedWriteError) Error() string        { return e.err.Error() }
func (e *fencedWriteError) Unwrap() error        { return e.err }
func (e *fencedWriteError) StorePermanent() bool { return true }

// NewFencedStore wraps inner, stamping writes with the given epoch.
func NewFencedStore(inner fleet.StateStore, epoch uint64) *FencedStore {
	s := &FencedStore{inner: inner}
	s.epoch.Store(epoch)
	return s
}

// SetEpoch moves the writer's fence forward (called when the node
// adopts a new ring). Lowering it is allowed only in tests; real
// callers advance monotonically alongside State.
func (s *FencedStore) SetEpoch(e uint64) { s.epoch.Store(e) }

// Epoch returns the writer's current fence epoch.
func (s *FencedStore) Epoch() uint64 { return s.epoch.Load() }

// SetWriter records the writing node's ID, stamped into every fence
// prefix from then on. The coordinator sets it at construction; an
// unset writer saves prefixes with an empty ID, which never contest an
// equal-epoch tiebreak.
func (s *FencedStore) SetWriter(id string) { s.writer.Store(id) }

func (s *FencedStore) writerID() string {
	if v := s.writer.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// CanArbitrate reports whether the wrapped store provides the marker
// namespace AllocateEpoch and the failure detector's leases use.
func (s *FencedStore) CanArbitrate() bool {
	_, ok := s.inner.(arbiter)
	return ok
}

// WriteLease overwrites the named lease record; ErrNoArbiter over a
// store that cannot arbitrate.
func (s *FencedStore) WriteLease(name string, data []byte) error {
	a, ok := s.inner.(arbiter)
	if !ok {
		return ErrNoArbiter
	}
	return a.WriteLease(name, data)
}

// ReadLease reads the named lease record; ErrNoArbiter over a store
// that cannot arbitrate.
func (s *FencedStore) ReadLease(name string) ([]byte, bool, error) {
	a, ok := s.inner.(arbiter)
	if !ok {
		return nil, false, ErrNoArbiter
	}
	return a.ReadLease(name)
}

// AllocateEpoch mints the next ring epoch through the shared store.
// Epoch numbers are exclusive-create markers: winning the marker for
// number e is the only way to adopt a ring at epoch e, so two
// partitioned survivors can never both take over at the same epoch —
// the loser of the race observes someone else's claim and probes
// upward, ending up strictly above and totally ordered by the fence.
// Claimed-but-dead epochs (a claimant that crashed mid-takeover) are
// skipped the same way, so a stuck claim costs one number, never
// liveness. A node re-allocating an epoch it already claimed gets it
// back (idempotent retry). Stores that cannot arbitrate fall back to
// from+1.
func (s *FencedStore) AllocateEpoch(from uint64, claimant string) (uint64, error) {
	ec, ok := s.inner.(arbiter)
	if !ok {
		return from + 1, nil
	}
	const maxProbe = 64
	for e := from + 1; e <= from+maxProbe; e++ {
		existing, created, err := ec.CreateExclusive(fmt.Sprintf("epoch-%d", e), []byte(claimant))
		if err != nil && !created {
			return 0, fmt.Errorf("cluster: allocating epoch %d: %w", e, err)
		}
		if created || string(existing) == claimant {
			return e, nil
		}
	}
	return 0, fmt.Errorf("cluster: no free epoch within %d of %d", maxProbe, from)
}

// Save persists snapshot under the current epoch, refusing if the store
// already holds a strictly newer epoch for the stream. It holds the
// stream's lock, when the store has them, from that check through the
// write. After writing it reads the fence back: if an older writer's
// physical write landed after ours (possible only over a store without
// locks), the payload is re-asserted so the highest epoch always wins;
// if a newer one did, ErrStaleEpoch.
//
// Equal-epoch races — two *concurrent* writers at the same epoch, which
// arbitrated allocation rules out but a pre-arbitration store can still
// present — resolve in the same read-back loop by node ID: the smaller
// ID re-asserts, the larger concedes with ErrStaleEpoch. Sequential
// same-epoch writers (the migrate fallback hands a stream from one node
// to another within one epoch) are untouched: the tiebreak only fires
// when another writer's bytes land *after* ours, i.e. a true interleave.
func (s *FencedStore) Save(stream string, snapshot []byte) error {
	if l, ok := s.inner.(streamLocker); ok {
		unlock, err := l.LockStream(stream)
		if err != nil {
			return err
		}
		defer unlock()
	}
	mine := s.epoch.Load()
	me := s.writerID()
	buf, _, stored, _, ok, err := s.load(nil, stream) // buf serves the read-backs too
	if err == nil && ok && stored > mine {
		return &fencedWriteError{fmt.Errorf("%w: store holds epoch %d for %q, writer at %d",
			ErrStaleEpoch, stored, stream, mine)}
	} else if err != nil {
		// A corrupt fence prefix blocks the write too — overwriting it
		// blind could mask a newer owner's snapshot.
		return err
	}
	enc := state.AppendTo(make([]byte, 0, 2+8+4+len(me)+4+len(snapshot)))
	enc.Section(TagFence, fenceVersion)
	enc.U64(mine)
	enc.String(me)
	enc.Blob(snapshot)
	for attempt := 0; ; attempt++ {
		if err := s.inner.Save(stream, enc.Bytes()); err != nil {
			return err
		}
		raw, _, stored, storedBy, ok, err := s.load(buf, stream)
		if raw != nil {
			buf = raw
		}
		switch {
		case err != nil:
			return err
		case ok && stored > mine:
			return &fencedWriteError{fmt.Errorf("%w: epoch %d overwrote %q during save at %d",
				ErrStaleEpoch, stored, stream, mine)}
		case ok && stored == mine && storedBy != "" && me != "" && storedBy != me:
			// Concurrent equal-epoch interleave: smaller node ID wins.
			if storedBy < me {
				return &fencedWriteError{fmt.Errorf("%w: node %q interleaved %q at equal epoch %d, writer %q concedes",
					ErrStaleEpoch, storedBy, stream, mine, me)}
			}
			if attempt >= 8 {
				return fmt.Errorf("fence thrash on %q: writer %q still stored at epoch %d after %d attempts",
					stream, storedBy, mine, attempt+1)
			}
		case ok && stored == mine:
			return nil
		case attempt >= 8:
			return fmt.Errorf("fence thrash on %q: stored epoch %d below writer %d after %d attempts",
				stream, stored, mine, attempt+1)
		}
	}
}

// List forwards to the wrapped store's inventory when it has one (the
// FileStore does): at takeover the surviving coordinator lists the
// shared store to find the dead node's streams. Stores without listing
// report no inventory rather than an error.
func (s *FencedStore) List() ([]string, error) {
	if l, ok := s.inner.(interface{ List() ([]string, error) }); ok {
		return l.List()
	}
	return nil, nil
}

// Load copies the stream's snapshot into dst's storage with the fence
// prefix stripped. A payload without a current fence prefix is
// fleet.ErrSnapshotCorrupt.
func (s *FencedStore) Load(dst []byte, stream string) ([]byte, bool, error) {
	raw, snap, _, _, ok, err := s.load(dst, stream)
	if err != nil || !ok {
		return nil, ok, err
	}
	// Slide the snapshot to the front of the caller's buffer, so the
	// storage it returns is the storage it was given.
	return raw[:copy(raw, snap)], true, nil
}

// LoadEpoch reports the epoch the stream's checkpoint was written at.
func (s *FencedStore) LoadEpoch(stream string) (uint64, bool, error) {
	_, _, epoch, _, ok, err := s.load(nil, stream)
	return epoch, ok, err
}

// load reads the stream's fenced payload into dst's storage and
// decodes its prefix. raw is the whole payload, for a caller to reuse
// as its next dst; snap, the wrapped snapshot, is a view into raw.
func (s *FencedStore) load(dst []byte, stream string) (raw, snap []byte, epoch uint64, writer string, ok bool, err error) {
	raw, ok, err = s.inner.Load(dst, stream)
	if err != nil || !ok {
		return nil, nil, 0, "", ok, err
	}
	dec := state.NewDecoder(raw)
	if v := dec.Section(TagFence, fenceVersion); v != 0 && v != fenceVersion {
		return nil, nil, 0, "", true, fmt.Errorf("%w: fence prefix for %q: version %d, want %d",
			fleet.ErrSnapshotCorrupt, stream, v, fenceVersion)
	}
	epoch = dec.U64()
	writer = dec.String()
	snap = dec.Bytes()
	if err := dec.Finish(); err != nil {
		return nil, nil, 0, "", true, fmt.Errorf("%w: fence prefix for %q: %w",
			fleet.ErrSnapshotCorrupt, stream, err)
	}
	return raw, snap, epoch, writer, true, nil
}
