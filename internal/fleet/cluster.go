// Stream migration: the Fleet-side primitives a cluster node uses to
// move a stream to (or from) another node without changing its phase
// sequence. The stream travels through the shared store: the old owner
// detaches it and saves the snapshot, and the new owner rehydrates it
// lazily on its first batch.
//
// DetachStream drains and serializes one stream, then fences it: the
// entry stays in the shard map with a detached latch, the fleet-level
// detached set rejects new batches at Send with ErrNotOwned, and any
// batch that was already in a shard queue when the latch landed is
// dropped and counted — loudly, exactly like a store-outage drop —
// rather than ever being applied to a stale tracker. AdoptStream is the
// inverse: lift the fence and either rehydrate lazily from the shared
// store (nil snapshot: a stream taken over from a removed node, or
// gained in a join once its old owner has saved it) or install a
// snapshot directly (a migrating node re-adopting a stream whose save
// failed). ReleaseStream only lifts the fence, for a stream returning
// to a node before its checkpoint is known to be current.
//
// The ordering argument: the detach message travels the owning shard's
// FIFO, so every batch admitted before the fence was set is applied
// before the snapshot is taken. Batches admitted after the fence never
// reach the shard. Admission and enqueue happen under the shard's
// admission lock held shared, and the fence and detach message under
// it held exclusively, so no batch is admitted before the fence yet
// queued after the detach message. The per-entry latch stays as the
// backstop: a batch that reached a detached entry anyway is dropped
// with DroppedBatches/NotOwnedDrops bumped, which drains/exit paths
// treat as data loss.
package fleet

import (
	"context"
	"errors"
	"fmt"

	"phasekit/internal/core"
)

// ErrNotOwned is returned by Send and SendCtx (and reported per batch by
// TrySendRun) for a stream that has been detached (handed off to another node). Front-ends translate it
// into a redirect so the producer re-homes.
var ErrNotOwned = errors.New("fleet: stream not owned (detached)")

// admitOwned rejects batches for detached streams. The fast path — no
// detach has ever happened, or none is live — is one atomic load.
func (f *Fleet) admitOwned(stream string) error {
	if !f.hasDetached.Load() {
		return nil
	}
	f.detachedMu.Lock()
	_, det := f.detachedSet[stream]
	f.detachedMu.Unlock()
	if det {
		f.metrics.notOwnedRejects.Add(1)
		return ErrNotOwned
	}
	return nil
}

// fenceStream adds stream to the fleet-level detached set.
func (f *Fleet) fenceStream(stream string) {
	f.detachedMu.Lock()
	if f.detachedSet == nil {
		f.detachedSet = make(map[string]struct{})
	}
	f.detachedSet[stream] = struct{}{}
	f.hasDetached.Store(true)
	f.detachedMu.Unlock()
}

// unfenceStream removes stream from the detached set, dropping the
// hot-path flag when the set empties.
func (f *Fleet) unfenceStream(stream string) {
	f.detachedMu.Lock()
	delete(f.detachedSet, stream)
	if len(f.detachedSet) == 0 {
		f.hasDetached.Store(false)
	}
	f.detachedMu.Unlock()
}

// Detached reports whether stream is currently fenced by DetachStream.
func (f *Fleet) Detached(stream string) bool {
	if !f.hasDetached.Load() {
		return false
	}
	f.detachedMu.Lock()
	_, det := f.detachedSet[stream]
	f.detachedMu.Unlock()
	return det
}

// DetachedStreams returns the IDs of every stream this Fleet currently
// fences, in no particular order.
func (f *Fleet) DetachedStreams() []string {
	if !f.hasDetached.Load() {
		return nil
	}
	f.detachedMu.Lock()
	defer f.detachedMu.Unlock()
	out := make([]string, 0, len(f.detachedSet))
	for s := range f.detachedSet {
		out = append(out, s)
	}
	return out
}

// DetachStream drains one stream and returns its serialized state for
// handoff, fencing the stream so this Fleet accepts no further batches
// for it (Send returns ErrNotOwned until AdoptStream). The snapshot
// reflects every batch admitted before the call (per-shard FIFO). A
// stream the fleet has never seen detaches successfully with a nil
// snapshot — the fence still lands, which is what a rebalance needs
// before the first byte arrives. Detaching a quarantined stream fails:
// its state is known-bad and must not be propagated to another node.
func (f *Fleet) DetachStream(ctx context.Context, stream string) ([]byte, error) {
	// Fence first: batches admitted after this point never enter the
	// shard queue. Holding the shard's admission lock until the reply
	// also keeps a batch admitted before the fence from being queued
	// behind the detach message, where it would be dropped after its
	// sender was told it was accepted.
	sh := f.shardFor(stream)
	sh.admitMu.Lock()
	f.fenceStream(stream)
	r, queued, err := f.streamCall(ctx, shardMsg{kind: msgDetach, stream: stream})
	sh.admitMu.Unlock()
	if err == nil && r.err != nil {
		f.unfenceStream(stream)
		return nil, r.err
	}
	if err != nil {
		// A detach canceled after it was queued still runs on the shard:
		// the fence stays up, so the caller can retry adopt or re-detach
		// without a stale tracker reviving.
		if !queued {
			f.unfenceStream(stream)
		}
		return nil, err
	}
	f.metrics.detaches.Add(1)
	return r.snap, nil
}

// AdoptStream makes this Fleet the owner of a stream. A nil snap defers
// to the configured StateStore: the stream rehydrates from the shared
// store on its next batch, which is how a node takes over a removed
// member's streams. A non-nil snap (a DetachStream output) is restored
// immediately — bit-identically, so the stream's phase sequence
// continues exactly where it left off; a migrating node uses it to
// keep a stream whose save failed. Adoption lifts the ErrNotOwned
// fence on success.
//
// Adopting a stream that is live (resident, not detached) with a
// snapshot fails: that would clobber real state, and means two nodes
// believed they owned the stream.
func (f *Fleet) AdoptStream(ctx context.Context, stream string, snap []byte) error {
	r, _, err := f.streamCall(ctx, shardMsg{kind: msgAdopt, stream: stream, snap: snap})
	if err == nil {
		err = r.err
	}
	if err != nil {
		return err
	}
	f.unfenceStream(stream)
	f.metrics.adopts.Add(1)
	return nil
}

// ReleaseStream lifts the ErrNotOwned fence on a stream coming back to
// this Fleet without claiming its state: the stream becomes unknown
// here, so its next batch rehydrates it from the shared store, and a
// flush skips it until then. A node uses it when a ring returns a
// stream whose checkpoint may still be stale — the node that held it
// since has not necessarily saved it yet — where AdoptStream(nil)
// would let a flush close an interval from that stale checkpoint. A
// stream that is not fenced is left alone; one that dropped batches
// behind its fence stays known, so StreamErr keeps reporting the loss.
func (f *Fleet) ReleaseStream(ctx context.Context, stream string) error {
	if _, _, err := f.streamCall(ctx, shardMsg{kind: msgRelease, stream: stream}); err != nil {
		return err
	}
	f.unfenceStream(stream)
	return nil
}

// Streams returns the IDs of every stream this Fleet currently tracks
// (resident or evicted), excluding detached ones — i.e. the set a
// rebalance would need to consider moving. Each shard reports at its
// own point in its queue; there is no cross-shard barrier.
func (f *Fleet) Streams() []string {
	reply := make(chan shardReport, len(f.shards))
	for _, sh := range f.shards {
		sh.ch <- shardMsg{kind: msgStreams, report: reply}
	}
	var out []string
	for range f.shards {
		out = append(out, (<-reply).streams...)
	}
	return out
}

// detachStream is the shard-side half of DetachStream.
func (f *Fleet) detachStream(sh *shard, stream string) shardReport {
	e := sh.streams[stream]
	if e == nil {
		// Never seen: fence-only detach. Record the entry so a stray
		// late batch hits the latch instead of creating a fresh tracker.
		sh.streams[stream] = &streamEntry{detached: true}
		return shardReport{ok: true}
	}
	if e.quarantined {
		return shardReport{err: fmt.Errorf("stream %q: detach: %w", stream, e.err)}
	}
	if e.detached {
		return shardReport{ok: true} // idempotent re-detach, no state left here
	}
	if e.tracker == nil {
		if !e.pending && f.retr != nil {
			// Evicted at an interval boundary: the store's snapshot is
			// current, so hand that off without rebuilding a tracker.
			// Loaded into a fresh buffer: the reply crosses goroutines.
			snap, _, err := f.retr.load(sh.rng, nil, stream)
			if err != nil {
				return shardReport{err: f.failStream(e, stream, "detach-load", err, true)}
			}
			e.detached = true
			return shardReport{ok: true, snap: snap}
		}
		// Mid-interval eviction: rehydrate so the handoff carries the
		// open interval too.
		if _, err := f.residentTracker(sh, stream, e); err != nil {
			return shardReport{err: err}
		}
	}
	// The reply crosses goroutines, so the snapshot gets its own buffer.
	// Wrapped in the seq envelope so the adopter inherits the dedup
	// watermark along with the state.
	sh.snapBuf = e.tracker.AppendSnapshot(sh.snapBuf[:0])
	snap := appendSeqEnvelope(make([]byte, 0, len(sh.snapBuf)+32), e.seq, sh.snapBuf)
	sh.putShell(e.tracker)
	e.tracker = nil
	e.pending = false
	e.detached = true
	f.resident.Add(-1)
	return shardReport{ok: true, snap: snap}
}

// adoptStream is the shard-side half of AdoptStream.
func (f *Fleet) adoptStream(sh *shard, stream string, snap []byte) shardReport {
	e := sh.streams[stream]
	if e == nil {
		e = &streamEntry{}
		sh.streams[stream] = e
	}
	if e.quarantined {
		return shardReport{err: fmt.Errorf("stream %q: adopt: %w", stream, e.err)}
	}
	if e.tracker != nil && !e.detached {
		if snap == nil {
			return shardReport{ok: true} // already resident and owned: no-op
		}
		return shardReport{err: fmt.Errorf("stream %q: adopt: already resident (double ownership)", stream)}
	}
	if snap != nil {
		seq, inner, err := openSeqEnvelope(snap)
		if err != nil {
			return shardReport{err: fmt.Errorf("stream %q: adopt: %w", stream, err)}
		}
		if sh.quota > 0 {
			f.evictDownTo(sh, sh.quota-1)
		}
		t := f.getShell(sh, stream)
		if err := core.RestoreInto(t, inner); err != nil {
			sh.putShell(t)
			// The snapshot is bad; refuse the adoption but do not
			// quarantine — the stream's local state (if any) is
			// untouched, and the shell is reusable.
			return shardReport{err: fmt.Errorf("stream %q: adopt: %w: %w", stream, ErrSnapshotCorrupt, err)}
		}
		e.tracker = t
		if seq > e.seq {
			e.seq = seq
		}
		f.resident.Add(1)
		sh.clock++
		e.lastUse = sh.clock
	}
	// snap == nil: leave the tracker out; the next batch rehydrates from
	// the shared store (or starts fresh if the store never saw it). Its
	// checkpoint may hold a partial interval, so it counts as pending:
	// a flush before that batch rehydrates it to close the interval.
	e.detached = false
	e.pending = snap == nil
	if !e.dropped {
		e.err = nil
	}
	return shardReport{ok: true}
}

// releaseStream is the shard-side half of ReleaseStream.
func (f *Fleet) releaseStream(sh *shard, stream string) {
	e := sh.streams[stream]
	switch {
	case e == nil || !e.detached:
	case e.dropped:
		e.detached = false
	default:
		delete(sh.streams, stream)
	}
}
