// Stream handoff: the Fleet-side primitives a cluster node uses to
// migrate a stream to (or from) another node without changing its phase
// sequence.
//
// DetachStream drains and serializes one stream, then fences it: the
// entry stays in the shard map with a detached latch, the fleet-level
// detached set rejects new batches at Send with ErrNotOwned, and any
// batch that was already in a shard queue when the latch landed is
// dropped and counted — loudly, exactly like a store-outage drop —
// rather than ever being applied to a stale tracker. AdoptStream is the
// inverse: install a snapshot received from the previous owner (or nil
// to rehydrate lazily from a shared store) and lift the fence.
//
// The ordering argument: the detach message travels the owning shard's
// FIFO, so every batch admitted before the fence was set is applied
// before the snapshot is taken. Batches admitted after the fence never
// reach the shard. The only batches that can race are ones admitted
// before the fence but enqueued after the detach message — those hit
// the per-entry latch and are dropped with DroppedBatches/NotOwnedDrops
// bumped, which drains/exit paths already treat as data loss. Callers
// that quiesce the stream first (the server redirects traffic before
// detaching) never take that path.
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
	// shard queue, so the detach message is behind every admitted batch.
	f.fenceStream(stream)
	reply := make(chan shardReport, 1)
	sh := f.shardFor(stream)
	select {
	case sh.ch <- shardMsg{kind: msgDetach, stream: stream, report: reply}:
	case <-ctx.Done():
		f.unfenceStream(stream)
		f.metrics.canceledOps.Add(1)
		return nil, ctxFail(ctx)
	}
	select {
	case r := <-reply:
		if r.err != nil {
			f.unfenceStream(stream)
			return nil, r.err
		}
		f.metrics.detaches.Add(1)
		return r.snap, nil
	case <-ctx.Done():
		// The shard will still process the detach (the reply channel is
		// buffered); the fence stays up, so the caller can retry adopt
		// or re-detach without a stale tracker reviving.
		f.metrics.canceledOps.Add(1)
		return nil, ctxFail(ctx)
	}
}

// AdoptStream makes this Fleet the owner of a stream arriving from
// another node. A non-nil snap (the previous owner's DetachStream
// output) is restored immediately — bit-identically, so the stream's
// phase sequence continues exactly where the old owner left it. A nil
// snap defers to the configured StateStore: the stream rehydrates from
// the shared store on its next batch, which is the takeover path when
// the old owner died without handing anything off. Adoption lifts the
// ErrNotOwned fence on success.
//
// Adopting a stream that is live (resident, not detached) with a
// snapshot fails: that would clobber real state, and means two nodes
// believed they owned the stream.
func (f *Fleet) AdoptStream(ctx context.Context, stream string, snap []byte) error {
	reply := make(chan shardReport, 1)
	sh := f.shardFor(stream)
	select {
	case sh.ch <- shardMsg{kind: msgAdopt, stream: stream, snap: snap, report: reply}:
	case <-ctx.Done():
		f.metrics.canceledOps.Add(1)
		return ctxFail(ctx)
	}
	select {
	case r := <-reply:
		if r.err != nil {
			return r.err
		}
		f.unfenceStream(stream)
		f.metrics.adopts.Add(1)
		return nil
	case <-ctx.Done():
		f.metrics.canceledOps.Add(1)
		return ctxFail(ctx)
	}
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
			snap, ok, err := f.retr.load(sh.rng, stream)
			if err != nil {
				return shardReport{err: f.failStream(e, stream, "detach-load", err, true)}
			}
			e.detached = true
			if !ok {
				return shardReport{ok: true}
			}
			return shardReport{ok: true, snap: append([]byte(nil), snap...)}
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
			// The remote handed us bad bytes; refuse the adoption but do
			// not quarantine — the stream's local state (if any) is
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
	// the shared store (or starts fresh if the store never saw it).
	e.detached = false
	e.pending = false
	if !e.dropped {
		e.err = nil
	}
	return shardReport{ok: true}
}
