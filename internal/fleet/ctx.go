// Context plumbing: every blocking Fleet operation is implemented once,
// here, in a ctx-taking form, so network callers can bound ingestion
// with deadlines and abandon requests without wedging a shard FIFO. The
// plain names (Send, Flush, Report, ...) call these with
// context.Background().
//
// The invariant that makes abandonment safe is that every reply channel
// a shard writes to is buffered for the full number of writers, and the
// snapshot barrier is always released — so a caller that gives up never
// leaves a shard blocked on a rendezvous that will not happen. Work
// already enqueued before the cancellation still completes (per-shard
// FIFO order is preserved); cancellation stops the caller from waiting,
// not the shards from working.
package fleet

import (
	"context"
	"errors"
	"fmt"

	"phasekit/internal/core"
)

// Typed cancellation classes. Ctx variants wrap one of these (plus the
// underlying context error), so callers dispatch with errors.Is.
var (
	// ErrCanceled marks an operation abandoned because its context was
	// canceled.
	ErrCanceled = errors.New("fleet: operation canceled")
	// ErrDeadline marks an operation abandoned because its context's
	// deadline passed.
	ErrDeadline = errors.New("fleet: deadline exceeded")
)

// ctxFail maps a done context to the typed cancellation class.
func ctxFail(ctx context.Context) error {
	err := ctx.Err()
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrDeadline, err)
	}
	return fmt.Errorf("%w: %w", ErrCanceled, err)
}

// SendCtx is Send bounded by a context: under OverloadBlock a full
// shard queue blocks only until ctx is done, then returns ErrDeadline
// or ErrCanceled (wrapped); under OverloadReject it never blocks and
// returns ErrOverloaded on a full queue, but still fails fast on an
// already-done context. A quarantined stream is rejected with
// ErrQuarantined and a detached one with ErrNotOwned either way.
func (f *Fleet) SendCtx(ctx context.Context, b Batch) error {
	if err := ctx.Err(); err != nil {
		f.metrics.canceledOps.Add(1)
		return ctxFail(ctx)
	}
	sh := f.shardFor(b.Stream)
	sh.admitMu.RLock()
	defer sh.admitMu.RUnlock()
	if err := f.admit(b.Stream); err != nil {
		return err
	}
	msg := shardMsg{kind: msgBatch, batch: b}
	if f.cfg.Overload == OverloadReject {
		select {
		case sh.ch <- msg:
			return nil
		default:
			f.metrics.rejectedBatches.Add(1)
			return ErrOverloaded
		}
	}
	select {
	case sh.ch <- msg:
		return nil
	case <-ctx.Done():
		f.metrics.canceledOps.Add(1)
		return ctxFail(ctx)
	}
}

// FlushCtx is Flush bounded by a context. On cancellation it stops
// waiting and returns ErrDeadline/ErrCanceled; shards that already
// received the flush message still flush (the ack channel is buffered,
// so no shard ever wedges on an abandoned caller), shards that had not
// yet been signalled are skipped.
func (f *Fleet) FlushCtx(ctx context.Context) error {
	done := make(chan struct{}, len(f.shards))
	sent := 0
	for _, sh := range f.shards {
		select {
		case sh.ch <- shardMsg{kind: msgFlush, done: done}:
			sent++
		case <-ctx.Done():
			f.metrics.canceledOps.Add(1)
			return ctxFail(ctx)
		}
	}
	for i := 0; i < sent; i++ {
		select {
		case <-done:
		case <-ctx.Done():
			f.metrics.canceledOps.Add(1)
			return ctxFail(ctx)
		}
	}
	return nil
}

// streamCall delivers one stream's message to the stream's shard and
// waits for the reply, both bounded by ctx. queued reports whether the
// message reached the shard's queue: a call canceled after that still
// runs on the shard (the reply channel is buffered), unobserved.
func (f *Fleet) streamCall(ctx context.Context, msg shardMsg) (r shardReport, queued bool, err error) {
	reply := make(chan shardReport, 1)
	msg.report = reply
	select {
	case f.shardFor(msg.stream).ch <- msg:
	case <-ctx.Done():
		f.metrics.canceledOps.Add(1)
		return r, false, ctxFail(ctx)
	}
	select {
	case r = <-reply:
		return r, true, nil
	case <-ctx.Done():
		f.metrics.canceledOps.Add(1)
		return r, true, ctxFail(ctx)
	}
}

// ReportCtx is Report bounded by a context.
func (f *Fleet) ReportCtx(ctx context.Context, stream string) (core.Report, bool, error) {
	r, _, err := f.streamCall(ctx, shardMsg{kind: msgReport, stream: stream})
	if err != nil || !r.ok {
		return core.Report{}, false, err
	}
	return r.reports[stream], true, nil
}

// StreamErrCtx is StreamErr bounded by a context. The returned error is
// the stream's latched failure; the second error reports cancellation
// of the query itself.
func (f *Fleet) StreamErrCtx(ctx context.Context, stream string) (error, error) {
	r, _, err := f.streamCall(ctx, shardMsg{kind: msgStreamErr, stream: stream})
	return r.err, err
}

// SnapshotCtx is Snapshot bounded by a context. On cancellation it
// releases the barrier before returning, so shards already parked at it
// resume immediately and the fleet keeps running; the partial results
// are discarded.
func (f *Fleet) SnapshotCtx(ctx context.Context) (map[string]core.Report, error) {
	select {
	case f.barrier <- struct{}{}:
	case <-ctx.Done():
		f.metrics.canceledOps.Add(1)
		return nil, ctxFail(ctx)
	}
	defer func() { <-f.barrier }()

	reply := make(chan shardReport, len(f.shards))
	release := make(chan struct{})
	// Whatever happens below, the barrier must open: a shard that
	// received the snapshot message parks on release after posting its
	// (buffered) report, so closing release is all it takes to unwedge.
	sent := 0
	for _, sh := range f.shards {
		select {
		case sh.ch <- shardMsg{kind: msgSnapshot, report: reply, release: release}:
			sent++
		case <-ctx.Done():
			close(release)
			f.metrics.canceledOps.Add(1)
			return nil, ctxFail(ctx)
		}
	}
	out := make(map[string]core.Report)
	for i := 0; i < sent; i++ {
		select {
		case r := <-reply:
			for name, rep := range r.reports {
				out[name] = rep
			}
		case <-ctx.Done():
			close(release)
			f.metrics.canceledOps.Add(1)
			return nil, ctxFail(ctx)
		}
	}
	close(release)
	return out, nil
}

// Checkpoint saves every resident tracker to the configured store
// without evicting it, after processing everything already enqueued
// (per-shard FIFO order). It is the graceful-drain primitive: a server
// that has stopped ingesting calls Checkpoint so that a restart resumes
// every stream — including mid-interval state — bit-identically.
// Streams already serialized in the store (evicted) are untouched and
// quarantined streams are skipped. It returns the first save failure,
// or an error when no store is configured.
func (f *Fleet) Checkpoint() error { return f.CheckpointCtx(context.Background()) }

// CheckpointCtx is Checkpoint bounded by a context.
func (f *Fleet) CheckpointCtx(ctx context.Context) error {
	if f.retr == nil {
		return fmt.Errorf("fleet: Checkpoint requires a configured Store")
	}
	reply := make(chan shardReport, len(f.shards))
	sent := 0
	for _, sh := range f.shards {
		select {
		case sh.ch <- shardMsg{kind: msgCheckpoint, report: reply}:
			sent++
		case <-ctx.Done():
			f.metrics.canceledOps.Add(1)
			return ctxFail(ctx)
		}
	}
	var first error
	for i := 0; i < sent; i++ {
		select {
		case r := <-reply:
			if r.err != nil && first == nil {
				first = r.err
			}
		case <-ctx.Done():
			f.metrics.canceledOps.Add(1)
			return ctxFail(ctx)
		}
	}
	return first
}
