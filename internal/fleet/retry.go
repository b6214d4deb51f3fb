package fleet

import (
	"errors"
	"fmt"
	"time"

	"phasekit/internal/backoff"
	"phasekit/internal/rng"
)

// Typed failure classes. Store and Fleet errors wrap one of these, so
// callers dispatch with errors.Is instead of string matching.
var (
	// ErrSnapshotCorrupt marks a snapshot that failed integrity
	// verification (CRC mismatch, truncation, or an undecodable
	// payload). Corrupt snapshots are never retried: the bytes are bad,
	// not the store. A stream whose snapshot is corrupt is quarantined.
	ErrSnapshotCorrupt = errors.New("fleet: snapshot corrupt")
	// ErrSnapshotTooLarge marks a snapshot whose size exceeds the
	// store's limit, rejected before any allocation (defense against a
	// corrupted length pointing at a multi-GB read).
	ErrSnapshotTooLarge = errors.New("fleet: snapshot exceeds size limit")
	// ErrStoreUnavailable marks a store operation that failed after
	// exhausting retries, or was fast-failed by an open circuit
	// breaker. The condition is transient: the stream is not
	// quarantined and its next batch retries.
	ErrStoreUnavailable = errors.New("fleet: state store unavailable")
	// ErrOverloaded is returned by Send under the Reject overload
	// policy when the owning shard's queue is full.
	ErrOverloaded = errors.New("fleet: ingestion queue full")
)

// OverloadPolicy selects what Send does when the owning shard's queue
// is full.
type OverloadPolicy uint8

const (
	// OverloadBlock makes Send block until the shard has queue space
	// (backpressure; the default).
	OverloadBlock OverloadPolicy = iota
	// OverloadReject makes Send return ErrOverloaded immediately when
	// the shard's queue is full, so callers can shed load instead of
	// stalling.
	OverloadReject
)

// RetryPolicy configures retries of failed store operations. Retries
// run in the shard worker that issued the operation, so backoff sleep
// applies backpressure to that shard's queue rather than spawning
// goroutines. The zero value disables retries (one attempt).
type RetryPolicy struct {
	// MaxRetries is the number of additional attempts after the first
	// failure. 0 disables retries.
	MaxRetries int
	// Backoff is the delay before the first retry; each subsequent
	// retry doubles it. 0 means DefaultBackoff (when MaxRetries > 0).
	Backoff time.Duration
	// MaxBackoff caps the doubled delay. 0 means DefaultMaxBackoff.
	MaxBackoff time.Duration
}

// Default backoff bounds used when RetryPolicy fields are zero.
const (
	DefaultBackoff    = 1 * time.Millisecond
	DefaultMaxBackoff = 250 * time.Millisecond
)

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Backoff <= 0 {
		p.Backoff = DefaultBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = DefaultMaxBackoff
	}
	return p
}

// PermanentError marks a store error that no retry can fix. Wrappers
// outside this package (the cluster's epoch fence, notably) implement
// it so a refused write fails fast instead of burning retries and
// tripping the circuit breaker on a perfectly reachable store.
type PermanentError interface{ StorePermanent() bool }

// permanent reports whether err is a data error that no retry can fix
// (and that must not trip the breaker: the store is reachable, the
// bytes are bad).
func permanent(err error) bool {
	if errors.Is(err, ErrSnapshotCorrupt) || errors.Is(err, ErrSnapshotTooLarge) {
		return true
	}
	var pe PermanentError
	return errors.As(err, &pe) && pe.StorePermanent()
}

// retrier wraps a StateStore with capped exponential backoff plus
// jitter and a shared circuit breaker. The healthy path — breaker
// closed, first attempt succeeds — performs no allocations and no
// clock reads beyond one atomic load.
type retrier struct {
	store   StateStore
	policy  RetryPolicy
	breaker *breaker // nil = disabled
	sleep   func(time.Duration)
	metrics *metrics
}

// backoff returns the jittered delay before retry attempt k (0-based).
// The jitter source is the calling shard's deterministic rng, so tests
// with an injected sleeper observe a reproducible schedule.
func (r *retrier) backoff(x *rng.Xoshiro256, k int) time.Duration {
	return backoff.Delay(r.policy.Backoff, r.policy.MaxBackoff, k, x.Uint64)
}

// save runs StateStore.Save under the retry and breaker policy.
func (r *retrier) save(x *rng.Xoshiro256, stream string, snap []byte) error {
	if !r.breaker.allow() {
		r.metrics.breakerFastFails.Add(1)
		r.metrics.saveFailures.Add(1)
		return ErrStoreUnavailable
	}
	err := r.store.Save(stream, snap)
	if err == nil {
		r.breaker.onSuccess(opSave)
		return nil
	}
	err = r.retrySave(x, stream, snap, err)
	if err != nil {
		r.metrics.saveFailures.Add(1)
	}
	return err
}

// retrySave is the cold path of save: every attempt after the first.
// A transient error that survives every retry is reported to the
// breaker and wrapped as ErrStoreUnavailable; permanent (data) errors
// pass through untouched and never count against the breaker.
func (r *retrier) retrySave(x *rng.Xoshiro256, stream string, snap []byte, err error) error {
	for k := 0; k < r.policy.MaxRetries && !permanent(err); k++ {
		r.sleep(r.backoff(x, k))
		r.metrics.saveRetries.Add(1)
		if err = r.store.Save(stream, snap); err == nil {
			r.breaker.onSuccess(opSave)
			return nil
		}
	}
	if !permanent(err) {
		r.breaker.onFailure(opSave)
		err = fmt.Errorf("%w: %w", ErrStoreUnavailable, err)
	}
	return err
}

// load runs StateStore.Load into dst under the retry and breaker
// policy.
func (r *retrier) load(x *rng.Xoshiro256, dst []byte, stream string) ([]byte, bool, error) {
	if !r.breaker.allow() {
		r.metrics.breakerFastFails.Add(1)
		r.metrics.loadFailures.Add(1)
		return nil, false, ErrStoreUnavailable
	}
	snap, ok, err := r.store.Load(dst, stream)
	if err == nil {
		r.breaker.onSuccess(opLoad)
		return snap, ok, nil
	}
	snap, ok, err = r.retryLoad(x, dst, stream, err)
	if err != nil {
		r.metrics.loadFailures.Add(1)
	}
	return snap, ok, err
}

// retryLoad is the cold path of load: every attempt after the first.
func (r *retrier) retryLoad(x *rng.Xoshiro256, dst []byte, stream string, err error) ([]byte, bool, error) {
	for k := 0; k < r.policy.MaxRetries && !permanent(err); k++ {
		r.sleep(r.backoff(x, k))
		r.metrics.loadRetries.Add(1)
		var snap []byte
		var ok bool
		if snap, ok, err = r.store.Load(dst, stream); err == nil {
			r.breaker.onSuccess(opLoad)
			return snap, ok, nil
		}
	}
	if !permanent(err) {
		r.breaker.onFailure(opLoad)
		err = fmt.Errorf("%w: %w", ErrStoreUnavailable, err)
	}
	return nil, false, err
}
