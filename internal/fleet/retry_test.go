package fleet

// Retry-policy tests: jitter bounds, retry accounting with an
// injectable sleeper (no real time passes), and the permanent-error
// carve-out that keeps data errors away from both the retry loop and
// the breaker.

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"phasekit/internal/rng"
)

// flakyStore fails the first failSaves saves and failLoads loads with a
// transient error, then behaves like a MemStore.
type flakyStore struct {
	mem       *MemStore
	failSaves int
	failLoads int
	saves     int
	loads     int
}

var errFlaky = errors.New("transient store hiccup")

func (s *flakyStore) Save(stream string, snap []byte) error {
	s.saves++
	if s.saves <= s.failSaves {
		return errFlaky
	}
	return s.mem.Save(stream, snap)
}

func (s *flakyStore) Load(dst []byte, stream string) ([]byte, bool, error) {
	s.loads++
	if s.loads <= s.failLoads {
		return nil, false, errFlaky
	}
	return s.mem.Load(dst, stream)
}

func newTestRetrier(store StateStore, p RetryPolicy, sleeps *[]time.Duration) *retrier {
	return &retrier{
		store:  store,
		policy: p.withDefaults(),
		sleep: func(d time.Duration) {
			*sleeps = append(*sleeps, d)
		},
		metrics: &metrics{},
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	var sleeps []time.Duration
	r := newTestRetrier(NewMemStore(), RetryPolicy{
		MaxRetries: 10,
		Backoff:    8 * time.Millisecond,
		MaxBackoff: 64 * time.Millisecond,
	}, &sleeps)
	x := rng.NewXoshiro256(0x9e3779b97f4a7c15)
	for k := 0; k < 10; k++ {
		// d doubles per attempt and saturates at the cap; full jitter
		// keeps each delay in [d/2, d].
		d := 8 * time.Millisecond << uint(k)
		if d <= 0 || d > 64*time.Millisecond {
			d = 64 * time.Millisecond
		}
		for i := 0; i < 300; i++ {
			got := r.backoff(x, k)
			if got < d/2 || got > d {
				t.Fatalf("backoff(k=%d) = %v, want within [%v, %v]", k, got, d/2, d)
			}
		}
	}
}

func TestRetryMasksTransientFailures(t *testing.T) {
	store := &flakyStore{mem: NewMemStore(), failSaves: 3, failLoads: 2}
	var sleeps []time.Duration
	r := newTestRetrier(store, RetryPolicy{MaxRetries: 5}, &sleeps)
	x := rng.NewXoshiro256(1)

	if err := r.save(x, "s", []byte("state")); err != nil {
		t.Fatalf("save failed despite retry budget: %v", err)
	}
	if len(sleeps) != 3 {
		t.Fatalf("%d backoff sleeps, want 3 (one per failed attempt)", len(sleeps))
	}
	if got := r.metrics.saveRetries.Load(); got != 3 {
		t.Fatalf("saveRetries = %d, want 3", got)
	}
	if got := r.metrics.saveFailures.Load(); got != 0 {
		t.Fatalf("saveFailures = %d for a masked fault, want 0", got)
	}

	sleeps = sleeps[:0]
	snap, ok, err := r.load(x, nil, "s")
	if err != nil || !ok || string(snap) != "state" {
		t.Fatalf("load = %q, %v, %v", snap, ok, err)
	}
	if len(sleeps) != 2 || r.metrics.loadRetries.Load() != 2 {
		t.Fatalf("load retried %d times with %d sleeps, want 2 and 2",
			r.metrics.loadRetries.Load(), len(sleeps))
	}
}

func TestRetriesExhausted(t *testing.T) {
	store := &flakyStore{mem: NewMemStore(), failSaves: 100}
	var sleeps []time.Duration
	r := newTestRetrier(store, RetryPolicy{MaxRetries: 2}, &sleeps)

	err := r.save(rng.NewXoshiro256(1), "s", []byte("state"))
	if !errors.Is(err, ErrStoreUnavailable) || !errors.Is(err, errFlaky) {
		t.Fatalf("exhausted error chain = %v, want ErrStoreUnavailable wrapping the cause", err)
	}
	if store.saves != 3 {
		t.Fatalf("%d attempts, want 3 (first + 2 retries)", store.saves)
	}
	if len(sleeps) != 2 {
		t.Fatalf("%d sleeps, want 2", len(sleeps))
	}
	if r.metrics.saveFailures.Load() != 1 {
		t.Fatalf("saveFailures = %d, want 1", r.metrics.saveFailures.Load())
	}
}

// TestPermanentErrorsSkipRetries: a corrupt snapshot is a data error —
// retrying cannot fix it, and it must not trip the breaker (the store
// is reachable; the bytes are bad).
func TestPermanentErrorsSkipRetries(t *testing.T) {
	store := &corruptLoadStore{}
	var sleeps []time.Duration
	var trips atomic.Uint64
	r := newTestRetrier(store, RetryPolicy{MaxRetries: 5}, &sleeps)
	r.breaker = newBreaker(BreakerPolicy{Threshold: 1, Cooldown: time.Minute}, time.Now, &trips)

	_, _, err := r.load(rng.NewXoshiro256(1), nil, "s")
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("load = %v, want ErrSnapshotCorrupt", err)
	}
	if errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("permanent error wrapped as transient: %v", err)
	}
	if store.loads != 1 || len(sleeps) != 0 {
		t.Fatalf("permanent error was retried: %d attempts, %d sleeps", store.loads, len(sleeps))
	}
	if trips.Load() != 0 || r.breaker.open() {
		t.Fatal("permanent error tripped the breaker")
	}
}

type corruptLoadStore struct{ loads int }

func (s *corruptLoadStore) Save(string, []byte) error { return nil }
func (s *corruptLoadStore) Load([]byte, string) ([]byte, bool, error) {
	s.loads++
	return nil, false, fmt.Errorf("decoding header: %w", ErrSnapshotCorrupt)
}

// TestBreakerFastFail: an open breaker rejects operations without
// touching the store at all.
func TestBreakerFastFail(t *testing.T) {
	store := &flakyStore{mem: NewMemStore(), failSaves: 1}
	var sleeps []time.Duration
	var trips atomic.Uint64
	r := newTestRetrier(store, RetryPolicy{}, &sleeps)
	r.breaker = newBreaker(BreakerPolicy{Threshold: 1, Cooldown: time.Minute}, time.Now, &trips)
	x := rng.NewXoshiro256(1)

	if err := r.save(x, "s", nil); !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("first save = %v, want failure tripping the breaker", err)
	}
	attempts := store.saves
	if err := r.save(x, "s", nil); !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("fast-fail = %v, want ErrStoreUnavailable", err)
	}
	if store.saves != attempts {
		t.Fatal("open breaker let the operation reach the store")
	}
	if got := r.metrics.breakerFastFails.Load(); got != 1 {
		t.Fatalf("breakerFastFails = %d, want 1", got)
	}
}
