// Package faults is a deterministic fault-injection harness for the
// state-store pipeline. It wraps any state store with a seedable fault
// schedule — fail-Nth, fail-rate bursts, outage windows, torn writes
// that persist a truncated payload, latency injection, and a switchable
// cut that severs one handle from a shared store — and provides crash
// hooks for the FileStore durability path and a manual clock, so chaos
// tests can prove the Fleet's phase sequences stay byte-identical under
// every failure mode the fault model claims to survive.
//
// The package deliberately does not import internal/fleet: it declares
// the store contract structurally, so fleet's own tests can use it
// without an import cycle, and any store satisfying the interface can
// be wrapped.
package faults

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"phasekit/internal/rng"
)

// StateStore is the store contract wrapped by Store, structurally
// identical to fleet.StateStore.
type StateStore interface {
	Save(stream string, snapshot []byte) error
	Load(dst []byte, stream string) (snapshot []byte, ok bool, err error)
}

// arbiter is the rest of the shared-store surface the cluster layer
// uses (structurally fleet.MemStore's and fleet.FileStore's): the
// epoch markers, the liveness lease records, stream locks and the
// inventory.
type arbiter interface {
	CreateExclusive(name string, data []byte) (existing []byte, created bool, err error)
	WriteLease(name string, data []byte) error
	ReadLease(name string) ([]byte, bool, error)
	LockStream(stream string) (unlock func(), err error)
	List() ([]string, error)
}

// ErrInjected is the class of every failure this package injects.
// Fleet retry policy treats it as transient (it does not wrap the
// fleet's corrupt-snapshot class), which is the point: injected
// failures model an unreliable store, not bad data.
var ErrInjected = errors.New("faults: injected failure")

// Schedule is a deterministic fault plan. Operations (Save and Load
// calls, in arrival order) are numbered from 1 by a shared counter;
// every trigger below is expressed against that numbering or a seeded
// PRNG, so a schedule replays identically for an identical operation
// sequence.
type Schedule struct {
	// Seed drives the fail-rate PRNG. Two runs with the same seed and
	// the same operation order inject identical faults.
	Seed uint64
	// FailRate is the per-operation probability of starting a failure
	// burst. 0 disables rate-based injection.
	FailRate float64
	// Burst is how many consecutive operations fail once a burst
	// starts (rate-based only). 0 means 1. Keeping Burst at or below
	// the Fleet's retry budget makes every rate-based fault maskable.
	Burst int
	// FailNth lists 1-based operation indices that fail exactly once.
	FailNth []int
	// TornNth lists 1-based operation indices at which a Save persists
	// only the first half of its payload to the inner store and then
	// reports failure — the classic torn write. (On a Load index the
	// entry degrades to a plain failure.)
	TornNth []int
	// OutageFrom/OutageTo define a half-open operation window
	// [From, To) during which every operation fails — a store outage
	// long enough to trip a circuit breaker. Zero values disable it.
	OutageFrom, OutageTo int
	// Latency is injected before every LatencyEveryNth operation via
	// the Sleeper. Zero disables.
	Latency      time.Duration
	LatencyEvery int
}

// Store wraps an inner StateStore with a fault Schedule. It forwards
// the cluster layer's store surface too (epoch markers, lease records,
// stream locks, the inventory), so a fenced store over it can still
// arbitrate; lease reads and writes run under the schedule like loads
// and saves. It is safe for concurrent use; the operation counter is
// shared across goroutines, so under concurrency the *set* of injected
// faults is schedule-determined even though their assignment to
// specific calls follows arrival order.
type Store struct {
	inner StateStore
	sched Schedule
	// Sleeper performs latency injection. Nil means time.Sleep; tests
	// inject a recorder so no real time passes.
	Sleeper func(time.Duration)

	mu        sync.Mutex
	rng       *rng.Xoshiro256
	op        int // operations seen so far
	burstLeft int // remaining failures in the current rate burst
	failNth   map[int]bool
	tornNth   map[int]bool

	cut      atomic.Bool
	saves    atomic.Uint64
	loads    atomic.Uint64
	injected atomic.Uint64
	torn     atomic.Uint64
}

// Wrap returns a Store injecting sched over inner.
func Wrap(inner StateStore, sched Schedule) *Store {
	s := &Store{
		inner:   inner,
		sched:   sched,
		rng:     rng.NewXoshiro256(sched.Seed),
		failNth: make(map[int]bool, len(sched.FailNth)),
		tornNth: make(map[int]bool, len(sched.TornNth)),
	}
	for _, n := range sched.FailNth {
		s.failNth[n] = true
	}
	for _, n := range sched.TornNth {
		s.tornNth[n] = true
	}
	return s
}

// Ops returns how many operations reached the wrapper: saves counts
// Save and WriteLease calls, loads counts Load and ReadLease calls.
func (s *Store) Ops() (saves, loads uint64) { return s.saves.Load(), s.loads.Load() }

// Cut severs this handle from the inner store: every operation fails
// with ErrInjected until Heal. Other handles on the same backing
// storage are untouched, so a chaos test can cut one node off a shared
// store while its peers keep using it.
func (s *Store) Cut() { s.cut.Store(true) }

// Heal undoes Cut.
func (s *Store) Heal() { s.cut.Store(false) }

// arbiter returns the inner store's cluster surface, or an error when
// the handle is cut or the inner store has none.
func (s *Store) arbiter(op string) (arbiter, error) {
	if s.cut.Load() {
		s.injected.Add(1)
		return nil, fmt.Errorf("%w: %s on a cut store", ErrInjected, op)
	}
	a, ok := s.inner.(arbiter)
	if !ok {
		return nil, fmt.Errorf("faults: %s: inner store %T has no %s", op, s.inner, op)
	}
	return a, nil
}

// Injected returns how many operations failed by injection, and how
// many of those were torn writes.
func (s *Store) Injected() (faults, torn uint64) { return s.injected.Load(), s.torn.Load() }

// decide advances the operation counter and returns the fault decision
// for this operation: fail (any injected failure) and tear (persist a
// truncated payload first).
func (s *Store) decide() (op int, fail, tear bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.op++
	op = s.op
	switch {
	case s.cut.Load():
		fail = true
	case s.tornNth[op]:
		fail, tear = true, true
	case s.failNth[op]:
		fail = true
	case s.sched.OutageFrom < s.sched.OutageTo && op >= s.sched.OutageFrom && op < s.sched.OutageTo:
		fail = true
	case s.burstLeft > 0:
		s.burstLeft--
		fail = true
	case s.sched.FailRate > 0:
		// Uniform draw in [0,1) from the top 53 bits, matching the
		// resolution of a float64 mantissa.
		if float64(s.rng.Uint64()>>11)/(1<<53) < s.sched.FailRate {
			fail = true
			burst := s.sched.Burst
			if burst <= 0 {
				burst = 1
			}
			s.burstLeft = burst - 1
		}
	}
	return op, fail, tear
}

// delay injects scheduled latency for operation op.
func (s *Store) delay(op int) {
	if s.sched.Latency <= 0 || s.sched.LatencyEvery <= 0 || op%s.sched.LatencyEvery != 0 {
		return
	}
	sleep := s.Sleeper
	if sleep == nil {
		sleep = time.Sleep
	}
	sleep(s.sched.Latency)
}

// Save forwards to the inner store unless the schedule injects a
// failure. A torn write persists the first half of the payload to the
// inner store and then reports failure, modeling a crash mid-write on
// a store without atomic replacement.
func (s *Store) Save(stream string, snapshot []byte) error {
	s.saves.Add(1)
	op, fail, tear := s.decide()
	s.delay(op)
	if !fail {
		return s.inner.Save(stream, snapshot)
	}
	s.injected.Add(1)
	if tear {
		s.torn.Add(1)
		if err := s.inner.Save(stream, snapshot[:len(snapshot)/2]); err != nil {
			return fmt.Errorf("%w: torn write (inner: %v)", ErrInjected, err)
		}
		return fmt.Errorf("%w: torn write at op %d", ErrInjected, op)
	}
	return fmt.Errorf("%w: save op %d", ErrInjected, op)
}

// Load forwards to the inner store unless the schedule injects a
// failure.
func (s *Store) Load(dst []byte, stream string) ([]byte, bool, error) {
	s.loads.Add(1)
	op, fail, _ := s.decide()
	s.delay(op)
	if !fail {
		return s.inner.Load(dst, stream)
	}
	s.injected.Add(1)
	return nil, false, fmt.Errorf("%w: load op %d", ErrInjected, op)
}

// WriteLease forwards a lease record write under the schedule, like
// Save; it is never torn.
func (s *Store) WriteLease(name string, data []byte) error {
	s.saves.Add(1)
	op, fail, _ := s.decide()
	s.delay(op)
	if fail {
		s.injected.Add(1)
		return fmt.Errorf("%w: lease write op %d", ErrInjected, op)
	}
	a, err := s.arbiter("WriteLease")
	if err != nil {
		return err
	}
	return a.WriteLease(name, data)
}

// ReadLease forwards a lease record read under the schedule, like Load.
func (s *Store) ReadLease(name string) ([]byte, bool, error) {
	s.loads.Add(1)
	op, fail, _ := s.decide()
	s.delay(op)
	if fail {
		s.injected.Add(1)
		return nil, false, fmt.Errorf("%w: lease read op %d", ErrInjected, op)
	}
	a, err := s.arbiter("ReadLease")
	if err != nil {
		return nil, false, err
	}
	return a.ReadLease(name)
}

// CreateExclusive forwards an epoch marker claim. Only Cut fails it.
func (s *Store) CreateExclusive(name string, data []byte) ([]byte, bool, error) {
	a, err := s.arbiter("CreateExclusive")
	if err != nil {
		return nil, false, err
	}
	return a.CreateExclusive(name, data)
}

// LockStream forwards a stream lock. Only Cut fails it.
func (s *Store) LockStream(stream string) (func(), error) {
	a, err := s.arbiter("LockStream")
	if err != nil {
		return nil, err
	}
	return a.LockStream(stream)
}

// List forwards the stream inventory. Only Cut fails it.
func (s *Store) List() ([]string, error) {
	a, err := s.arbiter("List")
	if err != nil {
		return nil, err
	}
	return a.List()
}

// FS generates crash hooks for the FileStore durability path
// (fleet.FileHooks-compatible signatures): each listed 1-based Save
// index aborts at the named step, simulating a crash that leaves
// behind whatever the completed steps wrote — an orphaned unsynced
// temp file (CrashBeforeSync), a synced-but-unrenamed temp file
// (CrashBeforeRename), or a renamed-but-undurable snapshot
// (CrashBeforeDirSync).
type FS struct {
	CrashBeforeSync    []int
	CrashBeforeRename  []int
	CrashBeforeDirSync []int

	syncs, renames, dirSyncs atomic.Uint64
	crashes                  atomic.Uint64
}

// Crashes returns how many injected crashes have fired.
func (f *FS) Crashes() uint64 { return f.crashes.Load() }

func (f *FS) crashAt(plan []int, n uint64, step string) error {
	for _, want := range plan {
		if want > 0 && uint64(want) == n {
			f.crashes.Add(1)
			return fmt.Errorf("%w: crash before %s at save %d", ErrInjected, step, n)
		}
	}
	return nil
}

// BeforeSync is a fleet.FileHooks.BeforeSync hook.
func (f *FS) BeforeSync(string) error {
	return f.crashAt(f.CrashBeforeSync, f.syncs.Add(1), "fsync")
}

// BeforeRename is a fleet.FileHooks.BeforeRename hook.
func (f *FS) BeforeRename(string, string) error {
	return f.crashAt(f.CrashBeforeRename, f.renames.Add(1), "rename")
}

// BeforeDirSync is a fleet.FileHooks.BeforeDirSync hook.
func (f *FS) BeforeDirSync(string) error {
	return f.crashAt(f.CrashBeforeDirSync, f.dirSyncs.Add(1), "dir fsync")
}

// WAL generates fault hooks for the write-ahead log append path
// (wal.Hooks-compatible signatures): torn writes that persist a prefix
// of a record frame (a crash mid-append), and short fsyncs that fail
// before durability is confirmed (the batch is in the page cache but
// the ACK must not go out).
type WAL struct {
	// TearNth lists 1-based append indices whose frame is written only
	// partially and then fails.
	TearNth []int
	// KeepBytes is how much of a torn frame survives; 0 (or a value
	// covering the whole frame) keeps half, which tears mid-payload.
	KeepBytes int
	// ShortSyncNth lists 1-based fsync indices that fail.
	ShortSyncNth []int

	appends, syncs atomic.Uint64
	torn, shorted  atomic.Uint64
}

// Injected returns how many torn writes and short fsyncs have fired.
func (w *WAL) Injected() (torn, shortSyncs uint64) {
	return w.torn.Load(), w.shorted.Load()
}

// TornWrite is a wal.Hooks.TornWrite hook.
func (w *WAL) TornWrite(frame []byte) (keep int, tear bool) {
	n := w.appends.Add(1)
	for _, want := range w.TearNth {
		if want > 0 && uint64(want) == n {
			w.torn.Add(1)
			keep = w.KeepBytes
			if keep <= 0 || keep >= len(frame) {
				keep = len(frame) / 2
			}
			return keep, true
		}
	}
	return 0, false
}

// BeforeSync is a wal.Hooks.BeforeSync hook.
func (w *WAL) BeforeSync(path string) error {
	n := w.syncs.Add(1)
	for _, want := range w.ShortSyncNth {
		if want > 0 && uint64(want) == n {
			w.shorted.Add(1)
			return fmt.Errorf("%w: short fsync %d on %s", ErrInjected, n, path)
		}
	}
	return nil
}

// Clock is a manual clock for deterministic failure-detector tests:
// Now returns a time that only moves when the test calls Advance. A
// frozen node's clock is one that simply stops advancing.
type Clock struct {
	mu  sync.Mutex
	now time.Time
}

// NewClock returns a clock starting at the given instant.
func NewClock(start time.Time) *Clock {
	return &Clock{now: start}
}

// Now returns the clock's current time. Pass the method value as a
// detector's Now hook.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d and returns the new time.
func (c *Clock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	return c.now
}
