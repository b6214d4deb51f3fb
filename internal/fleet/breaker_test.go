package fleet

// Circuit breaker tests: the state machine under a fake clock, and the
// acceptance contract that an open breaker suspends eviction (resident
// count overshoots MaxResident, tracked) while a half-open probe
// restores normal eviction after the store recovers. No test here
// sleeps for real.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phasekit/internal/core"
)

// fakeClock is a manually advanced time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestBreakerStateMachine(t *testing.T) {
	clock := newFakeClock()
	var trips atomic.Uint64
	b := newBreaker(BreakerPolicy{Threshold: 3, Cooldown: time.Minute}, clock.Now, &trips)

	// Closed: operations allowed; failures below the threshold do not
	// trip, a success resets that class's count.
	for i := 0; i < 2; i++ {
		if !b.allow() {
			t.Fatal("closed breaker refused an operation")
		}
		b.onFailure(opSave)
	}
	b.onSuccess(opSave)
	for i := 0; i < 2; i++ {
		b.onFailure(opSave)
	}
	if b.open() {
		t.Fatal("breaker tripped below the threshold (success did not reset)")
	}

	// Load successes must not reset the save streak: a disk-full store
	// fails every save while loads keep working.
	b.onSuccess(opLoad)
	// Third consecutive save failure trips it open.
	b.onFailure(opSave)
	if !b.open() || trips.Load() != 1 {
		t.Fatalf("breaker not open after threshold failures (trips=%d)", trips.Load())
	}
	if b.allow() {
		t.Fatal("open breaker admitted an operation inside the cooldown")
	}
	if !b.suspended() {
		t.Fatal("open breaker not suspended inside the cooldown")
	}

	// Cooldown elapses: exactly one half-open probe is admitted.
	clock.Advance(time.Minute + time.Second)
	if b.suspended() {
		t.Fatal("breaker still suspended after the cooldown")
	}
	if !b.allow() {
		t.Fatal("half-open breaker refused the probe")
	}
	if b.allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}

	// Failed probe reopens for another full cooldown.
	b.onFailure(opLoad)
	if !b.suspended() {
		t.Fatal("breaker not suspended after a failed probe")
	}
	clock.Advance(time.Minute + time.Second)
	if !b.allow() {
		t.Fatal("breaker refused the second probe after the re-cooldown")
	}

	// Successful probe closes it.
	b.onSuccess(opSave)
	if b.open() {
		t.Fatal("breaker still open after a successful probe")
	}
	if !b.allow() {
		t.Fatal("closed breaker refused an operation")
	}
}

func TestBreakerDisabled(t *testing.T) {
	var trips atomic.Uint64
	if b := newBreaker(BreakerPolicy{}, time.Now, &trips); b != nil {
		t.Fatal("zero policy did not disable the breaker")
	}
	var b *breaker // disabled breakers travel as nil
	if !b.allow() || b.open() || b.suspended() {
		t.Fatal("nil breaker must allow everything")
	}
	b.onSuccess(opSave)
	b.onFailure(opLoad)
}

// gateStore is a MemStore whose Save and Load paths can independently
// be switched to fail, modeling partial or total store outages.
type gateStore struct {
	mem      *MemStore
	failSave atomic.Bool
	failLoad atomic.Bool
	saves    atomic.Int64
}

var errStoreDown = errors.New("store down")

func (s *gateStore) Save(stream string, snap []byte) error {
	s.saves.Add(1)
	if s.failSave.Load() {
		return errStoreDown
	}
	return s.mem.Save(stream, snap)
}

func (s *gateStore) Load(dst []byte, stream string) ([]byte, bool, error) {
	if s.failLoad.Load() {
		return nil, false, errStoreDown
	}
	return s.mem.Load(dst, stream)
}

// TestBreakerSuspendsEviction is the degradation acceptance test: a
// store outage trips the breaker, eviction is suspended (residents
// overshoot MaxResident, tracked by Metrics), and after recovery the
// half-open probe restores normal eviction — all on a fake clock.
func TestBreakerSuspendsEviction(t *testing.T) {
	clock := newFakeClock()
	store := &gateStore{mem: NewMemStore()}
	var mu sync.Mutex
	got := make(map[string][]int)
	f := New(Config{
		Shards:      1,
		Tracker:     testConfig(),
		Store:       store,
		MaxResident: 2,
		Breaker:     BreakerPolicy{Threshold: 3, Cooldown: time.Minute},
		Now:         clock.Now,
		Sleep:       func(time.Duration) { t.Error("retry slept with no retries configured") },
		OnInterval: func(stream string, res core.IntervalResult) {
			mu.Lock()
			got[stream] = append(got[stream], res.PhaseID)
			mu.Unlock()
		},
	})

	send := func(names ...string) {
		for _, name := range names {
			evs, cycles := synthStream(0xb4ea6e4+uint64(name[len(name)-1]), 1200)
			for _, b := range batches(name, evs, cycles) {
				f.Send(b)
			}
		}
		f.Flush() // barrier: everything applied before we assert
	}

	// Healthy: two streams fill the resident quota exactly.
	send("s-a", "s-b")
	if r := f.Resident(); r != 2 {
		t.Fatalf("resident = %d before outage, want 2", r)
	}

	// Disk-full outage: saves fail, loads keep working. Each new stream
	// triggers an eviction attempt whose save fails (tracker kept
	// resident, residency overshoots); after Threshold consecutive save
	// failures the breaker opens — interleaved load successes must not
	// reset the streak.
	store.failSave.Store(true)
	send("s-c", "s-d", "s-e")
	m := f.Metrics()
	if m.BreakerTrips != 1 {
		t.Fatalf("breaker trips = %d during outage, want 1", m.BreakerTrips)
	}
	savesAtTrip := store.saves.Load()
	send("s-f", "s-g")
	if n := store.saves.Load(); n != savesAtTrip {
		t.Fatalf("open breaker let %d eviction saves through", n-savesAtTrip)
	}
	m = f.Metrics()
	if m.SuspendedEvictions == 0 {
		t.Fatal("no eviction passes were recorded as suspended")
	}
	// c and d became resident before the trip (their failed evictions
	// kept the victims live too): 2 healthy + c + d. Streams arriving
	// after the trip fast-fail rehydration instead — degraded loudly,
	// not silently.
	if f.Resident() != 4 || m.Overshoot != 2 {
		t.Fatalf("resident=%d overshoot=%d during outage, want 4 and 2 (degradation keeps trackers live)",
			f.Resident(), m.Overshoot)
	}
	if m.BreakerFastFails == 0 || m.DroppedBatches == 0 {
		t.Fatalf("post-trip degradation not recorded: fastFails=%d dropped=%d",
			m.BreakerFastFails, m.DroppedBatches)
	}
	for _, name := range []string{"s-e", "s-f", "s-g"} {
		if err := f.StreamErr(name); !errors.Is(err, ErrStoreUnavailable) {
			t.Fatalf("StreamErr(%s) = %v, want ErrStoreUnavailable", name, err)
		}
	}
	if err := f.Err(); !errors.Is(err, errStoreDown) || !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("outage error chain wrong: %v", err)
	}

	// Recovery: heal the store, let the cooldown elapse. The next
	// eviction attempt is the half-open probe; its success closes the
	// breaker and normal eviction resumes, draining the overshoot.
	store.failSave.Store(false)
	clock.Advance(time.Minute + time.Second)
	send("s-h")
	m = f.Metrics()
	if m.Overshoot != 0 {
		t.Fatalf("overshoot = %d after recovery, want 0", m.Overshoot)
	}
	if r := f.Resident(); r > 2 {
		t.Fatalf("resident = %d after recovery, want <= 2", r)
	}
	if store.mem.Len() == 0 {
		t.Fatal("nothing was evicted to the store after recovery")
	}
	defer f.Close()

	// Degradation must never have cost correctness. The chaos
	// invariant: StreamErr == nil means the stream's phase sequence is
	// byte-identical to a bare Tracker run of the same batches.
	for _, name := range []string{"s-a", "s-b", "s-c", "s-d", "s-h"} {
		if err := f.StreamErr(name); err != nil {
			t.Fatalf("healthy stream %s has latched error: %v", name, err)
		}
		evs, cycles := synthStream(0xb4ea6e4+uint64(name[len(name)-1]), 1200)
		want := phasesViaTracker(batches(name, evs, cycles))
		if len(got[name]) != len(want) {
			t.Fatalf("stream %s: %d intervals, want %d", name, len(got[name]), len(want))
		}
		for i := range want {
			if got[name][i] != want[i] {
				t.Fatalf("stream %s interval %d: phase %d, want %d", name, i, got[name][i], want[i])
			}
		}
	}
	// Streams that arrived while the breaker was open lost their batches
	// to fast-fails — loudly: the error stays latched forever.
	for _, name := range []string{"s-e", "s-f", "s-g"} {
		if err := f.StreamErr(name); err == nil {
			t.Fatalf("degraded stream %s reports healthy despite dropped batches", name)
		}
		if len(got[name]) != 0 {
			t.Fatalf("degraded stream %s produced %d intervals from dropped batches", name, len(got[name]))
		}
	}
}
