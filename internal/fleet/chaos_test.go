package fleet

// Chaos suite: the fault-injection harness (internal/faults) drives
// the store through every failure mode the fault model claims to
// survive — fail-Nth, fail-rate bursts, torn writes, crashes inside
// the FileStore durability path — and every test proves the same
// golden property: phase sequences stay byte-identical to the no-fault
// run, and no store failure is silently swallowed (each is observable
// via a typed error or a degradation counter).

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phasekit/internal/core"
	"phasekit/internal/faults"
	"phasekit/internal/rng"
	"phasekit/internal/trace"
)

// chaosRun is what one faulted Fleet run observed.
type chaosRun struct {
	phases     map[string][]int
	metrics    MetricsSnapshot
	err        error            // latched Fleet.Err
	streamErrs map[string]error // non-nil StreamErr per stream
	sleeps     int              // backoff sleeps recorded (no real time passed)
}

// runChaos pushes a workload through a Fleet sequentially (one
// producer, so the store's operation order — and therefore the seeded
// fault schedule — is deterministic), collecting phases, errors, and
// metrics. Unlike runEvicting it tolerates store failures: asserting
// on them is the caller's job.
func runChaos(t *testing.T, work map[string][]Batch, cfg Config) chaosRun {
	t.Helper()
	var mu sync.Mutex
	r := chaosRun{phases: make(map[string][]int), streamErrs: make(map[string]error)}
	var sleeps atomic.Int64
	cfg.Sleep = func(time.Duration) { sleeps.Add(1) }
	cfg.OnInterval = func(stream string, res core.IntervalResult) {
		mu.Lock()
		r.phases[stream] = append(r.phases[stream], res.PhaseID)
		mu.Unlock()
	}
	f := New(cfg)
	names := sortedNames(work)
	for _, name := range names {
		for _, b := range work[name] {
			f.Send(b)
		}
	}
	f.Flush()
	for _, name := range names {
		if err := f.StreamErr(name); err != nil {
			r.streamErrs[name] = err
		}
	}
	r.metrics = f.Metrics()
	r.err = f.Err()
	f.Close()
	r.sleeps = int(sleeps.Load())
	return r
}

func sortedNames(work map[string][]Batch) []string {
	names := make([]string, 0, len(work))
	for name := range work {
		names = append(names, name)
	}
	// Insertion sort: tiny n, avoids importing sort twice.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// serialReference runs every stream through a bare Tracker.
func serialReference(work map[string][]Batch) map[string][]int {
	out := make(map[string][]int, len(work))
	for name, bs := range work {
		out[name] = phasesViaTracker(bs)
	}
	return out
}

// assertGolden fails unless every stream's phase sequence matches the
// serial no-fault reference byte for byte.
func assertGolden(t *testing.T, want map[string][]int, r chaosRun) {
	t.Helper()
	if g, w := formatPhases(r.phases), formatPhases(want); g != w {
		t.Fatalf("faulted Fleet diverged from no-fault run:\n%s", firstDiff(w, g))
	}
}

// chaosConfig is the shared faulted-Fleet shape: one shard and a tight
// resident limit so eviction and rehydration churn constantly, with
// retries generous enough to mask every scheduled burst.
func chaosConfig(store StateStore, retries int) Config {
	return Config{
		Shards:      1,
		Tracker:     testConfig(),
		Store:       store,
		MaxResident: 2,
		Retry:       RetryPolicy{MaxRetries: retries, Backoff: time.Millisecond},
	}
}

// TestChaosFailNth: specific store operations fail exactly once each;
// retries mask every one of them.
func TestChaosFailNth(t *testing.T) {
	work := evictionWorkload(8, 2000)
	want := serialReference(work)
	inner := NewMemStore()
	store := faults.Wrap(inner, faults.Schedule{FailNth: []int{1, 2, 5, 9, 20, 33, 34, 50}})
	r := runChaos(t, work, chaosConfig(store, 3))

	assertGolden(t, want, r)
	if r.err != nil {
		t.Fatalf("masked faults still latched an error: %v", r.err)
	}
	if len(r.streamErrs) != 0 {
		t.Fatalf("masked faults left stream errors: %v", r.streamErrs)
	}
	if got := r.metrics.SaveRetries + r.metrics.LoadRetries; got == 0 {
		t.Fatal("no retries recorded: faults were not exercised")
	}
	if inj, _ := store.Injected(); inj == 0 {
		t.Fatal("harness injected nothing")
	}
	if r.metrics.DroppedBatches != 0 {
		t.Fatalf("%d batches dropped under maskable faults", r.metrics.DroppedBatches)
	}
	if r.sleeps == 0 {
		t.Fatal("retries never backed off")
	}
}

// TestChaosFailRate: seeded random failure bursts, burst length within
// the retry budget, so every fault is masked. The single-shard
// single-producer run makes the op order — and so the schedule — fully
// deterministic.
func TestChaosFailRate(t *testing.T) {
	work := evictionWorkload(8, 2000)
	want := serialReference(work)
	store := faults.Wrap(NewMemStore(), faults.Schedule{Seed: 0xc4a05, FailRate: 0.10, Burst: 3})
	r := runChaos(t, work, chaosConfig(store, 10))

	assertGolden(t, want, r)
	if r.metrics.DroppedBatches != 0 {
		t.Fatalf("%d batches dropped (burst exceeded the retry budget?)", r.metrics.DroppedBatches)
	}
	if len(r.streamErrs) != 0 {
		t.Fatalf("stream errors under masked fail-rate: %v", r.streamErrs)
	}
	if inj, _ := store.Injected(); inj == 0 {
		t.Fatal("schedule injected nothing at 10% fail rate")
	}
	if got := r.metrics.SaveRetries + r.metrics.LoadRetries; got == 0 {
		t.Fatal("no retries recorded")
	}
}

// TestChaosTornWrite: scheduled saves persist a truncated payload and
// report failure. The retry rewrites the full payload, and because a
// failed save keeps the tracker resident, the torn bytes are never
// rehydrated — sequences stay golden.
func TestChaosTornWrite(t *testing.T) {
	work := evictionWorkload(8, 2000)
	want := serialReference(work)
	store := faults.Wrap(NewMemStore(), faults.Schedule{TornNth: []int{3, 7, 15, 27}})
	r := runChaos(t, work, chaosConfig(store, 2))

	assertGolden(t, want, r)
	if _, torn := store.Injected(); torn == 0 {
		t.Fatal("no torn writes injected")
	}
	if len(r.streamErrs) != 0 || r.metrics.DroppedBatches != 0 {
		t.Fatalf("torn writes leaked: streamErrs=%v dropped=%d", r.streamErrs, r.metrics.DroppedBatches)
	}
}

// TestChaosLatency: injected store latency must change nothing but
// timing — and with an injectable sleeper, not even that.
func TestChaosLatency(t *testing.T) {
	work := evictionWorkload(4, 1500)
	want := serialReference(work)
	var slept atomic.Int64
	store := faults.Wrap(NewMemStore(), faults.Schedule{Latency: time.Second, LatencyEvery: 3})
	store.Sleeper = func(time.Duration) { slept.Add(1) }
	r := runChaos(t, work, chaosConfig(store, 0))

	assertGolden(t, want, r)
	if slept.Load() == 0 {
		t.Fatal("latency injection never fired")
	}
	if r.err != nil {
		t.Fatalf("latency injection caused an error: %v", r.err)
	}
}

// TestChaosPersistentSaveFailure: one fault the retries cannot mask —
// every save fails forever. The Fleet must degrade (trackers stay
// resident; nothing evicts) yet stay byte-identical, with the failure
// loudly observable.
func TestChaosPersistentSaveFailure(t *testing.T) {
	work := evictionWorkload(8, 1500)
	want := serialReference(work)
	store := &gateStore{mem: NewMemStore()}
	store.failSave.Store(true)
	cfg := chaosConfig(store, 2)
	r := runChaos(t, work, cfg)

	assertGolden(t, want, r)
	if r.err == nil {
		t.Fatal("persistent save failure never surfaced through Err")
	}
	if !errors.Is(r.err, ErrStoreUnavailable) || !errors.Is(r.err, errStoreDown) {
		t.Fatalf("error chain wrong: %v", r.err)
	}
	if !strings.Contains(r.err.Error(), `save:`) || !strings.Contains(r.err.Error(), `stream "`) {
		t.Fatalf("Err does not name the stream and operation: %v", r.err)
	}
	if r.metrics.SaveFailures == 0 {
		t.Fatal("save failures not counted")
	}
	if r.metrics.DroppedBatches != 0 {
		t.Fatalf("%d batches dropped: save failures must keep trackers resident, not lose data", r.metrics.DroppedBatches)
	}
}

// TestChaosFileStoreCrash: crashes injected at each durability step of
// FileStore.Save (before fsync, before rename, before the directory
// fsync). Every crash fails the save, the tracker stays resident, the
// retry completes the write — and the on-disk store never holds a
// decodable-but-wrong snapshot.
func TestChaosFileStoreCrash(t *testing.T) {
	store, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fs := &faults.FS{
		CrashBeforeSync:    []int{2},
		CrashBeforeRename:  []int{4},
		CrashBeforeDirSync: []int{6},
	}
	store.SetHooks(FileHooks{
		BeforeSync:    fs.BeforeSync,
		BeforeRename:  fs.BeforeRename,
		BeforeDirSync: fs.BeforeDirSync,
	})
	work := evictionWorkload(8, 2000)
	want := serialReference(work)
	r := runChaos(t, work, chaosConfig(store, 2))

	assertGolden(t, want, r)
	if fs.Crashes() != 3 {
		t.Fatalf("%d crashes fired, want 3", fs.Crashes())
	}
	if len(r.streamErrs) != 0 || r.metrics.DroppedBatches != 0 {
		t.Fatalf("crash injection leaked: streamErrs=%v dropped=%d", r.streamErrs, r.metrics.DroppedBatches)
	}
	if r.metrics.SaveRetries == 0 {
		t.Fatal("crashed saves were not retried")
	}
}

// TestCorruptSnapshotQuarantine seeds the store with damaged payloads
// (bit-flipped and truncated) for one evicted stream, then proves the
// Fleet quarantines exactly that stream with a typed error, drops (and
// counts) its batches, and keeps every other stream bit-identical.
func TestCorruptSnapshotQuarantine(t *testing.T) {
	for _, mode := range []struct {
		name string
		flip bool
	}{{"bitflip", true}, {"truncated", false}} {
		t.Run(mode.name, func(t *testing.T) {
			work := evictionWorkload(6, 2000)
			want := serialReference(work)
			names := sortedNames(work)

			// Phase 1: run half of every stream's batches through an
			// evicting fleet sharing one store, then stop.
			store := NewMemStore()
			var mu sync.Mutex
			got := make(map[string][]int)
			cfg := chaosConfig(store, 0)
			cfg.Sleep = func(time.Duration) {}
			cfg.OnInterval = func(stream string, res core.IntervalResult) {
				mu.Lock()
				got[stream] = append(got[stream], res.PhaseID)
				mu.Unlock()
			}
			f := New(cfg)
			half := make(map[string]int, len(names))
			for _, name := range names {
				half[name] = len(work[name]) / 2
				for _, b := range work[name][:half[name]] {
					f.Send(b)
				}
			}
			// Park the victim in the store: touching every other stream
			// evicts the LRU, and the victim's snapshot is then damaged
			// behind the Fleet's back.
			victim := names[0]
			for _, name := range names[1:] {
				f.Send(Batch{Stream: name})
			}
			if !store.Corrupt(victim, 0, mode.flip) {
				t.Fatalf("victim %s was not in the store", victim)
			}

			// Phase 2: the rest of the workload. The victim's first
			// batch forces a rehydration from the damaged snapshot.
			for _, name := range names {
				for _, b := range work[name][half[name]:] {
					f.Send(b)
				}
			}
			f.Flush()
			verr := f.StreamErr(victim)
			m := f.Metrics()
			ferr := f.Err()

			// Quarantined streams still answer Report without panicking.
			if _, ok := f.Report(victim); !ok {
				t.Fatal("quarantined stream vanished from Report")
			}
			f.Close()

			if verr == nil || !errors.Is(verr, ErrSnapshotCorrupt) {
				t.Fatalf("victim error = %v, want ErrSnapshotCorrupt", verr)
			}
			if !strings.Contains(verr.Error(), fmt.Sprintf("stream %q: load", victim)) {
				t.Fatalf("victim error does not name stream and op: %v", verr)
			}
			if m.QuarantinedStreams != 1 {
				t.Fatalf("QuarantinedStreams = %d, want 1", m.QuarantinedStreams)
			}
			if m.DroppedBatches == 0 {
				t.Fatal("quarantine dropped no batches (they went somewhere)")
			}
			if ferr == nil || !errors.Is(ferr, ErrSnapshotCorrupt) {
				t.Fatalf("Err() = %v, want ErrSnapshotCorrupt in the chain", ferr)
			}
			// The victim's already-classified prefix survived; nothing
			// fabricated was appended after the corruption.
			if len(got[victim]) >= len(want[victim]) {
				t.Fatalf("victim produced %d intervals after quarantine, want fewer than %d", len(got[victim]), len(want[victim]))
			}
			for i, id := range got[victim] {
				if id != want[victim][i] {
					t.Fatalf("victim prefix diverged at interval %d", i)
				}
			}
			// Every healthy stream is bit-identical.
			for _, name := range names[1:] {
				if len(got[name]) != len(want[name]) {
					t.Fatalf("healthy stream %s: %d intervals, want %d", name, len(got[name]), len(want[name]))
				}
				for i := range want[name] {
					if got[name][i] != want[name][i] {
						t.Fatalf("healthy stream %s diverged at interval %d", name, i)
					}
				}
			}
		})
	}
}

// TestStreamErrLatchesAfterDrop pins the StreamErr contract: once a
// batch is dropped, the stream's error survives later successful store
// operations, so StreamErr == nil always means "sequence complete".
func TestStreamErrLatchesAfterDrop(t *testing.T) {
	store := &gateStore{mem: NewMemStore()}
	f := New(Config{
		Shards:      1,
		Tracker:     testConfig(),
		Store:       store,
		MaxResident: 1,
	})
	defer f.Close()
	evs, cycles := synthStream(7, 1200)
	for _, b := range batches("a", evs, cycles) {
		f.Send(b)
	}
	f.Flush() // close a's partial interval while the store is healthy
	// Touching b evicts a — now at an interval boundary, so the next
	// Flush has nothing to rehydrate and a stays evicted.
	f.Send(Batch{Stream: "b", Events: []trace.BranchEvent{{PC: 0x400000, Instrs: 100}}})
	f.Flush()

	// Outage on load: a's next batch cannot rehydrate and is dropped.
	store.failLoad.Store(true)
	f.Send(Batch{Stream: "a", Events: []trace.BranchEvent{{PC: 0x400000, Instrs: 100}}})
	f.Flush()
	if err := f.StreamErr("a"); !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("StreamErr after drop = %v, want ErrStoreUnavailable", err)
	}

	// Store heals; a rehydrates and processes again — but the latched
	// error must survive, because a batch is missing forever.
	store.failLoad.Store(false)
	f.Send(Batch{Stream: "a", Events: []trace.BranchEvent{{PC: 0x400000, Instrs: 100}}})
	f.Flush()
	if err := f.StreamErr("a"); err == nil {
		t.Fatal("StreamErr cleared after a drop: incomplete sequence reported as healthy")
	}
	if f.Metrics().DroppedBatches != 1 {
		t.Fatalf("DroppedBatches = %d, want 1", f.Metrics().DroppedBatches)
	}
}

// TestErrTyping pins errors.Is/As behavior through the full wrap chain
// (stream + op + typed class + store-specific cause).
func TestErrTyping(t *testing.T) {
	store := &typedFailStore{}
	f := New(Config{
		Shards:      1,
		Tracker:     testConfig(),
		Store:       store,
		MaxResident: 1,
	})
	evs, cycles := synthStream(3, 1500)
	for _, b := range batches("a", evs, cycles) {
		f.Send(b)
	}
	f.Send(Batch{Stream: "b"}) // eviction attempt → typed save failure
	f.Flush()
	err := f.Err()
	f.Close()

	if err == nil {
		t.Fatal("no error latched")
	}
	if !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("errors.Is(err, ErrStoreUnavailable) = false: %v", err)
	}
	var diskErr *diskFullError
	if !errors.As(err, &diskErr) {
		t.Fatalf("errors.As failed to recover the store's typed cause: %v", err)
	}
	if diskErr.Free != 42 {
		t.Fatalf("typed cause lost its payload: %+v", diskErr)
	}
	if !strings.Contains(err.Error(), `stream "a": save:`) {
		t.Fatalf("error does not name stream and operation: %v", err)
	}
}

type diskFullError struct{ Free int }

func (e *diskFullError) Error() string { return fmt.Sprintf("disk full (%d bytes free)", e.Free) }

type typedFailStore struct{}

func (typedFailStore) Save(string, []byte) error                 { return &diskFullError{Free: 42} }
func (typedFailStore) Load([]byte, string) ([]byte, bool, error) { return nil, false, nil }

// TestRejectOverload stresses the Reject overload policy under the
// race detector: concurrent producers against a tiny queue, with exact
// accounting — every batch is either processed or returned as
// ErrOverloaded, never both, never neither.
func TestRejectOverload(t *testing.T) {
	const producers = 8
	const perProducer = 2000
	var intervals atomic.Int64
	f := New(Config{
		Shards:     2,
		QueueDepth: 1,
		Overload:   OverloadReject,
		Tracker:    testConfig(),
		OnInterval: func(string, core.IntervalResult) { intervals.Add(1) },
	})
	var accepted, rejected atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			name := fmt.Sprintf("stream-%02d", p)
			for i := 0; i < perProducer; i++ {
				// One event per batch with a forced boundary: every
				// accepted batch becomes exactly one interval.
				err := f.Send(Batch{
					Stream:      name,
					Events:      []trace.BranchEvent{{PC: 0x400000 + uint64(i%64)*64, Instrs: 100}},
					EndInterval: true,
				})
				if err == nil {
					accepted.Add(1)
				} else if errors.Is(err, ErrOverloaded) {
					rejected.Add(1)
				} else {
					t.Errorf("Send returned unexpected error: %v", err)
				}
			}
		}(p)
	}
	wg.Wait()
	f.Flush()
	m := f.Metrics()
	f.Close()

	if accepted.Load()+rejected.Load() != producers*perProducer {
		t.Fatalf("accounting broken: %d accepted + %d rejected != %d sent",
			accepted.Load(), rejected.Load(), producers*perProducer)
	}
	if rejected.Load() == 0 {
		t.Fatal("queue depth 1 with 8 producers never rejected: policy not engaged")
	}
	if intervals.Load() != accepted.Load() {
		t.Fatalf("%d intervals processed, %d batches accepted", intervals.Load(), accepted.Load())
	}
	if m.RejectedBatches != uint64(rejected.Load()) {
		t.Fatalf("RejectedBatches metric %d != observed %d", m.RejectedBatches, rejected.Load())
	}
}

// TestRetrierHealthyPathAllocs pins the acceptance bound: the retry
// and breaker wrappers add zero allocations when the store is healthy.
func TestRetrierHealthyPathAllocs(t *testing.T) {
	var trips atomic.Uint64
	m := &metrics{}
	r := &retrier{
		store:   nullStore{},
		policy:  RetryPolicy{MaxRetries: 3}.withDefaults(),
		breaker: newBreaker(BreakerPolicy{Threshold: 3, Cooldown: time.Minute}, time.Now, &trips),
		sleep:   func(time.Duration) {},
		metrics: m,
	}
	x := rng.NewXoshiro256(1)
	buf := make([]byte, 512)
	allocs := testing.AllocsPerRun(1000, func() {
		if err := r.save(x, "stream", buf); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.load(x, buf, "stream"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("healthy save+load path allocates %.1f times per op, want 0", allocs)
	}
}

type nullStore struct{}

func (nullStore) Save(string, []byte) error                 { return nil }
func (nullStore) Load([]byte, string) ([]byte, bool, error) { return nil, false, nil }
