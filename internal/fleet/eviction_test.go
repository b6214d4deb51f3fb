package fleet

// Tests for LRU eviction to a StateStore and transparent rehydration:
// bounded residency must never change any stream's results, under
// serial load and under concurrent producers/readers (run with -race).

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"phasekit/internal/core"
)

// evictionWorkload builds n streams of batched events with fixed seeds.
func evictionWorkload(n, events int) map[string][]Batch {
	out := make(map[string][]Batch, n)
	for s := 0; s < n; s++ {
		name := fmt.Sprintf("stream-%02d", s)
		evs, cycles := synthStream(0xe51c7+uint64(s), events)
		out[name] = batches(name, evs, cycles)
	}
	return out
}

// maxTracker tracks the maximum of a sampled value.
type maxTracker struct{ v atomic.Int64 }

func (m *maxTracker) observe(x int64) {
	for {
		cur := m.v.Load()
		if x <= cur || m.v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// runEvicting pushes a workload through a Fleet with the given config,
// one producer goroutine per stream, collecting per-stream phase
// sequences and the peak resident-tracker count.
func runEvicting(t *testing.T, work map[string][]Batch, cfg Config) (map[string][]int, int) {
	t.Helper()
	var mu sync.Mutex
	got := make(map[string][]int)
	var peak maxTracker
	var f *Fleet
	cfg.OnInterval = func(stream string, res core.IntervalResult) {
		peak.observe(int64(f.Resident()))
		mu.Lock()
		got[stream] = append(got[stream], res.PhaseID)
		mu.Unlock()
	}
	f = New(cfg)
	var wg sync.WaitGroup
	for _, bs := range work {
		wg.Add(1)
		go func(bs []Batch) {
			defer wg.Done()
			for _, b := range bs {
				f.Send(b)
			}
		}(bs)
	}
	wg.Wait()
	f.Flush()
	peak.observe(int64(f.Resident()))
	if err := f.Err(); err != nil {
		t.Fatalf("fleet store error: %v", err)
	}
	f.Close()
	return got, int(peak.v.Load())
}

// TestEvictionMatchesGolden proves eviction is transparent: a Fleet
// serving 64 streams with only 8 resident trackers produces exactly the
// phase sequences of a bare per-stream Tracker, while never holding
// more than 8 trackers live.
func TestEvictionMatchesGolden(t *testing.T) {
	const streams = 64
	work := evictionWorkload(streams, 3000)
	serial := make(map[string][]int, streams)
	for name, bs := range work {
		serial[name] = phasesViaTracker(bs)
	}
	want := formatPhases(serial)

	for _, limit := range []int{4, 8, 17} {
		store := NewMemStore()
		got, peak := runEvicting(t, work, Config{
			Shards:      4,
			Tracker:     testConfig(),
			Store:       store,
			MaxResident: limit,
		})
		if g := formatPhases(got); g != want {
			t.Fatalf("limit=%d: evicting Fleet diverged from bare Tracker:\n%s", limit, firstDiff(want, g))
		}
		if peak > limit {
			t.Errorf("limit=%d: %d trackers resident at peak", limit, peak)
		}
		if store.Len() == 0 {
			t.Errorf("limit=%d: nothing was ever evicted to the store", limit)
		}
	}
}

// TestEvictionFileStore runs the same transparency check through the
// file-backed store.
func TestEvictionFileStore(t *testing.T) {
	work := evictionWorkload(12, 2000)
	serial := make(map[string][]int, len(work))
	for name, bs := range work {
		serial[name] = phasesViaTracker(bs)
	}
	store, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got, peak := runEvicting(t, work, Config{
		Shards:      2,
		Tracker:     testConfig(),
		Store:       store,
		MaxResident: 3,
	})
	if want := formatPhases(serial); formatPhases(got) != want {
		t.Fatalf("file-store Fleet diverged from bare Tracker:\n%s", firstDiff(want, formatPhases(got)))
	}
	if peak > 3 {
		t.Errorf("%d trackers resident at peak, limit 3", peak)
	}
}

// TestEvictionRace hammers an evicting Fleet from concurrent producers
// while Report and Snapshot peek-rehydrate evicted streams, with a
// resident limit far below the stream count so eviction and rehydration
// churn constantly. Run under -race; results must still match a bare
// Tracker exactly.
func TestEvictionRace(t *testing.T) {
	const (
		streams   = 64
		producers = 8
		limit     = 4 // one resident tracker per shard
	)
	work := evictionWorkload(streams, 1500)
	serial := make(map[string][]int, streams)
	for name, bs := range work {
		serial[name] = phasesViaTracker(bs)
	}

	var mu sync.Mutex
	got := make(map[string][]int)
	var peak maxTracker
	var f *Fleet
	f = New(Config{
		Shards:      4,
		QueueDepth:  4, // tiny queue so backpressure engages
		Tracker:     testConfig(),
		Store:       NewMemStore(),
		MaxResident: limit,
		OnInterval: func(stream string, res core.IntervalResult) {
			peak.observe(int64(f.Resident()))
			mu.Lock()
			got[stream] = append(got[stream], res.PhaseID)
			mu.Unlock()
		},
	})

	var wg sync.WaitGroup
	// Each producer owns an exclusive slice of streams (per-stream send
	// order preserved); different producers interleave freely.
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for s := p; s < streams; s += producers {
				for _, b := range work[fmt.Sprintf("stream-%02d", s)] {
					f.Send(b)
				}
			}
		}(p)
	}

	// Concurrent readers peek at evicted and resident streams alike.
	// Reads must not perturb results, residency, or the store.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			f.Report(fmt.Sprintf("stream-%02d", i%streams))
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			f.Snapshot()
		}
	}()

	wg.Wait()
	close(stop)
	readers.Wait()
	f.Flush()
	peak.observe(int64(f.Resident()))
	if err := f.Err(); err != nil {
		t.Fatalf("fleet store error: %v", err)
	}
	f.Close()

	if want, g := formatPhases(serial), formatPhases(got); g != want {
		t.Fatalf("evicting Fleet under contention diverged from bare Tracker:\n%s", firstDiff(want, g))
	}
	if p := int(peak.v.Load()); p > limit {
		t.Errorf("%d trackers resident at peak, limit %d", p, limit)
	}
}

// TestFlushRehydratesPending pins the partial-interval contract: a
// stream evicted mid-interval still owes that interval, and Flush must
// rehydrate it to close it.
func TestFlushRehydratesPending(t *testing.T) {
	var mu sync.Mutex
	counts := make(map[string]int)
	f := New(Config{
		Shards:      1,
		Tracker:     testConfig(),
		Store:       NewMemStore(),
		MaxResident: 1,
		OnInterval: func(stream string, res core.IntervalResult) {
			mu.Lock()
			counts[stream]++
			mu.Unlock()
		},
	})
	evs, cycles := synthStream(1, 40) // ~40*100 instrs: far below one 10k interval
	f.Send(Batch{Stream: "a", Cycles: cycles[0], Events: evs})
	// Touching b evicts a with its partial interval open.
	f.Send(Batch{Stream: "b", Events: nil})
	f.Flush()
	f.Close()
	if counts["a"] != 1 {
		t.Fatalf("evicted stream a produced %d intervals on Flush, want 1", counts["a"])
	}
}

// TestReportPeeksEvictedStream verifies Report serves evicted streams
// from the store without making them resident.
func TestReportPeeksEvictedStream(t *testing.T) {
	f := New(Config{
		Shards:      1,
		Tracker:     testConfig(),
		Store:       NewMemStore(),
		MaxResident: 1,
	})
	defer f.Close()
	evsA, cycA := synthStream(2, 4000)
	for _, b := range batches("a", evsA, cycA) {
		f.Send(b)
	}
	f.Send(Batch{Stream: "b", Events: nil}) // evicts a
	rep, ok := f.Report("a")
	if !ok {
		t.Fatal("evicted stream not found by Report")
	}
	if rep.Intervals == 0 {
		t.Fatal("evicted stream's report lost its intervals")
	}
	if r := f.Resident(); r > 1 {
		t.Fatalf("Report made an evicted stream resident: %d live", r)
	}
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateResident covers the eviction configuration rules.
func TestValidateResident(t *testing.T) {
	base := Config{Shards: 4, Tracker: testConfig()}

	noStore := base
	noStore.MaxResident = 8
	if err := noStore.Validate(); err == nil {
		t.Error("MaxResident without a Store accepted")
	}
	tooSmall := base
	tooSmall.MaxResident = 2
	tooSmall.Store = NewMemStore()
	if err := tooSmall.Validate(); err == nil {
		t.Error("MaxResident below shard count accepted")
	}
	negative := base
	negative.MaxResident = -1
	if err := negative.Validate(); err == nil {
		t.Error("negative MaxResident accepted")
	}
	ok := base
	ok.MaxResident = 4
	ok.Store = NewMemStore()
	if err := ok.Validate(); err != nil {
		t.Errorf("valid eviction config rejected: %v", err)
	}
}

// TestSaveFailureKeepsTrackerResident pins the store error policy: if a
// snapshot cannot be saved, the tracker must stay live (state is never
// dropped) and the failure must surface through Err.
func TestSaveFailureKeepsTrackerResident(t *testing.T) {
	var mu sync.Mutex
	got := make(map[string][]int)
	work := evictionWorkload(8, 1500)
	serial := make(map[string][]int, len(work))
	for name, bs := range work {
		serial[name] = phasesViaTracker(bs)
	}
	f := New(Config{
		Shards:      1,
		Tracker:     testConfig(),
		Store:       failingStore{},
		MaxResident: 1,
		OnInterval: func(stream string, res core.IntervalResult) {
			mu.Lock()
			got[stream] = append(got[stream], res.PhaseID)
			mu.Unlock()
		},
	})
	for _, bs := range work {
		for _, b := range bs {
			f.Send(b)
		}
	}
	f.Flush()
	err := f.Err()
	f.Close()
	if err == nil {
		t.Fatal("save failures never surfaced through Err")
	}
	if !errors.Is(err, errSaveFailed) {
		t.Fatalf("Err = %v, want errSaveFailed", err)
	}
	// Results still match: trackers were kept resident instead.
	if want, g := formatPhases(serial), formatPhases(got); g != want {
		t.Fatalf("save failures corrupted results:\n%s", firstDiff(want, g))
	}
}

var errSaveFailed = errors.New("store full")

// failingStore rejects every Save and holds nothing.
type failingStore struct{}

func (failingStore) Save(string, []byte) error                 { return errSaveFailed }
func (failingStore) Load([]byte, string) ([]byte, bool, error) { return nil, false, nil }
