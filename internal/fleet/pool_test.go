package fleet

// Tests for the per-shard tracker-shell pool: rehydration must reuse
// shells recycled by eviction (bounding allocation churn on the
// evict/rehydrate ping-pong path) without changing any stream's
// results — the golden eviction tests prove the latter; these pin the
// pooling mechanics.

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"phasekit/internal/core"
	"phasekit/internal/trace"
)

// TestShellPoolRecycles drives two streams through a one-resident
// shard so every batch evicts one stream and rehydrates the other,
// then verifies the shard actually pooled shells and the streams'
// phase sequences match a no-eviction reference run.
func TestShellPoolRecycles(t *testing.T) {
	const rounds = 10
	work := evictionWorkload(2, 2000)

	run := func(cfg Config) map[string][]int {
		var mu sync.Mutex
		got := make(map[string][]int)
		cfg.Tracker = testConfig()
		cfg.OnInterval = func(stream string, res core.IntervalResult) {
			mu.Lock()
			got[stream] = append(got[stream], res.PhaseID)
			mu.Unlock()
		}
		f := New(cfg)
		// Interleave the two streams' batches so residency ping-pongs
		// every send.
		var names []string
		for name := range work {
			names = append(names, name)
		}
		for round := 0; round < rounds; round++ {
			for _, name := range names {
				bs := work[name]
				n := len(bs) / rounds
				for _, b := range bs[round*n : (round+1)*n] {
					f.Send(b)
				}
			}
		}
		f.Flush()
		if err := f.Err(); err != nil {
			t.Fatalf("fleet store error: %v", err)
		}
		var pooled int
		if cfg.MaxResident > 0 {
			f.Close()
			// Workers have exited: shard state is safe to inspect.
			for _, sh := range f.shards {
				pooled += len(sh.free)
			}
			if pooled == 0 {
				t.Error("no tracker shells pooled after evict/rehydrate churn")
			}
		} else {
			f.Close()
		}
		return got
	}

	evicting := run(Config{Shards: 1, Store: NewMemStore(), MaxResident: 1})
	reference := run(Config{Shards: 1})

	for name, want := range reference {
		got := evicting[name]
		if len(got) != len(want) {
			t.Fatalf("stream %q: %d intervals evicting, %d reference", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("stream %q interval %d: phase %d evicting, %d reference", name, i, got[i], want[i])
			}
		}
		if len(want) == 0 {
			t.Fatalf("stream %q: reference produced no intervals; test is vacuous", name)
		}
	}
}

// TestShellPoolSurvivesCorruptRestore pins the error contract: a shell
// whose in-place restore fails holds a partial decode but is left
// reusable — it returns to the pool and the next successful restore
// overwrites every field — and the stream is quarantined exactly as
// before pooling.
func TestShellPoolSurvivesCorruptRestore(t *testing.T) {
	store := NewMemStore()
	cfg := Config{Shards: 1, Store: store, MaxResident: 1, Tracker: testConfig()}
	work := evictionWorkload(2, 2000)
	f := New(cfg)
	var names []string
	for name := range work {
		names = append(names, name)
	}
	// Alternate to force both streams through eviction.
	for i := 0; i < 4; i++ {
		for _, name := range names {
			f.Send(work[name][i])
		}
	}
	f.Flush()

	// Corrupt one stream's snapshot while it is evicted, then touch it:
	// rehydration must fail and quarantine, not fabricate state.
	victim := names[0]
	// Touch the other stream so the victim is the one evicted.
	f.Send(work[names[1]][4])
	f.Flush()
	snap, ok, err := store.Load(nil, victim)
	if !ok || err != nil {
		t.Fatalf("no snapshot for %q: ok=%v err=%v", victim, ok, err)
	}
	// Truncation guarantees a decode failure regardless of layout.
	if err := store.Save(victim, snap[:len(snap)/2]); err != nil {
		t.Fatal(err)
	}
	f.Send(work[victim][5])
	f.Flush()
	if err := f.StreamErr(victim); err == nil {
		t.Fatal("corrupt snapshot did not surface a stream error")
	}
	// The healthy stream must keep classifying through pooled shells.
	f.Send(work[names[1]][5])
	f.Flush()
	if err := f.StreamErr(names[1]); err != nil {
		t.Fatalf("healthy stream reported error: %v", err)
	}
	f.Close()
}

// TestEvictRehydrateAllocs pins the eviction round trip through a
// MemStore at one allocation. With one resident slot and two streams
// alternating batches, every batch evicts one stream (snapshot into the
// shard's buffers, Save over the stored copy in place) and rehydrates
// the other (Load into the shard's load buffer, RestoreInto a pooled
// shell). Once those buffers have grown, the only allocation left is
// the stream name the restored shell adopts.
func TestEvictRehydrateAllocs(t *testing.T) {
	store := &countingStore{MemStore: NewMemStore()}
	f := New(Config{Shards: 1, MaxResident: 1, Store: store, Tracker: testConfig()})
	defer f.Close()
	// Warm both streams' tables over many intervals, then close each
	// stream's open interval, so the measured batches below cross no
	// interval boundary and time the round trip alone.
	work := evictionWorkload(2, 4000)
	names := make([]string, 0, len(work))
	for name := range work {
		names = append(names, name)
	}
	sort.Strings(names)
	for i := range work[names[0]] {
		for _, name := range names {
			if bs := work[name]; i < len(bs) {
				f.Send(bs[i])
			}
		}
	}
	for _, name := range names {
		f.Send(Batch{Stream: name, EndInterval: true})
	}
	f.Flush()

	applied := make(chan struct{}, 1)
	recycle := func() { applied <- struct{}{} }
	events := []trace.BranchEvent{{PC: 0x400000, Instrs: 1}}
	next := 0
	cycle := func() {
		f.Send(Batch{Stream: names[next%2], Events: events, Recycle: recycle})
		<-applied
		next++
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	const rounds = 100
	before := store.loads.Load()
	allocs := mallocsPerCall(rounds, cycle)
	t.Logf("%.3f allocations per evict + rehydrate round trip", allocs)
	if allocs > 1 {
		t.Fatalf("evict + rehydrate round trip made %.3f allocations, want <= 1 (the stream name)", allocs)
	}
	if loads := store.loads.Load() - before; loads < rounds {
		t.Fatalf("%d rehydrations in %d alternating batches: the round trip was not exercised", loads, rounds)
	}
}

// mallocsPerCall calls fn n times at GOMAXPROCS 1 and returns the
// process's heap allocations per call as a fraction, where
// testing.AllocsPerRun rounds down to whole allocations. The window
// counts every goroutine's allocations, so when fn returns only after
// the shard has handed its batch back through Recycle, which
// applyEntry defers past all its work on the batch, the window holds
// the shard's whole round trip. (A closing Flush would add work of its
// own: it closes the streams' open intervals.)
func mallocsPerCall(n int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn() // warm up at this GOMAXPROCS, as AllocsPerRun does
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	start := m.Mallocs
	for range n {
		fn()
	}
	runtime.ReadMemStats(&m)
	return float64(m.Mallocs-start) / float64(n)
}

// countingStore counts a MemStore's loads.
type countingStore struct {
	*MemStore
	loads atomic.Int64
}

func (s *countingStore) Load(dst []byte, stream string) ([]byte, bool, error) {
	s.loads.Add(1)
	return s.MemStore.Load(dst, stream)
}
