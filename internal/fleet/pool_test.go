package fleet

// Tests for the per-shard tracker-shell pool: rehydration must reuse
// shells recycled by eviction (bounding allocation churn on the
// evict/rehydrate ping-pong path) without changing any stream's
// results — the golden eviction tests prove the latter; these pin the
// pooling mechanics.

import (
	"sync"
	"testing"

	"phasekit/internal/core"
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
	snap, ok, err := store.Load(victim)
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
