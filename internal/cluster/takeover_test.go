package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"phasekit/internal/fleet"
)

// TestFencedStoreConcurrentTakeoverOneWinner races two writers at
// adjacent epochs — the exact shape of a takeover where the old owner
// is still alive — over one shared store. Whatever the interleaving,
// the store must converge to the higher epoch's payload, and the lower
// epoch's writer must never be the final state. Over a FileStore each
// writer has its own handle on the shared directory, as two nodes
// would.
func TestFencedStoreConcurrentTakeoverOneWinner(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		open func(t *testing.T, round int) (a, b fleet.StateStore)
	}{
		{"MemStore", func(*testing.T, int) (a, b fleet.StateStore) {
			mem := fleet.NewMemStore()
			return mem, mem
		}},
		{"FileStore", func(t *testing.T, round int) (a, b fleet.StateStore) {
			d := filepath.Join(dir, fmt.Sprint(round))
			fa, err := fleet.NewFileStore(d)
			if err != nil {
				t.Fatal(err)
			}
			fb, err := fleet.NewFileStore(d)
			if err != nil {
				t.Fatal(err)
			}
			return fa, fb
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { concurrentTakeoverOneWinner(t, tc.open) })
	}
}

func concurrentTakeoverOneWinner(t *testing.T, open func(t *testing.T, round int) (a, b fleet.StateStore)) {
	for round := 0; round < 50; round++ {
		a, b := open(t, round)
		oldOwner := NewFencedStore(a, 4)
		newOwner := NewFencedStore(b, 5)
		oldSnap := []byte("payload-from-epoch-4")
		newSnap := []byte("payload-from-epoch-5")

		var wg sync.WaitGroup
		var oldErr, newErr error
		wg.Add(2)
		go func() { defer wg.Done(); oldErr = oldOwner.Save("s", oldSnap) }()
		go func() { defer wg.Done(); newErr = newOwner.Save("s", newSnap) }()
		wg.Wait()

		if newErr != nil {
			t.Fatalf("round %d: higher-epoch writer failed: %v", round, newErr)
		}
		if oldErr != nil {
			// The only acceptable failure is a permanent fence refusal.
			if !errors.Is(oldErr, ErrStaleEpoch) {
				t.Fatalf("round %d: stale writer error: %v", round, oldErr)
			}
			var pe interface{ StorePermanent() bool }
			if !errors.As(oldErr, &pe) || !pe.StorePermanent() {
				t.Fatalf("round %d: fence refusal not marked permanent: %v", round, oldErr)
			}
		}

		epoch, ok, err := newOwner.LoadEpoch("s")
		if err != nil || !ok || epoch != 5 {
			t.Fatalf("round %d: final epoch %d ok=%v err=%v, want 5", round, epoch, ok, err)
		}
		snap, ok, err := newOwner.Load(nil, "s")
		if err != nil || !ok || !bytes.Equal(snap, newSnap) {
			t.Fatalf("round %d: final payload %q ok=%v err=%v, want epoch-5 payload", round, snap, ok, err)
		}
	}
}

// TestFencedStoreZombieRefused is the steady-state (non-racing) half of
// the fencing guarantee: once the new owner has checkpointed at e+1, a
// returning zombie's write at e is refused outright.
func TestFencedStoreZombieRefused(t *testing.T) {
	mem := fleet.NewMemStore()
	zombie := NewFencedStore(mem, 4)
	survivor := NewFencedStore(mem, 5)

	if err := survivor.Save("s", []byte("survivor")); err != nil {
		t.Fatal(err)
	}
	err := zombie.Save("s", []byte("zombie"))
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("zombie write: %v, want ErrStaleEpoch", err)
	}
	snap, _, err := survivor.Load(nil, "s")
	if err != nil || !bytes.Equal(snap, []byte("survivor")) {
		t.Fatalf("payload after zombie attempt: %q err=%v", snap, err)
	}
}
