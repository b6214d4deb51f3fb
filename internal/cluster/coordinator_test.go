package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"phasekit/internal/core"
	"phasekit/internal/fleet"
	"phasekit/internal/trace"
)

func coordTrackerConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.IntervalInstrs = 10_000
	cfg.Classifier.Adaptive = false
	return cfg
}

// streamOwnedBy searches deterministic stream names until one is owned
// by the given node under r.
func streamOwnedBy(t *testing.T, r *Ring, id string) string {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		name := fmt.Sprintf("stream-%d", i)
		if r.Owner(name).ID == id {
			return name
		}
	}
	t.Fatalf("no stream owned by %q in 10k candidates", id)
	return ""
}

func feedStream(t *testing.T, f *fleet.Fleet, stream string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		err := f.Send(fleet.Batch{
			Stream: stream,
			Events: []trace.BranchEvent{{PC: 0x400000 + uint64(i%16)*64, Instrs: 100}},
		})
		if err != nil {
			t.Fatalf("feed %q: %v", stream, err)
		}
	}
}

// flakySaveStore fails its first Save, the shape of a store with a
// transient outage.
type flakySaveStore struct {
	*fleet.MemStore
	failed atomic.Bool
}

func (s *flakySaveStore) Save(stream string, snap []byte) error {
	if s.failed.CompareAndSwap(false, true) {
		return errors.New("transient store outage")
	}
	return s.MemStore.Save(stream, snap)
}

// TestCoordinatorMigratesThroughStore pins the one migration path: a
// stream the new ring assigns elsewhere is detached and its snapshot
// lands in the shared fenced store — through a retry when the first
// save fails — and the stream leaves this fleet. No peer is contacted:
// the new owner rehydrates from the store.
func TestCoordinatorMigratesThroughStore(t *testing.T) {
	inner := &flakySaveStore{MemStore: fleet.NewMemStore()}
	fence := NewFencedStore(inner, 1)
	f := fleet.New(fleet.Config{Shards: 2, Tracker: coordTrackerConfig(), Store: fence})
	defer f.Close()

	self := Node{ID: "n1", Addr: "127.0.0.1:1"}
	ring1 := mustRing(t, 1, []Node{self})
	co, err := NewCoordinator(CoordinatorConfig{
		Self: self, Fleet: f, Initial: ring1, Fence: fence, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Port 1 refuses connections: nothing may need to reach the peer.
	ghost := Node{ID: "ghost", Addr: "127.0.0.1:1"}
	ring2, err := ring1.WithJoin(ghost)
	if err != nil {
		t.Fatal(err)
	}
	s := streamOwnedBy(t, ring2, "ghost")
	feedStream(t, f, s, 300)

	changed, err := co.ApplyAssign(ring2)
	if err != nil || !changed {
		t.Fatalf("ApplyAssign: changed=%v err=%v", changed, err)
	}
	if co.Epoch() != 2 || fence.Epoch() != 2 {
		t.Fatalf("epochs after flip: ring %d, fence %d", co.Epoch(), fence.Epoch())
	}
	if !inner.failed.Load() {
		t.Fatal("the store's first save never ran")
	}
	// The stream migrated out of the fleet and into the store.
	if !f.Detached(s) {
		t.Fatalf("stream %q still accepted after migration", s)
	}
	snap, ok, err := fence.Load(nil, s)
	if err != nil || !ok || len(snap) == 0 {
		t.Fatalf("migrated snapshot: ok=%v len=%d err=%v", ok, len(snap), err)
	}
	if m := f.Metrics(); m.Detaches != 1 || m.Adopts != 0 {
		t.Fatalf("fleet after migration: %d detaches, %d adopts; want 1, 0 (no local re-adopt)", m.Detaches, m.Adopts)
	}
	// The entry-check answer for the migrated stream is now "redirect".
	if addr, remote := co.OwnerIfRemote([]byte(s)); !remote || addr != ghost.Addr {
		t.Fatalf("OwnerIfRemote(%q) = %q,%v after migration", s, addr, remote)
	}

	// The new owner resumes the stream bit-identically from the store.
	f2 := fleet.New(fleet.Config{Shards: 1, Tracker: coordTrackerConfig(), Store: NewFencedStore(inner, 2)})
	defer f2.Close()
	ref := fleet.New(fleet.Config{Shards: 1, Tracker: coordTrackerConfig()})
	defer ref.Close()
	feedStream(t, ref, s, 300)
	for _, fl := range []*fleet.Fleet{f2, ref} {
		if err := fl.Send(fleet.Batch{Stream: s, Events: []trace.BranchEvent{{PC: 0x480000, Instrs: 100}}}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := f2.DetachStream(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.DetachStream(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("stream rehydrated from the store diverged from an unmigrated run")
	}
}

// TestCoordinatorLeaveMigratesThenFlips pins the departed node's side
// of a live leave: the first push of a ring without this node saves
// every stream to the store but keeps the old ring, so its batches are
// held rather than redirected to survivors still on that ring; a second
// push of the same epoch flips it.
func TestCoordinatorLeaveMigratesThenFlips(t *testing.T) {
	fence := NewFencedStore(fleet.NewMemStore(), 2)
	f := fleet.New(fleet.Config{Shards: 1, Tracker: coordTrackerConfig(), Store: fence})
	defer f.Close()
	self := Node{ID: "n2", Addr: "127.0.0.1:2"}
	peer := Node{ID: "n1", Addr: "127.0.0.1:1"}
	ring2 := mustRing(t, 2, []Node{peer, self})
	co, err := NewCoordinator(CoordinatorConfig{Self: self, Fleet: f, Initial: ring2, Fence: fence, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	s := streamOwnedBy(t, ring2, "n2")
	feedStream(t, f, s, 300)

	ring3 := mustRing(t, 3, []Node{peer})
	if changed, err := co.ApplyAssign(ring3); changed || err != nil {
		t.Fatalf("first push: changed=%v err=%v, want a migration without a flip", changed, err)
	}
	if co.Epoch() != 2 {
		t.Fatalf("first push flipped the ring to epoch %d", co.Epoch())
	}
	if _, ok, err := fence.Load(nil, s); !ok || err != nil {
		t.Fatalf("stream not saved on the first push: ok=%v err=%v", ok, err)
	}
	if _, remote := co.OwnerIfRemote([]byte(s)); remote {
		t.Fatal("departed node redirects before the survivors flipped")
	}
	if err := f.Send(fleet.Batch{Stream: s, Events: []trace.BranchEvent{{PC: 0x400000, Instrs: 10}}}); !errors.Is(err, fleet.ErrNotOwned) {
		t.Fatalf("batch after the first push: %v, want ErrNotOwned (held by the detach fence)", err)
	}

	if changed, err := co.ApplyAssign(ring3); !changed || err != nil {
		t.Fatalf("second push: changed=%v err=%v, want the flip", changed, err)
	}
	if addr, remote := co.OwnerIfRemote([]byte(s)); !remote || addr != peer.Addr {
		t.Fatalf("after the flip OwnerIfRemote = %q,%v, want %q", addr, remote, peer.Addr)
	}
	if m := f.Metrics(); m.Detaches != 1 {
		t.Fatalf("detaches = %d, want 1", m.Detaches)
	}
}

// TestCoordinatorApplyAssignValidation pins the epoch discipline shared
// with State.Advance: idempotent replays are no-ops, stale or
// conflicting assignments are refused and counted.
func TestCoordinatorApplyAssignValidation(t *testing.T) {
	f := fleet.New(fleet.Config{Shards: 1, Tracker: coordTrackerConfig()})
	defer f.Close()
	self := Node{ID: "n1", Addr: "127.0.0.1:1"}
	ring2 := mustRing(t, 2, []Node{self, {ID: "n2", Addr: "127.0.0.1:2"}})
	fence := NewFencedStore(fleet.NewMemStore(), 2)
	co, err := NewCoordinator(CoordinatorConfig{Self: self, Fleet: f, Initial: ring2, Fence: fence})
	if err != nil {
		t.Fatal(err)
	}

	if changed, err := co.ApplyAssign(ring2); changed || err != nil {
		t.Fatalf("replay: changed=%v err=%v", changed, err)
	}
	older := mustRing(t, 1, []Node{self})
	if _, err := co.ApplyAssign(older); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("older epoch: %v", err)
	}
	conflict := mustRing(t, 2, []Node{self, {ID: "n3", Addr: "127.0.0.1:3"}})
	if _, err := co.ApplyAssign(conflict); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("same-epoch conflict: %v", err)
	}
	if st := co.Status(); st.StaleAssigns != 2 || st.AssignsApplied != 0 {
		t.Fatalf("status: %+v", st)
	}

	// Config validation.
	if _, err := NewCoordinator(CoordinatorConfig{Fleet: f, Initial: ring2, Fence: fence}); err == nil {
		t.Fatal("missing self accepted")
	}
	if _, err := NewCoordinator(CoordinatorConfig{Self: self, Initial: ring2, Fence: fence}); err == nil {
		t.Fatal("missing fleet accepted")
	}
	if _, err := NewCoordinator(CoordinatorConfig{Self: self, Fleet: f, Initial: ring2}); err == nil {
		t.Fatal("missing shared store accepted")
	}
	if _, err := NewCoordinator(CoordinatorConfig{Self: Node{ID: "nx"}, Fleet: f, Initial: ring2, Fence: fence}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("self outside ring: %v", err)
	}
}

// TestRingInfoRoundTrip pins the wire conversion both ways.
func TestRingInfoRoundTrip(t *testing.T) {
	r := mustRing(t, 7, threeNodes())
	back, err := RingFromInfo(InfoFromRing(r))
	if err != nil {
		t.Fatal(err)
	}
	if back.Epoch() != r.Epoch() || !back.SameMembers(r) {
		t.Fatalf("round trip changed the ring: %d %v vs %d %v",
			back.Epoch(), back.Nodes(), r.Epoch(), r.Nodes())
	}
	for i := 0; i < 100; i++ {
		s := fmt.Sprintf("s%d", i)
		if back.Owner(s) != r.Owner(s) {
			t.Fatalf("owner diverged for %q", s)
		}
	}
}
