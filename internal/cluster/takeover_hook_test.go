package cluster

import (
	"testing"

	"phasekit/internal/fleet"
)

// TestTakeoverHookFiresOnRemovedMembers pins the WAL-tail handoff
// contract: the hook attached with AttachTakeoverHook runs exactly when
// an applied assignment removed members, receives their IDs, and runs
// against the already-flipped ring so ownership queries inside it
// answer for the new epoch. Assignments that add members or merely
// re-epoch must not fire it — replaying a live peer's WAL would apply
// records its owner is still serving.
func TestTakeoverHookFiresOnRemovedMembers(t *testing.T) {
	self := Node{ID: "n1", Addr: "127.0.0.1:1"}
	peer := Node{ID: "n2", Addr: "127.0.0.1:2"}
	f := fleet.New(fleet.Config{Shards: 1, Tracker: coordTrackerConfig()})
	defer f.Close()
	co, err := NewCoordinator(CoordinatorConfig{
		Self: self, Fleet: f,
		Initial: mustRing(t, 1, []Node{self, peer}),
		Fence:   NewFencedStore(fleet.NewMemStore(), 1),
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	var fired [][]string
	co.AttachTakeoverHook(func(removed []string) {
		// The ring must already answer for the post-takeover world.
		if epoch := co.Epoch(); epoch < 2 {
			t.Errorf("hook ran at epoch %d, before the flip", epoch)
		}
		fired = append(fired, append([]string(nil), removed...))
	})

	// A growth assignment: no removals, no hook.
	grown := mustRing(t, 2, []Node{self, peer, {ID: "n3", Addr: "127.0.0.1:3"}})
	if _, err := co.ApplyAssign(grown); err != nil {
		t.Fatalf("ApplyAssign grow: %v", err)
	}
	if len(fired) != 0 {
		t.Fatalf("hook fired %v on a growth assignment", fired)
	}

	// A shrink assignment: n2 and n3 are gone; the hook sees both.
	shrunk := mustRing(t, 3, []Node{self})
	if _, err := co.ApplyAssign(shrunk); err != nil {
		t.Fatalf("ApplyAssign shrink: %v", err)
	}
	if len(fired) != 1 || len(fired[0]) != 2 {
		t.Fatalf("hook calls = %v, want one call with two removed IDs", fired)
	}
	got := map[string]bool{fired[0][0]: true, fired[0][1]: true}
	if !got["n2"] || !got["n3"] {
		t.Fatalf("removed IDs %v, want n2 and n3", fired[0])
	}

	// An idempotent replay of the same assignment: no second firing.
	if _, err := co.ApplyAssign(shrunk); err != nil {
		t.Fatalf("ApplyAssign replay: %v", err)
	}
	if len(fired) != 1 {
		t.Fatalf("hook re-fired on an idempotent replay: %v", fired)
	}
}
