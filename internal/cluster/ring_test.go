package cluster

import (
	"errors"
	"fmt"
	"testing"

	"phasekit/internal/fleet"
)

func threeNodes() []Node {
	return []Node{
		{ID: "n1", Addr: "127.0.0.1:9127"},
		{ID: "n2", Addr: "127.0.0.1:9227"},
		{ID: "n3", Addr: "127.0.0.1:9327"},
	}
}

func mustRing(t *testing.T, epoch uint64, nodes []Node) *Ring {
	t.Helper()
	r, err := NewRing(epoch, nodes)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	return r
}

func TestNewRingValidation(t *testing.T) {
	if _, err := NewRing(1, nil); !errors.Is(err, ErrEmptyRing) {
		t.Fatalf("empty: %v", err)
	}
	if _, err := NewRing(1, []Node{{ID: "a"}, {ID: "a"}}); !errors.Is(err, ErrDuplicateNode) {
		t.Fatalf("dup: %v", err)
	}
	if _, err := NewRing(1, []Node{{ID: "", Addr: "x"}}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("empty id: %v", err)
	}
}

func TestRingDeterministicAcrossNodeOrder(t *testing.T) {
	nodes := threeNodes()
	a := mustRing(t, 1, nodes)
	b := mustRing(t, 1, []Node{nodes[2], nodes[0], nodes[1]})
	for i := 0; i < 1000; i++ {
		s := fmt.Sprintf("stream-%d", i)
		if a.Owner(s) != b.Owner(s) {
			t.Fatalf("owner of %q differs by construction order: %v vs %v", s, a.Owner(s), b.Owner(s))
		}
	}
}

func TestOwnerBytesMatchesOwnerAndAllocatesNothing(t *testing.T) {
	r := mustRing(t, 1, threeNodes())
	for i := 0; i < 200; i++ {
		s := fmt.Sprintf("tenant-%d/run", i)
		if r.Owner(s) != r.OwnerBytes([]byte(s)) {
			t.Fatalf("Owner/OwnerBytes disagree for %q", s)
		}
	}
	key := []byte("tenant-42/run")
	if n := testing.AllocsPerRun(100, func() { _ = r.OwnerBytes(key) }); n != 0 {
		t.Fatalf("OwnerBytes allocates %.1f/op, want 0", n)
	}
}

func TestRingDistribution(t *testing.T) {
	r := mustRing(t, 1, threeNodes())
	counts := map[string]int{}
	const streams = 9000
	for i := 0; i < streams; i++ {
		counts[r.Owner(fmt.Sprintf("stream-%d", i)).ID]++
	}
	for id, c := range counts {
		share := float64(c) / streams
		if share < 0.15 || share > 0.55 {
			t.Fatalf("node %s owns %.1f%% of streams — vnode spread is broken: %v", id, share*100, counts)
		}
	}
	if len(counts) != 3 {
		t.Fatalf("only %d nodes own anything: %v", len(counts), counts)
	}
}

func TestJoinMovesOnlyToNewNode(t *testing.T) {
	r := mustRing(t, 1, threeNodes())
	r2, err := r.WithJoin(Node{ID: "n4", Addr: "127.0.0.1:9427"})
	if err != nil {
		t.Fatalf("WithJoin: %v", err)
	}
	if r2.Epoch() != 2 || r2.Len() != 4 {
		t.Fatalf("epoch/len after join: %d/%d", r2.Epoch(), r2.Len())
	}
	moved := 0
	const streams = 4000
	for i := 0; i < streams; i++ {
		s := fmt.Sprintf("stream-%d", i)
		before, after := r.Owner(s), r2.Owner(s)
		if before != after {
			moved++
			if after.ID != "n4" {
				t.Fatalf("stream %q moved %s -> %s, not to the joiner", s, before.ID, after.ID)
			}
		}
	}
	if moved == 0 || moved > streams/2 {
		t.Fatalf("join moved %d/%d streams — expected roughly 1/4", moved, streams)
	}
}

func TestLeaveMovesOnlyDepartedStreams(t *testing.T) {
	r := mustRing(t, 3, threeNodes())
	r2, err := r.WithLeave("n2")
	if err != nil {
		t.Fatalf("WithLeave: %v", err)
	}
	if r2.Epoch() != 4 || r2.Len() != 2 {
		t.Fatalf("epoch/len after leave: %d/%d", r2.Epoch(), r2.Len())
	}
	for i := 0; i < 4000; i++ {
		s := fmt.Sprintf("stream-%d", i)
		if before := r.Owner(s); before.ID != "n2" && r2.Owner(s) != before {
			t.Fatalf("stream %q moved off surviving node %s", s, before.ID)
		}
		if r2.Owner(s).ID == "n2" {
			t.Fatalf("stream %q still owned by departed node", s)
		}
	}
	if _, err := r.WithLeave("ghost"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("leave unknown: %v", err)
	}
	solo := mustRing(t, 1, []Node{{ID: "only", Addr: "a"}})
	if _, err := solo.WithLeave("only"); !errors.Is(err, ErrEmptyRing) {
		t.Fatalf("leave last: %v", err)
	}
	if _, err := r.WithJoin(Node{ID: "n1", Addr: "dup"}); !errors.Is(err, ErrDuplicateNode) {
		t.Fatalf("rejoin existing: %v", err)
	}
}

func TestNodeLookupAndWithEpoch(t *testing.T) {
	r := mustRing(t, 5, threeNodes())
	if n, ok := r.Node("n2"); !ok || n.Addr != "127.0.0.1:9227" {
		t.Fatalf("Node(n2): %v %v", n, ok)
	}
	if _, ok := r.Node("nope"); ok {
		t.Fatal("Node(nope) found")
	}
	bumped := r.WithEpoch(9)
	if bumped.Epoch() != 9 || !bumped.SameMembers(r) {
		t.Fatalf("WithEpoch: epoch %d, same=%v", bumped.Epoch(), bumped.SameMembers(r))
	}
	if !r.Owns(r.Owner("s").ID, "s") {
		t.Fatal("Owns disagrees with Owner")
	}
}

func TestStateAdvance(t *testing.T) {
	r1 := mustRing(t, 1, threeNodes())
	st := NewState(r1)
	if st.Epoch() != 1 {
		t.Fatalf("initial epoch: %d", st.Epoch())
	}
	r2, _ := r1.WithJoin(Node{ID: "n4", Addr: "a4"})
	if changed, err := st.Advance(r2); !changed || err != nil {
		t.Fatalf("advance to 2: %v %v", changed, err)
	}
	// Idempotent replay of the same assignment.
	r2b := mustRing(t, 2, r2.Nodes())
	if changed, err := st.Advance(r2b); changed || err != nil {
		t.Fatalf("replay: %v %v", changed, err)
	}
	// Stale epoch refused.
	if _, err := st.Advance(r1); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale: %v", err)
	}
	// Same epoch, different membership: a split-brain assignment.
	conflict := mustRing(t, 2, threeNodes())
	if _, err := st.Advance(conflict); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("conflict: %v", err)
	}
	if st.Ring() != r2 {
		t.Fatal("ring changed by rejected advances")
	}
}

func TestFencedStoreRoundTripAndFencing(t *testing.T) {
	inner := fleet.NewMemStore()
	writer := NewFencedStore(inner, 3)
	snap := []byte{0xF1, 1, 2, 3, 4}
	if err := writer.Save("s", snap); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, ok, err := writer.Load(nil, "s")
	if err != nil || !ok || string(got) != string(snap) {
		t.Fatalf("load: %q %v %v", got, ok, err)
	}
	if e, ok, _ := writer.LoadEpoch("s"); !ok || e != 3 {
		t.Fatalf("epoch: %d %v", e, ok)
	}
	// A successor at a higher epoch overwrites...
	successor := NewFencedStore(inner, 4)
	if err := successor.Save("s", []byte{9}); err != nil {
		t.Fatalf("successor save: %v", err)
	}
	// ...and the fenced-off zombie at the old epoch is refused.
	if err := writer.Save("s", snap); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("zombie save: %v", err)
	}
	if got, _, _ := successor.Load(nil, "s"); string(got) != string([]byte{9}) {
		t.Fatalf("zombie clobbered successor: %q", got)
	}
	// Equal epoch re-save is fine (same owner checkpointing again).
	if err := successor.Save("s", []byte{9, 9}); err != nil {
		t.Fatalf("re-save: %v", err)
	}
	// Missing stream.
	if _, ok, err := writer.Load(nil, "nope"); ok || err != nil {
		t.Fatalf("missing: %v %v", ok, err)
	}
}

// TestFencedStoreRefusesUnfencedAndCorruption: every payload the fence
// reads must carry the current fence prefix. A bare snapshot, a
// truncated prefix and an empty payload are all ErrSnapshotCorrupt, and
// each blocks a blind overwrite (it could be masking a newer owner's
// checkpoint).
func TestFencedStoreRefusesUnfencedAndCorruption(t *testing.T) {
	for _, tc := range []struct {
		name string
		raw  []byte
	}{
		// Core tracker snapshots start with 0xF1.
		{"bare snapshot", []byte{0xF1, 1, 7, 7}},
		{"truncated prefix", []byte{TagFence, fenceVersion, 0}},
		{"empty", []byte{}},
	} {
		t.Run(tc.name, func(t *testing.T) { assertFenceRefuses(t, tc.raw) })
	}
}

// assertFenceRefuses seeds raw as the stored payload of stream "s" and
// checks that a FencedStore reports it as ErrSnapshotCorrupt on Load and
// LoadEpoch, refuses to Save over it, and leaves it as it was.
func assertFenceRefuses(t *testing.T, raw []byte) {
	t.Helper()
	inner := fleet.NewMemStore()
	if err := inner.Save("s", raw); err != nil {
		t.Fatal(err)
	}
	fs := NewFencedStore(inner, 5)
	fs.SetWriter("n1")
	if snap, _, err := fs.Load(nil, "s"); !errors.Is(err, fleet.ErrSnapshotCorrupt) {
		t.Fatalf("load: %q err=%v, want ErrSnapshotCorrupt", snap, err)
	}
	if _, _, err := fs.LoadEpoch("s"); !errors.Is(err, fleet.ErrSnapshotCorrupt) {
		t.Fatalf("load epoch: %v, want ErrSnapshotCorrupt", err)
	}
	if err := fs.Save("s", []byte{1}); err == nil {
		t.Fatal("save over an unreadable fence succeeded")
	}
	if got, _, err := inner.Load(nil, "s"); err != nil || string(got) != string(raw) {
		t.Fatalf("stored payload changed by a refused save: %q err=%v", got, err)
	}
}
