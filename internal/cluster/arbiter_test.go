package cluster

// Tests for shared-store epoch arbitration — the guard against
// split-brain takeovers. Epoch numbers are exclusive-create markers in
// the shared store: concurrent minters always end up with distinct,
// totally ordered epochs, and configurations that cannot arbitrate
// refuse the races that would need it.

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"phasekit/internal/fleet"
)

// plainStore is a StateStore without CreateExclusive: the shape of a
// legacy or third-party store that cannot arbitrate epochs.
type plainStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newPlainStore() *plainStore { return &plainStore{m: make(map[string][]byte)} }

func (s *plainStore) Save(stream string, snap []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[stream] = append([]byte(nil), snap...)
	return nil
}

func (s *plainStore) Load(dst []byte, stream string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[stream]
	if !ok {
		return nil, false, nil
	}
	return append(dst[:0], b...), true, nil
}

// TestAllocateEpochConcurrentClaimsDistinct: any number of concurrent
// claimants racing for the next epoch over one shared store all receive
// distinct numbers — the property that makes symmetric-partition
// takeovers safe.
func TestAllocateEpochConcurrentClaimsDistinct(t *testing.T) {
	mem := fleet.NewMemStore()
	const claimants = 8
	epochs := make([]uint64, claimants)
	errs := make([]error, claimants)
	var wg sync.WaitGroup
	for i := 0; i < claimants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fs := NewFencedStore(mem, 1)
			epochs[i], errs[i] = fs.AllocateEpoch(1, fmt.Sprintf("n%d", i))
		}(i)
	}
	wg.Wait()
	seen := make(map[uint64]int)
	for i := 0; i < claimants; i++ {
		if errs[i] != nil {
			t.Fatalf("claimant %d: %v", i, errs[i])
		}
		if epochs[i] <= 1 {
			t.Fatalf("claimant %d allocated epoch %d, want > 1", i, epochs[i])
		}
		if prev, dup := seen[epochs[i]]; dup {
			t.Fatalf("claimants %d and %d both allocated epoch %d", prev, i, epochs[i])
		}
		seen[epochs[i]] = i
	}
}

// TestAllocateEpochIdempotentAndSkipsForeignClaims: re-allocating an
// epoch a node already claimed returns the same number (crash-retry
// safety), and a rival's claim — even one whose claimant died before
// using it — is skipped, never blocked on.
func TestAllocateEpochIdempotentAndSkipsForeignClaims(t *testing.T) {
	mem := fleet.NewMemStore()
	fs := NewFencedStore(mem, 1)
	if !fs.CanArbitrate() {
		t.Fatal("MemStore-backed fence should arbitrate")
	}
	e1, err := fs.AllocateEpoch(1, "n1")
	if err != nil || e1 != 2 {
		t.Fatalf("first claim: epoch %d err=%v, want 2", e1, err)
	}
	again, err := fs.AllocateEpoch(1, "n1")
	if err != nil || again != e1 {
		t.Fatalf("re-claim: epoch %d err=%v, want %d", again, err, e1)
	}
	// A rival claiming from the same base skips n1's marker and lands
	// strictly above — a stuck claim costs one number, never liveness.
	e2, err := fs.AllocateEpoch(1, "n2")
	if err != nil || e2 != 3 {
		t.Fatalf("rival claim: epoch %d err=%v, want 3", e2, err)
	}
}

// TestAllocateEpochFallbackWithoutMarkers: a store without the
// exclusive-create primitive cannot arbitrate; allocation degrades to
// the local successor and CanArbitrate reports it.
func TestAllocateEpochFallbackWithoutMarkers(t *testing.T) {
	fs := NewFencedStore(newPlainStore(), 1)
	if fs.CanArbitrate() {
		t.Fatal("plain store must not claim arbitration")
	}
	e, err := fs.AllocateEpoch(7, "n1")
	if err != nil || e != 8 {
		t.Fatalf("fallback allocation: epoch %d err=%v, want 8", e, err)
	}
}

// interleaveStore simulates the equal-epoch write race: the first Save
// lands the caller's bytes and then immediately overwrites them with a
// rival's pre-encoded fenced payload, exactly as if the rival's
// physical write landed last. Subsequent Saves pass through.
type interleaveStore struct {
	*fleet.MemStore
	rival []byte
	once  sync.Once
}

func (s *interleaveStore) Save(stream string, snap []byte) error {
	if err := s.MemStore.Save(stream, snap); err != nil {
		return err
	}
	var rerr error
	s.once.Do(func() { rerr = s.MemStore.Save(stream, s.rival) })
	return rerr
}

// encodeFenced renders one fenced payload (epoch + writer + snap) by
// round-tripping it through a scratch FencedStore.
func encodeFenced(t *testing.T, epoch uint64, writer string, snap []byte) []byte {
	t.Helper()
	scratch := newPlainStore()
	fs := NewFencedStore(scratch, epoch)
	fs.SetWriter(writer)
	if err := fs.Save("x", snap); err != nil {
		t.Fatal(err)
	}
	raw, ok, err := scratch.Load(nil, "x")
	if err != nil || !ok {
		t.Fatalf("scratch load: ok=%v err=%v", ok, err)
	}
	return raw
}

// TestFencedStoreEqualEpochTiebreak pins the last line of defense when
// two writers somehow share an epoch (a pre-arbitration store): the
// read-back loop resolves by node ID — the smaller ID's payload
// survives whichever side's write lands last, and the larger ID
// concedes with a permanent ErrStaleEpoch.
func TestFencedStoreEqualEpochTiebreak(t *testing.T) {
	t.Run("larger writer concedes", func(t *testing.T) {
		// n2 writes; n1's (smaller) payload interleaves after it.
		st := &interleaveStore{MemStore: fleet.NewMemStore(), rival: encodeFenced(t, 5, "n1", []byte("from-n1"))}
		fs := NewFencedStore(st, 5)
		fs.SetWriter("n2")
		err := fs.Save("s", []byte("from-n2"))
		if !errors.Is(err, ErrStaleEpoch) {
			t.Fatalf("larger-ID writer: %v, want ErrStaleEpoch", err)
		}
		var pe interface{ StorePermanent() bool }
		if !errors.As(err, &pe) || !pe.StorePermanent() {
			t.Fatalf("tiebreak refusal not marked permanent: %v", err)
		}
		snap, _, _ := fs.Load(nil, "s")
		if !bytes.Equal(snap, []byte("from-n1")) {
			t.Fatalf("final payload %q, want the smaller ID's", snap)
		}
	})
	t.Run("smaller writer re-asserts", func(t *testing.T) {
		// n1 writes; n2's (larger) payload interleaves after it — n1 must
		// win by re-asserting, not concede.
		st := &interleaveStore{MemStore: fleet.NewMemStore(), rival: encodeFenced(t, 5, "n2", []byte("from-n2"))}
		fs := NewFencedStore(st, 5)
		fs.SetWriter("n1")
		if err := fs.Save("s", []byte("from-n1")); err != nil {
			t.Fatalf("smaller-ID writer: %v", err)
		}
		snap, _, _ := fs.Load(nil, "s")
		if !bytes.Equal(snap, []byte("from-n1")) {
			t.Fatalf("final payload %q, want the smaller ID's", snap)
		}
	})
}

// TestFenceV1PayloadRefused: checkpoints stamped with fence version 1
// (before the writer ID existed) are no longer read. A v1 prefix is
// ErrSnapshotCorrupt like any other unreadable fence, and a same-epoch
// Save does not overwrite it.
func TestFenceV1PayloadRefused(t *testing.T) {
	// Hand-encode a v1 prefix: tag, version, epoch, blob.
	v1 := []byte{TagFence, 1}
	v1 = append(v1, 5, 0, 0, 0, 0, 0, 0, 0) // epoch 5, little-endian u64
	v1 = append(v1, 4, 0, 0, 0)             // blob length 4
	v1 = append(v1, 'o', 'l', 'd', '!')
	assertFenceRefuses(t, v1)
}

// newArbiterTestCoordinator builds a two-node coordinator over the
// given fence.
func newArbiterTestCoordinator(t *testing.T, selfID string, fence *FencedStore) *Coordinator {
	t.Helper()
	f := fleet.New(fleet.Config{Shards: 1, Tracker: coordTrackerConfig()})
	t.Cleanup(f.Close)
	nodes := []Node{{ID: "n1", Addr: "127.0.0.1:1"}, {ID: "n2", Addr: "127.0.0.1:1"}}
	var self Node
	for _, n := range nodes {
		if n.ID == selfID {
			self = n
		}
	}
	co, err := NewCoordinator(CoordinatorConfig{
		Self: self, Fleet: f, Initial: mustRing(t, 1, nodes), Fence: fence,
		DialTimeout: 50 * time.Millisecond, OpTimeout: time.Second, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return co
}

// TestTwoNodeFailoverRefusedWithoutArbiter: automatic failover is
// allowed only when the shared store can arbitrate the epoch — on a
// two-node ring, as on any other. Over a store that cannot, the
// takeover is refused and the ring stands.
func TestTwoNodeFailoverRefusedWithoutArbiter(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fence *FencedStore
	}{
		{"non-arbitrating store", NewFencedStore(newPlainStore(), 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			co := newArbiterTestCoordinator(t, "n1", tc.fence)
			_, err := co.Failover("n2")
			if !errors.Is(err, ErrNoArbiter) {
				t.Fatalf("two-node failover: %v, want ErrNoArbiter", err)
			}
			if e := co.Epoch(); e != 1 {
				t.Fatalf("epoch after refused failover: %d, want 1", e)
			}
			if _, ok := co.Ring().Node("n2"); !ok {
				t.Fatal("n2 evicted despite refusal")
			}
		})
	}
}

// TestSymmetricPartitionTakeoversTotallyOrdered is the split-brain
// regression test: two nodes of a two-node ring, partitioned from each
// other but sharing the store, each fail the other over. Arbitration
// guarantees they mint distinct epochs, and the fence then totally
// orders their checkpoint writes — the lower epoch's save is refused
// once the higher epoch has written, never silently clobbered.
func TestSymmetricPartitionTakeoversTotallyOrdered(t *testing.T) {
	mem := fleet.NewMemStore()
	fence1 := NewFencedStore(mem, 1)
	fence2 := NewFencedStore(mem, 1)
	co1 := newArbiterTestCoordinator(t, "n1", fence1)
	co2 := newArbiterTestCoordinator(t, "n2", fence2)

	var wg sync.WaitGroup
	var err1, err2 error
	wg.Add(2)
	go func() { defer wg.Done(); _, err1 = co1.Failover("n2") }()
	go func() { defer wg.Done(); _, err2 = co2.Failover("n1") }()
	wg.Wait()
	if err1 != nil || err2 != nil {
		t.Fatalf("failovers: n1=%v n2=%v", err1, err2)
	}
	e1, e2 := co1.Epoch(), co2.Epoch()
	if e1 == e2 {
		t.Fatalf("both survivors adopted epoch %d — split brain", e1)
	}
	// The higher epoch's writes win; the lower's are refused, not
	// interleaved.
	winner, loser := fence1, fence2
	if e2 > e1 {
		winner, loser = fence2, fence1
	}
	if err := winner.Save("s", []byte("winner")); err != nil {
		t.Fatalf("winner save: %v", err)
	}
	if err := loser.Save("s", []byte("loser")); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("loser save: %v, want ErrStaleEpoch", err)
	}
	snap, _, err := winner.Load(nil, "s")
	if err != nil || !bytes.Equal(snap, []byte("winner")) {
		t.Fatalf("final payload %q err=%v, want winner's", snap, err)
	}
}

// restampFailStore serves reads and arbitration but fails every fenced
// write — the shape of a store whose data volume went read-only mid-
// takeover.
type restampFailStore struct {
	*fleet.MemStore
}

func (s *restampFailStore) Save(stream string, snap []byte) error {
	return fmt.Errorf("store is read-only")
}

func (s *restampFailStore) List() ([]string, error) {
	return []string{"takeover-stream"}, nil
}

// failOverOrphan runs a takeover of "takeover-stream" over fence: a
// two-node coordinator whose peer owns the stream fails that peer over,
// and the test checks the stream was not adopted. It returns the
// surviving fleet.
func failOverOrphan(t *testing.T, fence *FencedStore, fcfg fleet.Config) *fleet.Fleet {
	t.Helper()
	f := fleet.New(fcfg)
	t.Cleanup(f.Close)
	// Both nodes at one address; the stream must belong to the dead one.
	nodes := []Node{{ID: "n1", Addr: "127.0.0.1:1"}, {ID: "n2", Addr: "127.0.0.1:1"}}
	ring := mustRing(t, 1, nodes)
	dead := ring.Owner("takeover-stream").ID
	var self Node
	for _, n := range nodes {
		if n.ID != dead {
			self = n
		}
	}
	co, err := NewCoordinator(CoordinatorConfig{
		Self: self, Fleet: f, Initial: ring, Fence: fence,
		DialTimeout: 50 * time.Millisecond, OpTimeout: time.Second, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Failover(dead); err != nil {
		t.Fatalf("failover: %v", err)
	}
	for _, s := range f.Streams() {
		if s == "takeover-stream" {
			t.Fatal("orphan adopted although its fence could not be re-stamped")
		}
	}
	if st := co.Status(); st.OrphansAdopted != 0 {
		t.Fatalf("OrphansAdopted = %d, want 0", st.OrphansAdopted)
	}
	return f
}

// TestAdoptOrphanSkippedWhenRestampFails: an orphan whose fence
// re-stamp cannot be made to stick must not be adopted — serving it
// unfenced would let the old owner interleave at its old epoch. The
// stream is left for lazy rehydration instead.
func TestAdoptOrphanSkippedWhenRestampFails(t *testing.T) {
	inner := &restampFailStore{MemStore: fleet.NewMemStore()}
	// Seed the dead node's checkpoint through the embedded store
	// directly (bypassing the read-only Save override).
	if err := inner.MemStore.Save("takeover-stream", encodeFenced(t, 1, "", nil)); err != nil {
		t.Fatal(err)
	}
	failOverOrphan(t, NewFencedStore(inner, 1), fleet.Config{Shards: 1, Tracker: coordTrackerConfig()})
}

// TestAdoptOrphanSkippedWhenCheckpointUnreadable: an orphan whose
// fenced checkpoint cannot be read is not adopted either — it could
// never be re-stamped, so every later checkpoint of it would fail. Left
// to lazy rehydration, its first batch quarantines it with
// ErrSnapshotCorrupt.
func TestAdoptOrphanSkippedWhenCheckpointUnreadable(t *testing.T) {
	inner := fleet.NewMemStore()
	// A fence prefix cut off after its header: Load cannot decode it.
	if err := inner.Save("takeover-stream", []byte{TagFence, fenceVersion, 1}); err != nil {
		t.Fatal(err)
	}
	fence := NewFencedStore(inner, 1)
	f := failOverOrphan(t, fence, fleet.Config{Shards: 1, Tracker: coordTrackerConfig(), Store: fence})
	if err := f.Send(fleet.Batch{Stream: "takeover-stream", Seq: 1}); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := f.StreamErr("takeover-stream"); !errors.Is(err, fleet.ErrSnapshotCorrupt) {
		t.Fatalf("first batch: StreamErr = %v, want ErrSnapshotCorrupt", err)
	}
}
