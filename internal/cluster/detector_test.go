package cluster

// Failure-detector unit tests: deterministic Ticks driven by a manual
// clock over a MemStore-backed fence — no real time, no sockets. Peers
// are simulated by writing their lease records into the shared store.
// The coordinator under test uses a tiny dial timeout because a
// failover propagates the new ring to (unreachable) peer addresses,
// which is logged, not fatal.

import (
	"errors"
	"slices"
	"testing"
	"time"

	"phasekit/internal/faults"
	"phasekit/internal/fleet"
)

// detectorHarness is one node's coordinator and detector over a shared
// MemStore, seen through a faults.Store so a test can cut the node off.
type detectorHarness struct {
	co      *Coordinator
	det     *Detector
	clock   *faults.Clock
	shared  *fleet.MemStore
	handle  *faults.Store
	pol     HealthPolicy
	members []string
	counter map[string]uint64 // simulated peers' renewal counters
}

func newDetectorHarness(t *testing.T, selfID string, memberIDs []string, cfg DetectorConfig) *detectorHarness {
	return newDetectorHarnessOn(t, fleet.NewMemStore(), faults.NewClock(time.Unix(1_000_000, 0)), selfID, memberIDs, cfg)
}

func newDetectorHarnessOn(t *testing.T, shared *fleet.MemStore, clock *faults.Clock, selfID string, memberIDs []string, cfg DetectorConfig) *detectorHarness {
	t.Helper()
	f := fleet.New(fleet.Config{Shards: 1, Tracker: coordTrackerConfig()})
	t.Cleanup(f.Close)
	nodes := make([]Node, len(memberIDs))
	for i, id := range memberIDs {
		nodes[i] = Node{ID: id, Addr: "127.0.0.1:1"} // refuses instantly
	}
	h := &detectorHarness{
		clock:   clock,
		shared:  shared,
		handle:  faults.Wrap(shared, faults.Schedule{}),
		pol:     HealthPolicy{Interval: 50 * time.Millisecond, SuspectAfter: 200 * time.Millisecond, DeadAfter: 400 * time.Millisecond},
		members: memberIDs,
		counter: make(map[string]uint64),
	}
	co, err := NewCoordinator(CoordinatorConfig{
		Self: Node{ID: selfID, Addr: "127.0.0.1:1"}, Fleet: f, Initial: mustRing(t, 1, nodes),
		Fence:       NewFencedStore(h.handle, 1),
		DialTimeout: 50 * time.Millisecond, OpTimeout: time.Second,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.co = co
	cfg.Coordinator = co
	if cfg.Policy == (HealthPolicy{}) {
		cfg.Policy = h.pol
	}
	cfg.Now = h.clock.Now
	cfg.Logf = t.Logf
	if h.det, err = NewDetector(cfg); err != nil {
		t.Fatal(err)
	}
	co.AttachDetector(h.det)
	return h
}

// publish writes a simulated peer's lease record as it stands.
func (h *detectorHarness) publish(t *testing.T, id string, epoch uint64, members []string) {
	t.Helper()
	rec := lease{node: Node{ID: id, Addr: "127.0.0.1:1"}, epoch: epoch, members: members, counter: h.counter[id]}
	if err := h.shared.WriteLease(leaseName(id), rec.encode()); err != nil {
		t.Fatal(err)
	}
}

// renew bumps each simulated peer's counter and republishes its lease
// at epoch 1 over the initial membership.
func (h *detectorHarness) renew(t *testing.T, ids ...string) {
	t.Helper()
	for _, id := range ids {
		h.counter[id]++
		h.publish(t, id, 1, h.members)
	}
}

// step advances the clock by d, renews the named peers, and ticks.
func (h *detectorHarness) step(t *testing.T, d time.Duration, renewing ...string) {
	t.Helper()
	h.clock.Advance(d)
	h.renew(t, renewing...)
	h.det.Tick()
}

func (h *detectorHarness) state(t *testing.T, id string) string {
	t.Helper()
	for _, p := range h.det.PeerStatuses() {
		if p.Node.ID == id {
			return p.State
		}
	}
	t.Fatalf("peer %s not tracked", id)
	return ""
}

// TestDetectorFailoverAtDeadAfter walks the full ladder: a peer whose
// lease stands still is suspect exactly SuspectAfter and dead exactly
// DeadAfter after its counter last changed, and the initiator (smallest
// alive ID) removes it at a new epoch — once, with no operator command.
func TestDetectorFailoverAtDeadAfter(t *testing.T) {
	h := newDetectorHarness(t, "n1", []string{"n1", "n2", "n3"}, DetectorConfig{})
	h.renew(t, "n2", "n3")
	h.det.Tick() // registration: the first read only sets the baseline
	h.step(t, h.pol.Interval, "n2", "n3")
	// n2's counter changed at this tick; from here on only n3 renews.
	lastChange := h.clock.Now()
	for h.clock.Now().Sub(lastChange) < h.pol.SuspectAfter-h.pol.Interval {
		h.step(t, h.pol.Interval, "n3")
	}
	if s := h.state(t, "n2"); s != "alive" {
		t.Fatalf("n2 one interval before SuspectAfter: %s", s)
	}
	h.step(t, h.pol.Interval, "n3")
	if s := h.state(t, "n2"); s != "suspect" {
		t.Fatalf("n2 at SuspectAfter: %s", s)
	}
	if !h.co.Degraded() {
		t.Fatal("node not degraded with a suspect peer")
	}
	h.step(t, lastChange.Add(h.pol.DeadAfter-time.Millisecond).Sub(h.clock.Now()), "n3")
	if s, e := h.state(t, "n2"), h.co.Epoch(); s != "suspect" || e != 1 {
		t.Fatalf("a millisecond before DeadAfter: n2 %s at epoch %d, want suspect at 1", s, e)
	}
	h.step(t, time.Millisecond, "n3")
	if got := h.clock.Now().Sub(lastChange); got != h.pol.DeadAfter {
		t.Fatalf("test stepped to %v after the last change, want DeadAfter", got)
	}
	if e := h.co.Epoch(); e != 2 {
		t.Fatalf("epoch at DeadAfter: %d, want 2", e)
	}
	if _, ok := h.co.Ring().Node("n2"); ok {
		t.Fatal("n2 still a ring member after takeover")
	}
	// The takeover tick publishes the new ring in this node's lease at
	// once, not a tick later.
	data, ok, err := h.shared.ReadLease(leaseName("n1"))
	if err != nil || !ok {
		t.Fatalf("n1's lease: ok=%v err=%v", ok, err)
	}
	if own, err := decodeLease(data); err != nil || own.epoch != 2 || !slices.Equal(own.members, []string{"n1", "n3"}) {
		t.Fatalf("n1's lease after the takeover: %+v, %v; want epoch 2 over n1 n3", own, err)
	}

	// The peer table prunes departed members at the next sync, and the
	// takeover is not repeated.
	h.step(t, h.pol.Interval, "n3")
	h.step(t, h.pol.Interval, "n3")
	st := h.co.Status()
	if st.TakeoversDone != 1 || st.TakeoverInFlight != 0 || st.Epoch != 2 {
		t.Fatalf("takeover counters: %+v", st)
	}
	if st.Health.Failovers != 1 || st.Health.Deaths != 1 || st.Health.Suspicions != 1 {
		t.Fatalf("detector counters: %+v", st.Health)
	}
	if len(st.Peers) != 1 || st.Peers[0].Node.ID != "n3" || st.Peers[0].State != "alive" {
		t.Fatalf("peer statuses after takeover: %+v", st.Peers)
	}
	if st.Degraded {
		t.Fatal("still degraded after the takeover")
	}
}

// TestDetectorTwoNodeSelfConfirm: a two-node ring over a store that
// arbitrates fails its silent peer over; a peer that never renewed at
// all dies DeadAfter after it was registered.
func TestDetectorTwoNodeSelfConfirm(t *testing.T) {
	h := newDetectorHarness(t, "n1", []string{"n1", "n2"}, DetectorConfig{})
	h.det.Tick()
	h.step(t, h.pol.DeadAfter-time.Millisecond)
	if e := h.co.Epoch(); e != 1 {
		t.Fatalf("epoch before DeadAfter: %d", e)
	}
	h.step(t, time.Millisecond)
	if e := h.co.Epoch(); e != 2 {
		t.Fatalf("epoch after two-node takeover: %d, want 2", e)
	}
	if n := h.co.Ring().Len(); n != 1 {
		t.Fatalf("ring size after takeover: %d, want 1", n)
	}
}

// TestDetectorNonInitiatorHolds: a node that is not the smallest alive
// ID sees the death but leaves the takeover to the initiator.
func TestDetectorNonInitiatorHolds(t *testing.T) {
	h := newDetectorHarness(t, "n2", []string{"n1", "n2", "n3"}, DetectorConfig{})
	h.renew(t, "n1", "n3")
	h.det.Tick()
	for i := 0; i < 10; i++ {
		h.step(t, h.pol.Interval, "n1") // n1 is alive and smaller: it initiates
	}
	if e := h.co.Epoch(); e != 1 {
		t.Fatalf("epoch: %d — non-initiator must not take over", e)
	}
	if s := h.state(t, "n3"); s != "dead" {
		t.Fatalf("n3 state on the non-initiator: %s, want dead", s)
	}
	if c := h.det.Counters(); c.Failovers != 0 || c.Deaths != 1 {
		t.Fatalf("non-initiator counters: %+v", c)
	}
}

// TestDetectorEvictedFiresOnce: a peer lease at a higher epoch that no
// longer includes this node means the cluster moved on without it —
// the zombie-return discovery. OnEvicted fires exactly once.
func TestDetectorEvictedFiresOnce(t *testing.T) {
	evictions := 0
	var evictedAt uint64
	h := newDetectorHarness(t, "n1", []string{"n1", "n2"}, DetectorConfig{
		OnEvicted: func(epoch uint64) { evictions++; evictedAt = epoch },
	})
	h.publish(t, "n2", 7, []string{"n2", "n3"})

	h.det.Tick()
	h.det.Tick()
	h.det.Tick()

	if evictions != 1 || evictedAt != 7 {
		t.Fatalf("OnEvicted fired %d times (epoch %d), want once at 7", evictions, evictedAt)
	}
}

// TestDetectorFinishesLeaveWhenFlipPushIsLost: a node that has
// migrated out for a ring without it (the first push of a live leave)
// is not evicted by peers whose leases show that ring. Once every
// survivor's does, the push that should flip the node is overdue, and
// the detector flips it instead. A lease from any later ring still
// evicts it.
func TestDetectorFinishesLeaveWhenFlipPushIsLost(t *testing.T) {
	var evictedAt uint64
	h := newDetectorHarness(t, "n1", []string{"n1", "n2", "n3"}, DetectorConfig{
		OnEvicted: func(epoch uint64) { evictedAt = epoch },
	})
	survivors := []Node{{ID: "n2", Addr: "127.0.0.1:1"}, {ID: "n3", Addr: "127.0.0.1:1"}}
	if changed, err := h.co.ApplyAssign(mustRing(t, 2, survivors)); changed || err != nil {
		t.Fatalf("first leave push: changed=%v err=%v", changed, err)
	}
	h.publish(t, "n2", 2, []string{"n2", "n3"})
	h.publish(t, "n3", 1, []string{"n1", "n2", "n3"})
	h.det.Tick()
	if evictedAt != 0 || h.co.Epoch() != 1 {
		t.Fatalf("one survivor flipped: evicted at %d, epoch %d; want neither eviction nor flip", evictedAt, h.co.Epoch())
	}

	h.publish(t, "n3", 2, []string{"n2", "n3"})
	h.det.Tick()
	if evictedAt != 0 || h.co.Epoch() != 2 {
		t.Fatalf("every survivor flipped: evicted at %d, epoch %d; want the flip to epoch 2", evictedAt, h.co.Epoch())
	}
	if h.co.leaving(2) {
		t.Fatal("the finished leave is still pending")
	}

	h.publish(t, "n3", 3, []string{"n2", "n3"})
	h.det.Tick()
	if evictedAt != 3 {
		t.Fatalf("evicted at epoch %d, want 3", evictedAt)
	}
}

// TestDetectorLaggingTriggersCatchUp: a higher-epoch lease that still
// includes this node is a stale view, not an eviction — the OnLagging
// hook (re-join by default) fires with the fresher peer, addressed as
// its lease says.
func TestDetectorLaggingTriggersCatchUp(t *testing.T) {
	var laggedPeer Node
	var laggedEpoch uint64
	h := newDetectorHarness(t, "n1", []string{"n1", "n2"}, DetectorConfig{
		OnLagging: func(peer Node, epoch uint64) { laggedPeer, laggedEpoch = peer, epoch },
	})
	h.publish(t, "n2", 3, []string{"n1", "n2"})

	h.det.Tick()

	if laggedPeer.ID != "n2" || laggedPeer.Addr != "127.0.0.1:1" || laggedEpoch != 3 {
		t.Fatalf("OnLagging(%+v, %d), want (n2 at its lease address, 3)", laggedPeer, laggedEpoch)
	}
}

// TestDetectorRecovery: a suspect peer whose counter moves again is
// alive, and the node stops reporting degraded. The renewal that
// revives it is a restart's counter, lower than the last one: a
// counter that goes backwards is a change like any other.
func TestDetectorRecovery(t *testing.T) {
	h := newDetectorHarness(t, "n1", []string{"n1", "n2"}, DetectorConfig{})
	h.counter["n2"] = 41
	h.renew(t, "n2")
	h.det.Tick()
	h.step(t, h.pol.SuspectAfter)
	if s := h.state(t, "n2"); s != "suspect" {
		t.Fatalf("n2: %s, want suspect", s)
	}
	h.counter["n2"] = 0 // restarted
	h.step(t, h.pol.Interval, "n2")
	if s := h.state(t, "n2"); s != "alive" {
		t.Fatalf("n2 after a restarted counter: %s, want alive", s)
	}
	if h.co.Degraded() {
		t.Fatal("still degraded after recovery")
	}
}

// TestDetectorBlindObserverDeclaresNobodyDead: while this node's store
// handle is cut, its ticks are no evidence — however long it stays
// blind, nobody is suspected or taken over. Once it sees again, every
// peer's grace period restarts: a peer that renews stays alive, and
// one whose counter never moves is dead DeadAfter after the first
// clean read, not at once.
func TestDetectorBlindObserverDeclaresNobodyDead(t *testing.T) {
	h := newDetectorHarness(t, "n1", []string{"n1", "n2", "n3"}, DetectorConfig{})
	h.renew(t, "n2", "n3")
	h.det.Tick()
	h.step(t, h.pol.Interval, "n2", "n3")

	h.handle.Cut()
	for i := 0; i < 20; i++ {
		h.step(t, h.pol.Interval, "n2") // n3 has died meanwhile
	}
	if e := h.co.Epoch(); e != 1 {
		t.Fatalf("a blind observer took over: epoch %d", e)
	}
	c := h.det.Counters()
	if c.Suspicions != 0 || c.Deaths != 0 || c.Failovers != 0 {
		t.Fatalf("a blind observer judged its peers: %+v", c)
	}
	if c.ReadFailures != 40 || c.RenewFailures != 20 {
		t.Fatalf("blind ticks: %+v, want 40 read and 20 renewal failures", c)
	}
	if h.co.Degraded() {
		t.Fatal("a blind observer reported its peers unhealthy")
	}

	h.handle.Heal()
	h.step(t, h.pol.Interval, "n2")
	healed := h.clock.Now()
	if s2, s3 := h.state(t, "n2"), h.state(t, "n3"); s2 != "alive" || s3 != "alive" {
		t.Fatalf("first clean read: n2 %s, n3 %s; want both alive", s2, s3)
	}
	for h.clock.Now().Sub(healed) < h.pol.DeadAfter-h.pol.Interval {
		h.step(t, h.pol.Interval, "n2")
	}
	h.step(t, healed.Add(h.pol.DeadAfter-time.Millisecond).Sub(h.clock.Now()), "n2")
	if s, e := h.state(t, "n3"), h.co.Epoch(); s != "suspect" || e != 1 {
		t.Fatalf("a millisecond before DeadAfter from healing: n3 %s at epoch %d, want suspect at 1", s, e)
	}
	h.step(t, time.Millisecond, "n2")
	if e := h.co.Epoch(); e != 2 {
		t.Fatalf("epoch DeadAfter after healing: %d, want 2 (n3 taken over)", e)
	}
	if _, ok := h.co.Ring().Node("n3"); ok {
		t.Fatal("n3 still a member DeadAfter after healing")
	}
	if s := h.state(t, "n2"); s != "alive" {
		t.Fatalf("n2 renewed throughout: %s, want alive", s)
	}
}

// TestDetectorStoreOutageKillsNobody: the shared store is down for
// every node for far longer than DeadAfter, so nobody can renew. When
// it comes back, whichever node ticks first reads every peer's lease
// still at its pre-outage counter — which is no evidence, since the
// outage stopped every renewal. Whatever order the nodes tick in once
// it heals, nobody is suspected, taken over or evicted.
func TestDetectorStoreOutageKillsNobody(t *testing.T) {
	ids := []string{"n1", "n2", "n3"}
	for _, order := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		var name string
		for _, i := range order {
			name += ids[i]
		}
		t.Run(name, func(t *testing.T) {
			shared := fleet.NewMemStore()
			clock := faults.NewClock(time.Unix(1_000_000, 0))
			evictions := 0
			var nodes []*detectorHarness
			for _, id := range ids {
				nodes = append(nodes, newDetectorHarnessOn(t, shared, clock, id, ids, DetectorConfig{
					OnEvicted: func(uint64) { evictions++ },
				}))
			}
			round := func(order []int) {
				clock.Advance(nodes[0].pol.Interval)
				for _, i := range order {
					nodes[i].det.Tick()
				}
			}
			// Before the outage the nodes tick in ID order, so the last of
			// them has read every other's final renewal.
			for i := 0; i < 3; i++ {
				round([]int{0, 1, 2})
			}
			for _, h := range nodes {
				h.handle.Cut()
			}
			for clock.Now().Sub(time.Unix(1_000_000, 0)) < 3*nodes[0].pol.DeadAfter {
				round([]int{0, 1, 2})
			}
			for _, h := range nodes {
				h.handle.Heal()
			}
			for i := 0; i < 20; i++ {
				round(order)
			}
			for i, h := range nodes {
				c, st := h.det.Counters(), h.co.Status()
				if c.Suspicions != 0 || c.Deaths != 0 || c.Failovers != 0 || st.TakeoversDone != 0 || st.Epoch != 1 || st.Degraded {
					t.Fatalf("%s after the outage: %+v, epoch %d, takeovers %d, degraded %v", ids[i], c, st.Epoch, st.TakeoversDone, st.Degraded)
				}
			}
			if evictions != 0 {
				t.Fatalf("%d evictions after the outage", evictions)
			}
		})
	}
}

// TestDetectorUnusableLeaseAges: a peer's lease that does not decode —
// torn by a power cut, since lease writes are not fsynced — or that
// names another node, is no renewal, not observer blindness. The peer
// ages as if it had stopped renewing and is taken over DeadAfter after
// its counter last changed; the observer keeps judging everyone else.
func TestDetectorUnusableLeaseAges(t *testing.T) {
	good := lease{node: Node{ID: "n2", Addr: "127.0.0.1:1"}, epoch: 1, members: []string{"n1", "n2", "n3"}, counter: 99}.encode()
	foreign := lease{node: Node{ID: "n3", Addr: "127.0.0.1:1"}, epoch: 1, members: []string{"n1", "n2", "n3"}, counter: 99}.encode()
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"truncated", good[:len(good)/2]},
		{"empty", nil},
		{"foreign", foreign},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newDetectorHarness(t, "n1", []string{"n1", "n2", "n3"}, DetectorConfig{})
			h.renew(t, "n2", "n3")
			h.det.Tick()
			h.step(t, h.pol.Interval, "n2", "n3")
			lastChange := h.clock.Now()
			if err := h.shared.WriteLease(leaseName("n2"), tc.data); err != nil {
				t.Fatal(err)
			}
			h.step(t, h.pol.DeadAfter-time.Millisecond, "n3")
			if s, e := h.state(t, "n2"), h.co.Epoch(); s != "suspect" || e != 1 {
				t.Fatalf("a millisecond before DeadAfter: n2 %s at epoch %d, want suspect at 1", s, e)
			}
			h.step(t, time.Millisecond, "n3")
			if got := h.clock.Now().Sub(lastChange); got != h.pol.DeadAfter {
				t.Fatalf("test stepped to %v after the last change, want DeadAfter", got)
			}
			if e := h.co.Epoch(); e != 2 {
				t.Fatalf("epoch at DeadAfter: %d, want 2 (n2 taken over)", e)
			}
			if _, ok := h.co.Ring().Node("n2"); ok {
				t.Fatal("n2 still a member at DeadAfter")
			}
			if c := h.det.Counters(); c.ReadFailures != 2 || c.Failovers != 1 {
				t.Fatalf("counters: %+v, want 2 read failures and 1 failover", c)
			}
		})
	}
}

// TestDetectorRefusedWithoutArbiter: a coordinator whose store cannot
// arbitrate gets no failure detector, and no failover.
func TestDetectorRefusedWithoutArbiter(t *testing.T) {
	co := newArbiterTestCoordinator(t, "n1", NewFencedStore(newPlainStore(), 1))
	if _, err := NewDetector(DetectorConfig{Coordinator: co}); !errors.Is(err, ErrNoArbiter) {
		t.Fatalf("NewDetector over a plain store: %v, want ErrNoArbiter", err)
	}
	if _, err := co.Failover("n2"); !errors.Is(err, ErrNoArbiter) {
		t.Fatalf("Failover over a plain store: %v, want ErrNoArbiter", err)
	}
}

// TestDetectorStoreOpsPerTick counts the store traffic of a 3-node
// cluster through each node's faults.Store: ten ticks — ten seconds at
// the default interval — cost every node 10 lease writes and 20 lease
// reads, 3 store operations per node per second.
func TestDetectorStoreOpsPerTick(t *testing.T) {
	shared := fleet.NewMemStore()
	clock := faults.NewClock(time.Unix(1_000_000, 0))
	ids := []string{"n1", "n2", "n3"}
	var nodes []*detectorHarness
	for _, id := range ids {
		nodes = append(nodes, newDetectorHarnessOn(t, shared, clock, id, ids, DetectorConfig{Policy: HealthPolicy{Interval: time.Second}}))
	}
	for i := 0; i < 10; i++ {
		clock.Advance(time.Second)
		for _, h := range nodes {
			h.det.Tick()
		}
	}
	for i, h := range nodes {
		if saves, loads := h.handle.Ops(); saves != 10 || loads != 20 {
			t.Fatalf("%s: %d writes and %d reads in ten ticks, want 10 and 20", ids[i], saves, loads)
		}
		if h.co.Degraded() || h.co.Epoch() != 1 {
			t.Fatalf("%s: degraded=%v epoch %d in a healthy cluster", ids[i], h.co.Degraded(), h.co.Epoch())
		}
	}
}

// TestLeaseRecordRoundTrip pins the lease layout and the reader's
// checks: a record decodes to what was encoded, and one that is
// truncated, or stored under another node's name, is counted as a read
// failure and read as no lease, not as a failed store read.
func TestLeaseRecordRoundTrip(t *testing.T) {
	in := lease{node: Node{ID: "n2", Addr: "10.0.0.2:9127"}, epoch: 9, members: []string{"n1", "n2"}, counter: 1234}
	out, err := decodeLease(in.encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.node != in.node || out.epoch != 9 || out.counter != 1234 || !slices.Equal(out.members, in.members) {
		t.Fatalf("round trip: %+v, want %+v", out, in)
	}
	enc := in.encode()
	if _, err := decodeLease(enc[:len(enc)-1]); err == nil {
		t.Fatal("a truncated lease decoded")
	}

	h := newDetectorHarness(t, "n1", []string{"n1", "n2"}, DetectorConfig{})
	if err := h.shared.WriteLease(leaseName("n2"), enc); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.det.readLease("n2"); err != nil {
		t.Fatalf("n2's own lease: %v", err)
	}
	if err := h.shared.WriteLease(leaseName("n3"), enc); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := h.det.readLease("n3"); ok || err != nil {
		t.Fatalf("n2's record read as n3's lease: ok=%v err=%v, want no lease and no error", ok, err)
	}
	if c := h.det.Counters(); c.ReadFailures != 1 {
		t.Fatalf("read failures: %d, want 1", c.ReadFailures)
	}
}
