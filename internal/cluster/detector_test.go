package cluster

// Failure-detector unit tests: deterministic Ticks driven by a manual
// clock and a scripted transport — no real time, no real sockets. The
// coordinator under test uses a tiny dial timeout because a confirmed
// failover propagates the new ring to (unreachable) peer addresses,
// which is logged, not fatal.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"phasekit/internal/faults"
	"phasekit/internal/fleet"
)

// scriptPinger scripts the detector's transport per peer.
type scriptPinger struct {
	mu    sync.Mutex
	ping  map[string]func() (PingReply, error)
	probe map[string]func(subject string) (ProbeReply, error)
}

func newScriptPinger() *scriptPinger {
	return &scriptPinger{
		ping:  make(map[string]func() (PingReply, error)),
		probe: make(map[string]func(subject string) (ProbeReply, error)),
	}
}

func (p *scriptPinger) Ping(self Node, epoch uint64, peer Node) (PingReply, error) {
	p.mu.Lock()
	fn := p.ping[peer.ID]
	p.mu.Unlock()
	if fn == nil {
		return PingReply{}, fmt.Errorf("unscripted ping to %s", peer.ID)
	}
	return fn()
}

func (p *scriptPinger) Probe(peer Node, subject string) (ProbeReply, error) {
	p.mu.Lock()
	fn := p.probe[peer.ID]
	p.mu.Unlock()
	if fn == nil {
		return ProbeReply{}, fmt.Errorf("unscripted probe to %s", peer.ID)
	}
	return fn(subject)
}

func (p *scriptPinger) set(peer string, fn func() (PingReply, error)) {
	p.mu.Lock()
	p.ping[peer] = fn
	p.mu.Unlock()
}

func alivePing() (PingReply, error) { return PingReply{Epoch: 1, Member: true}, nil }
func deadPing() (PingReply, error)  { return PingReply{}, fmt.Errorf("connection refused") }

// detectorHarness builds a coordinator + detector over a scripted
// transport and a manual clock.
type detectorHarness struct {
	co    *Coordinator
	det   *Detector
	clock *faults.Clock
	ping  *scriptPinger
	pol   HealthPolicy
}

func newDetectorHarness(t *testing.T, selfID string, memberIDs []string, cfg DetectorConfig) *detectorHarness {
	t.Helper()
	f := fleet.New(fleet.Config{Shards: 1, Tracker: coordTrackerConfig()})
	t.Cleanup(f.Close)
	nodes := make([]Node, len(memberIDs))
	for i, id := range memberIDs {
		nodes[i] = Node{ID: id, Addr: "127.0.0.1:1"} // refuses instantly
	}
	var self Node
	for _, n := range nodes {
		if n.ID == selfID {
			self = n
		}
	}
	// A MemStore-backed fence gives the coordinator the shared-store
	// epoch arbiter, so two-node self-confirmed takeovers are allowed
	// (without it they are refused with ErrNoArbiter — pinned by its own
	// test below).
	co, err := NewCoordinator(CoordinatorConfig{
		Self: self, Fleet: f, Initial: mustRing(t, 1, nodes),
		Fence:       NewFencedStore(fleet.NewMemStore(), 1),
		DialTimeout: 50 * time.Millisecond, OpTimeout: time.Second,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := &detectorHarness{
		co:    co,
		clock: faults.NewClock(time.Unix(1_000_000, 0)),
		ping:  newScriptPinger(),
		pol:   HealthPolicy{Interval: 50 * time.Millisecond, SuspectAfter: 200 * time.Millisecond, DeadAfter: 400 * time.Millisecond},
	}
	cfg.Coordinator = co
	cfg.Policy = h.pol
	cfg.Transport = h.ping
	cfg.Now = h.clock.Now
	cfg.Logf = t.Logf
	h.det, err = NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	co.AttachDetector(h.det)
	return h
}

// TestDetectorFailoverOnQuorumConfirmedDeath walks the full ladder:
// a silent peer goes suspect, then dead; the initiator (smallest alive
// ID) probes the other survivor, which agrees; the dead node is removed
// and the epoch advances — with no operator command anywhere.
func TestDetectorFailoverOnQuorumConfirmedDeath(t *testing.T) {
	h := newDetectorHarness(t, "n1", []string{"n1", "n2", "n3"}, DetectorConfig{})
	h.ping.set("n2", deadPing)
	h.ping.set("n3", alivePing)
	h.ping.probe["n3"] = func(subject string) (ProbeReply, error) {
		if subject != "n2" {
			t.Errorf("probe for %q, want n2", subject)
		}
		return ProbeReply{State: PeerDead, Age: time.Second, Known: true}, nil
	}

	h.det.Tick() // peers registered, n2 already failing
	if v := h.det.ViewOf("n2"); v.State != PeerAlive || !v.Known {
		t.Fatalf("n2 before silence threshold: %+v", v)
	}
	h.clock.Advance(h.pol.SuspectAfter + time.Millisecond)
	h.det.Tick()
	if v := h.det.ViewOf("n2"); v.State != PeerSuspect {
		t.Fatalf("n2 after suspect threshold: %+v", v)
	}
	if !h.co.Degraded() {
		t.Fatal("node not degraded with a suspect peer")
	}
	h.clock.Advance(h.pol.DeadAfter)
	h.det.Tick()

	if e := h.co.Epoch(); e != 2 {
		t.Fatalf("epoch after confirmed death: %d, want 2", e)
	}
	if _, ok := h.co.Ring().Node("n2"); ok {
		t.Fatal("n2 still a ring member after takeover")
	}
	st := h.co.Status()
	if st.TakeoversDone != 1 || st.TakeoverInFlight != 0 {
		t.Fatalf("takeover counters: %+v", st)
	}
	// The peer table prunes departed members at the next membership sync.
	h.det.Tick()
	if st = h.co.Status(); len(st.Peers) != 1 || st.Peers[0].Node.ID != "n3" {
		t.Fatalf("peer statuses after takeover: %+v", st.Peers)
	}
}

// TestDetectorQuorumDenial pins the one-way-partition guard: this node
// cannot reach the subject, but another observer can — its single
// "alive" report denies the death, no takeover happens, and the
// subject is demoted to suspect (degraded, not evicted).
func TestDetectorQuorumDenial(t *testing.T) {
	h := newDetectorHarness(t, "n1", []string{"n1", "n2", "n3"}, DetectorConfig{})
	h.ping.set("n2", deadPing)
	h.ping.set("n3", alivePing)
	h.ping.probe["n3"] = func(string) (ProbeReply, error) {
		return ProbeReply{State: PeerAlive, Age: 10 * time.Millisecond, Known: true}, nil
	}

	h.det.Tick()
	h.clock.Advance(h.pol.DeadAfter + time.Millisecond)
	h.det.Tick()

	if e := h.co.Epoch(); e != 1 {
		t.Fatalf("epoch after denied death: %d, want 1 (no takeover)", e)
	}
	if _, ok := h.co.Ring().Node("n2"); !ok {
		t.Fatal("n2 evicted despite a peer vouching for it")
	}
	if v := h.det.ViewOf("n2"); v.State != PeerSuspect {
		t.Fatalf("n2 after denial: %+v, want suspect", v)
	}
	if st := h.co.Status(); st.TakeoversDone != 0 || !st.Degraded {
		t.Fatalf("status after denial: takeovers=%d degraded=%v", st.TakeoversDone, st.Degraded)
	}
}

// TestDetectorTwoNodeSelfConfirm: with the only peer gone there are no
// other observers, so the initiator's own verdict stands and the
// takeover proceeds.
func TestDetectorTwoNodeSelfConfirm(t *testing.T) {
	h := newDetectorHarness(t, "n1", []string{"n1", "n2"}, DetectorConfig{})
	h.ping.set("n2", deadPing)

	h.det.Tick()
	h.clock.Advance(h.pol.DeadAfter + time.Millisecond)
	h.det.Tick()

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
	h.ping.set("n1", alivePing) // n1 is alive and smaller: it initiates
	h.ping.set("n3", deadPing)

	h.det.Tick()
	h.clock.Advance(h.pol.DeadAfter + time.Millisecond)
	h.det.Tick()

	if e := h.co.Epoch(); e != 1 {
		t.Fatalf("epoch: %d — non-initiator must not take over", e)
	}
	if v := h.det.ViewOf("n3"); v.State != PeerDead {
		t.Fatalf("n3 state on the non-initiator: %+v, want dead", v)
	}
}

// TestDetectorEvictedFiresOnce: a ping ack from a higher epoch that no
// longer includes this node means the cluster moved on without us —
// the zombie-return discovery. OnEvicted fires exactly once.
func TestDetectorEvictedFiresOnce(t *testing.T) {
	evictions := 0
	var evictedAt uint64
	h := newDetectorHarness(t, "n1", []string{"n1", "n2"}, DetectorConfig{
		OnEvicted: func(epoch uint64) { evictions++; evictedAt = epoch },
	})
	h.ping.set("n2", func() (PingReply, error) {
		return PingReply{Epoch: 7, Member: false}, nil
	})

	h.det.Tick()
	h.det.Tick()
	h.det.Tick()

	if evictions != 1 || evictedAt != 7 {
		t.Fatalf("OnEvicted fired %d times (epoch %d), want once at 7", evictions, evictedAt)
	}
}

// TestDetectorFinishesLeaveWhenFlipPushIsLost: a node that has
// migrated out for a ring without it (the first push of a live leave)
// is not evicted by peers answering from that ring. Once every
// survivor answers from it, the push that should flip the node is
// overdue, and the detector flips it instead. A peer answering from any
// later ring still evicts it.
func TestDetectorFinishesLeaveWhenFlipPushIsLost(t *testing.T) {
	var evictedAt uint64
	h := newDetectorHarness(t, "n1", []string{"n1", "n2", "n3"}, DetectorConfig{
		OnEvicted: func(epoch uint64) { evictedAt = epoch },
	})
	survivors := []Node{{ID: "n2", Addr: "127.0.0.1:1"}, {ID: "n3", Addr: "127.0.0.1:1"}}
	if changed, err := h.co.ApplyAssign(mustRing(t, 2, survivors)); changed || err != nil {
		t.Fatalf("first leave push: changed=%v err=%v", changed, err)
	}
	left := PingReply{Epoch: 2, Member: false}
	h.ping.set("n2", func() (PingReply, error) { return left, nil })
	h.ping.set("n3", func() (PingReply, error) { return PingReply{Epoch: 1, Member: true}, nil })
	h.det.Tick()
	if evictedAt != 0 || h.co.Epoch() != 1 {
		t.Fatalf("one survivor flipped: evicted at %d, epoch %d; want neither eviction nor flip", evictedAt, h.co.Epoch())
	}

	epoch := uint64(2)
	h.ping.set("n3", func() (PingReply, error) { return PingReply{Epoch: epoch, Member: false}, nil })
	h.det.Tick()
	if evictedAt != 0 || h.co.Epoch() != 2 {
		t.Fatalf("every survivor flipped: evicted at %d, epoch %d; want the flip to epoch 2", evictedAt, h.co.Epoch())
	}
	if h.co.leaving(2) {
		t.Fatal("the finished leave is still pending")
	}

	epoch = 3
	h.det.Tick()
	if evictedAt != 3 {
		t.Fatalf("evicted at epoch %d, want 3", evictedAt)
	}
}

// TestDetectorLaggingTriggersCatchUp: a higher-epoch ack that still
// includes this node is a stale view, not an eviction — the OnLagging
// hook (re-join by default) fires with the fresher peer.
func TestDetectorLaggingTriggersCatchUp(t *testing.T) {
	var laggedPeer Node
	var laggedEpoch uint64
	h := newDetectorHarness(t, "n1", []string{"n1", "n2"}, DetectorConfig{
		OnLagging: func(peer Node, epoch uint64) { laggedPeer, laggedEpoch = peer, epoch },
	})
	h.ping.set("n2", func() (PingReply, error) {
		return PingReply{Epoch: 3, Member: true}, nil
	})

	h.det.Tick()

	if laggedPeer.ID != "n2" || laggedEpoch != 3 {
		t.Fatalf("OnLagging(%q, %d), want (n2, 3)", laggedPeer.ID, laggedEpoch)
	}
}

// TestDetectorRecovery: a suspect peer that starts acking again returns
// to alive and the node stops reporting degraded.
func TestDetectorRecovery(t *testing.T) {
	h := newDetectorHarness(t, "n1", []string{"n1", "n2"}, DetectorConfig{})
	h.ping.set("n2", deadPing)

	h.det.Tick()
	h.clock.Advance(h.pol.SuspectAfter + time.Millisecond)
	h.det.Tick()
	if v := h.det.ViewOf("n2"); v.State != PeerSuspect {
		t.Fatalf("n2: %+v, want suspect", v)
	}
	h.ping.set("n2", alivePing)
	h.det.Tick()
	if v := h.det.ViewOf("n2"); v.State != PeerAlive {
		t.Fatalf("n2 after recovery: %+v, want alive", v)
	}
	if h.co.Degraded() {
		t.Fatal("still degraded after recovery")
	}
}

// TestDetectorObservePingDenies: hearing a peer's heartbeat counts as
// liveness even when we cannot reach it (one-way partition), so our
// probe answer vouches for it.
func TestDetectorObservePingDenies(t *testing.T) {
	h := newDetectorHarness(t, "n1", []string{"n1", "n2"}, DetectorConfig{})
	h.ping.set("n2", deadPing)

	h.det.Tick()
	h.clock.Advance(h.pol.DeadAfter / 2)
	// n2's heartbeat arrives inbound even though our outbound pings fail.
	h.det.ObservePing(Node{ID: "n2", Addr: "127.0.0.1:1"})
	h.clock.Advance(h.pol.SuspectAfter / 2)
	h.det.Tick()
	// Silence since the inbound ping is under SuspectAfter: still alive.
	if v := h.det.ViewOf("n2"); v.State != PeerAlive {
		t.Fatalf("n2 with inbound heartbeats: %+v, want alive", v)
	}
}

// TestDetectorObservePingSpoofRejected: an inbound ping only counts as
// liveness when the claimed ID is a ring member pinging from the ring's
// address for that ID. A spoofed ping — unknown ID, or a member's ID
// from the wrong address — must neither create a peer record nor
// refresh a silent peer, so it cannot veto a legitimate takeover.
func TestDetectorObservePingSpoofRejected(t *testing.T) {
	h := newDetectorHarness(t, "n1", []string{"n1", "n2"}, DetectorConfig{})
	h.ping.set("n2", deadPing)
	h.det.Tick()

	// Unknown ID: no record is created.
	h.det.ObservePing(Node{ID: "intruder", Addr: "127.0.0.1:1"})
	if v := h.det.ViewOf("intruder"); v.Known {
		t.Fatalf("spoofed unknown ID tracked: %+v", v)
	}

	// Known ID from the wrong address: n2's silence clock keeps running
	// and it still goes suspect on schedule.
	h.clock.Advance(h.pol.SuspectAfter / 2)
	h.det.ObservePing(Node{ID: "n2", Addr: "10.6.6.6:666"})
	h.clock.Advance(h.pol.SuspectAfter/2 + time.Millisecond)
	h.det.Tick()
	if v := h.det.ViewOf("n2"); v.State != PeerSuspect {
		t.Fatalf("n2 after spoofed refresh: %+v, want suspect", v)
	}
}

// TestDetectorRingConflictReconciled: a peer answering with the same
// epoch but a different membership hash exposes equal-epoch divergence
// (two partitions that minted the same number against separate stores).
// The smaller-ID side must repair it: merge the peer and mint a
// strictly higher epoch, so the other side's apply accepts the fix
// instead of rejecting a twin as stale.
func TestDetectorRingConflictReconciled(t *testing.T) {
	h := newDetectorHarness(t, "n1", []string{"n1", "n2"}, DetectorConfig{})
	ourEpoch := h.co.Epoch()
	h.ping.set("n2", func() (PingReply, error) {
		// Same epoch, a hash that cannot match ours (ours is never 0, and
		// a real divergent ring's hash differs; any nonzero foreign value
		// exercises the same path).
		return PingReply{Epoch: ourEpoch, Member: true, RingHash: h.co.Ring().Hash() + 1}, nil
	})

	h.det.Tick()

	if e := h.co.Epoch(); e <= ourEpoch {
		t.Fatalf("epoch after reconcile: %d, want > %d", e, ourEpoch)
	}
	if _, ok := h.co.Ring().Node("n2"); !ok {
		t.Fatal("n2 not a member after reconcile")
	}
	if c := h.det.Counters(); c.RingConflicts != 1 {
		t.Fatalf("RingConflicts = %d, want 1", c.RingConflicts)
	}
}

// TestDetectorRingConflictLargerIDHolds: the larger-ID side of an
// equal-epoch divergence leaves the repair to the smaller side (both
// consider each other members, so exactly one initiator suffices).
func TestDetectorRingConflictLargerIDHolds(t *testing.T) {
	h := newDetectorHarness(t, "n2", []string{"n1", "n2"}, DetectorConfig{})
	ourEpoch := h.co.Epoch()
	h.ping.set("n1", func() (PingReply, error) {
		return PingReply{Epoch: ourEpoch, Member: true, RingHash: h.co.Ring().Hash() + 1}, nil
	})

	h.det.Tick()

	if e := h.co.Epoch(); e != ourEpoch {
		t.Fatalf("epoch on the larger-ID side: %d, want %d (no reconcile)", e, ourEpoch)
	}
	if c := h.det.Counters(); c.RingConflicts != 0 {
		t.Fatalf("RingConflicts = %d, want 0", c.RingConflicts)
	}
}

// TestDetectorRingConflictEvictedSideRepairs: when the divergent peer
// no longer counts us a member, it will never ping us — so we repair
// even from the larger ID, re-admitting ourselves via the merge.
func TestDetectorRingConflictEvictedSideRepairs(t *testing.T) {
	h := newDetectorHarness(t, "n2", []string{"n1", "n2"}, DetectorConfig{})
	ourEpoch := h.co.Epoch()
	h.ping.set("n1", func() (PingReply, error) {
		return PingReply{Epoch: ourEpoch, Member: false, RingHash: h.co.Ring().Hash() + 1}, nil
	})

	h.det.Tick()

	if e := h.co.Epoch(); e <= ourEpoch {
		t.Fatalf("epoch after evicted-side reconcile: %d, want > %d", e, ourEpoch)
	}
	if c := h.det.Counters(); c.RingConflicts != 1 {
		t.Fatalf("RingConflicts = %d, want 1", c.RingConflicts)
	}
}
