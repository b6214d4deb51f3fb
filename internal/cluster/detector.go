package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"phasekit/internal/rng"
	"phasekit/internal/wire"
)

// PeerState is a peer's position in the alive → suspect → dead ladder.
type PeerState uint8

const (
	// PeerAlive means the peer acked a heartbeat recently.
	PeerAlive PeerState = iota
	// PeerSuspect means the peer has missed heartbeats past SuspectAfter
	// but not yet DeadAfter; the node reports itself degraded but takes
	// no action.
	PeerSuspect
	// PeerDead means the peer has been silent past DeadAfter; the
	// detector seeks quorum confirmation and then triggers takeover.
	PeerDead
)

// String returns the state's lowercase name.
func (s PeerState) String() string {
	switch s {
	case PeerAlive:
		return "alive"
	case PeerSuspect:
		return "suspect"
	case PeerDead:
		return "dead"
	}
	return fmt.Sprintf("peerstate(%d)", uint8(s))
}

// HealthPolicy sets the failure detector's timing. The three durations
// form a ladder: a peer silent past SuspectAfter is suspect, past
// DeadAfter it is a takeover candidate (subject to quorum). The
// defaults trade ~4s of detection latency for near-zero false-positive
// risk on a LAN; tests compress them a hundredfold.
type HealthPolicy struct {
	// Interval is the heartbeat period. Each node pings every peer once
	// per interval, jittered over [Interval, 1.25*Interval] so a
	// same-instant cluster boot doesn't ping in lockstep. Default 1s.
	Interval time.Duration
	// SuspectAfter is the silence threshold for alive → suspect.
	// Default 3*Interval: three consecutive lost heartbeats.
	SuspectAfter time.Duration
	// DeadAfter is the silence threshold for suspect → dead. Default
	// 2*SuspectAfter.
	DeadAfter time.Duration
	// PingTimeout bounds one ping round trip. Default Interval (a ping
	// slower than the heartbeat period is as good as lost).
	PingTimeout time.Duration
}

func (p HealthPolicy) withDefaults() HealthPolicy {
	if p.Interval <= 0 {
		p.Interval = time.Second
	}
	if p.SuspectAfter <= 0 {
		p.SuspectAfter = 3 * p.Interval
	}
	if p.DeadAfter <= 0 {
		p.DeadAfter = 2 * p.SuspectAfter
	}
	if p.PingTimeout <= 0 {
		p.PingTimeout = p.Interval
	}
	return p
}

// PingReply is a peer's answer to a heartbeat: its ring epoch, whether
// it still considers the pinger a member at that epoch, and its ring's
// membership hash. The hash is how equal-epoch divergence — two rings
// with the same number but different members, which the epoch
// comparison cannot see — gets detected. Zero means the transport did
// not carry it (Ring.Hash is never zero).
type PingReply struct {
	Epoch    uint64
	Member   bool
	RingHash uint64
}

// ProbeReply is a peer's second-hand opinion of a third node, used for
// quorum confirmation before a takeover.
type ProbeReply struct {
	State PeerState
	Age   time.Duration
	Known bool
}

// Pinger is the detector's transport. The production implementation
// speaks the wire protocol; tests substitute a scripted one (often
// gated through a faults.Mesh).
type Pinger interface {
	// Ping delivers one heartbeat to peer, identifying the sender and
	// its epoch, and returns the peer's view.
	Ping(self Node, epoch uint64, peer Node) (PingReply, error)
	// Probe asks peer for its opinion of subject (a node ID).
	Probe(peer Node, subject string) (ProbeReply, error)
}

// wirePinger is the production Pinger: cached wire connections, one per
// peer, dropped on any error so the next tick redials.
type wirePinger struct {
	timeout time.Duration
	mu      sync.Mutex
	conns   map[string]*wire.Client
}

func newWirePinger(timeout time.Duration) *wirePinger {
	return &wirePinger{timeout: timeout, conns: make(map[string]*wire.Client)}
}

func (w *wirePinger) conn(addr string) (*wire.Client, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if cl, ok := w.conns[addr]; ok {
		return cl, nil
	}
	cl, err := wire.Dial(addr, w.timeout)
	if err != nil {
		return nil, err
	}
	w.conns[addr] = cl
	return cl, nil
}

func (w *wirePinger) drop(addr string) {
	w.mu.Lock()
	if cl, ok := w.conns[addr]; ok {
		cl.Close()
		delete(w.conns, addr)
	}
	w.mu.Unlock()
}

func (w *wirePinger) Ping(self Node, epoch uint64, peer Node) (PingReply, error) {
	cl, err := w.conn(peer.Addr)
	if err != nil {
		return PingReply{}, err
	}
	res, err := cl.SendPing(wire.NodeInfo{ID: self.ID, Addr: self.Addr}, epoch)
	if err != nil {
		w.drop(peer.Addr)
		return PingReply{}, err
	}
	return PingReply{Epoch: res.Epoch, Member: res.Member, RingHash: res.RingHash}, nil
}

func (w *wirePinger) Probe(peer Node, subject string) (ProbeReply, error) {
	cl, err := w.conn(peer.Addr)
	if err != nil {
		return ProbeReply{}, err
	}
	res, err := cl.SendProbe(subject)
	if err != nil {
		w.drop(peer.Addr)
		return ProbeReply{}, err
	}
	return ProbeReply{State: PeerState(res.State), Age: res.Age, Known: res.Known}, nil
}

// Close drops every cached connection.
func (w *wirePinger) Close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for addr, cl := range w.conns {
		cl.Close()
		delete(w.conns, addr)
	}
}

// DetectorConfig configures one node's failure detector.
type DetectorConfig struct {
	// Coordinator is the node's cluster control plane; the detector
	// reads membership from it and calls Failover on confirmed deaths.
	// Required.
	Coordinator *Coordinator
	// Policy sets the timing ladder; zero fields get defaults.
	Policy HealthPolicy
	// Transport delivers pings and probes. Nil means the wire protocol.
	Transport Pinger
	// Now is the clock; nil means time.Now. Tests inject a manual one.
	Now func() time.Time
	// OnEvicted fires (once) when a peer's ping ack reveals this node
	// was evicted from the ring at a higher epoch — the zombie-return
	// discovery path. A daemon should log and exit: its streams have
	// new owners and every checkpoint write it attempts will be fenced.
	OnEvicted func(epoch uint64)
	// OnLagging fires when a peer acks from a higher epoch that still
	// includes this node — the view is stale but the membership is
	// good. Nil means re-Join through the peer to catch up.
	OnLagging func(peer Node, epoch uint64)
	// Logf, if non-nil, receives detector diagnostics.
	Logf func(format string, args ...any)
}

// peerHealth is the detector's record of one peer.
type peerHealth struct {
	node       Node
	lastAck    time.Time
	lastChange time.Time
	state      PeerState
}

// Detector is the failure detector: it heartbeats every ring peer,
// walks each through alive → suspect → dead on silence, and — after
// confirming a death with a quorum of the surviving members — triggers
// the coordinator's takeover.
//
// # Quorum confirmation
//
// A node that cannot reach a peer cannot tell "the peer died" from "my
// link to the peer died". Before acting on a dead verdict, the node
// with the smallest ID among the locally-alive members (one initiator,
// so concurrent takeovers don't race) probes every other surviving
// member for its opinion of the subject. The death is confirmed only
// if a majority of the observers (the members minus the subject,
// including the initiator itself) see the subject as suspect or dead —
// and any single "alive" report denies it outright. A one-way
// partition that blinds only this node therefore cannot evict a
// healthy peer. In a two-node cluster there are no other observers and
// the initiator's own verdict stands — but only when a shared store can
// arbitrate the takeover epoch: both partitioned survivors race to
// claim the next epoch number exclusively, the loser ends up strictly
// above or refused, and the fence totally orders their writes. Without
// an arbitrating store the coordinator refuses two-node automatic
// failover outright (ErrNoArbiter) and leaves the call to the operator,
// because two symmetric survivors would otherwise each self-confirm and
// write at the same epoch.
type Detector struct {
	coord     *Coordinator
	pol       HealthPolicy
	transport Pinger
	ownsWire  *wirePinger // closed on Stop when we built the transport
	now       func() time.Time
	onEvicted func(epoch uint64)
	onLagging func(peer Node, epoch uint64)
	logf      func(format string, args ...any)

	mu      sync.Mutex
	peers   map[string]*peerHealth
	evicted bool

	stop chan struct{}
	done chan struct{}

	pings, ackFailures atomic.Uint64
	suspicions, deaths atomic.Uint64
	failovers, denials atomic.Uint64
	ringConflicts      atomic.Uint64
}

// NewDetector validates cfg and returns a stopped Detector; call Start
// for the background loop or Tick from a test harness.
func NewDetector(cfg DetectorConfig) (*Detector, error) {
	if cfg.Coordinator == nil {
		return nil, fmt.Errorf("cluster: detector needs a coordinator")
	}
	pol := cfg.Policy.withDefaults()
	d := &Detector{
		coord:     cfg.Coordinator,
		pol:       pol,
		transport: cfg.Transport,
		now:       cfg.Now,
		onEvicted: cfg.OnEvicted,
		onLagging: cfg.OnLagging,
		logf:      cfg.Logf,
		peers:     make(map[string]*peerHealth),
	}
	if d.transport == nil {
		d.ownsWire = newWirePinger(pol.PingTimeout)
		d.transport = d.ownsWire
	}
	if d.now == nil {
		d.now = time.Now
	}
	return d, nil
}

func (d *Detector) log(format string, args ...any) {
	if d.logf != nil {
		d.logf(format, args...)
	}
}

// Start runs the heartbeat loop until Stop. Ticks are jittered over
// [Interval, 1.25*Interval] from a generator seeded by the node ID, so
// a cluster booted in lockstep de-synchronizes deterministically.
func (d *Detector) Start() {
	d.mu.Lock()
	if d.stop != nil {
		d.mu.Unlock()
		return
	}
	d.stop = make(chan struct{})
	d.done = make(chan struct{})
	stop, done := d.stop, d.done
	d.mu.Unlock()
	gen := rng.NewSplitMix64(fnvString(d.coord.Self().ID))
	go func() {
		defer close(done)
		for {
			base := d.pol.Interval
			delay := base + time.Duration(gen.Uint64()%uint64(base/4+1))
			t := time.NewTimer(delay)
			select {
			case <-stop:
				t.Stop()
				return
			case <-t.C:
			}
			d.Tick()
		}
	}()
}

// Stop halts the heartbeat loop and closes the detector's own wire
// connections. Safe to call on a never-started detector.
func (d *Detector) Stop() {
	d.mu.Lock()
	stop, done := d.stop, d.done
	d.stop, d.done = nil, nil
	d.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	if d.ownsWire != nil {
		d.ownsWire.Close()
	}
}

// Tick runs one detector round synchronously: sync membership, ping
// every peer (serially, in ID order — deterministic for tests), apply
// state transitions, and confirm-and-take-over any dead peer if this
// node is the initiator. Exported so tests drive the detector with a
// manual clock instead of the Start loop.
func (d *Detector) Tick() {
	self := d.coord.Self()
	ring := d.coord.Ring()
	epoch := ring.Epoch()
	now := d.now()

	// Sync the peer table with the ring: new members start alive with a
	// full grace period; departed members are forgotten.
	members := ring.Nodes()
	d.mu.Lock()
	inRing := make(map[string]bool, len(members))
	for _, n := range members {
		if n.ID == self.ID {
			continue
		}
		inRing[n.ID] = true
		if ph, ok := d.peers[n.ID]; ok {
			ph.node = n
		} else {
			d.peers[n.ID] = &peerHealth{node: n, lastAck: now, lastChange: now, state: PeerAlive}
		}
	}
	for id := range d.peers {
		if !inRing[id] {
			delete(d.peers, id)
		}
	}
	targets := make([]Node, 0, len(d.peers))
	for _, ph := range d.peers {
		targets = append(targets, ph.node)
	}
	d.mu.Unlock()
	sort.Slice(targets, func(i, j int) bool { return targets[i].ID < targets[j].ID })

	// Ping outside the lock: a slow peer must not block ObservePing or
	// ViewOf (the probe handler) on other connections. leftAcks counts
	// peers that already serve the ring this node is leaving.
	leftAcks := 0
	for _, peer := range targets {
		d.pings.Add(1)
		rep, err := d.transport.Ping(self, epoch, peer)
		if err != nil {
			d.ackFailures.Add(1)
			continue
		}
		d.mu.Lock()
		if ph, ok := d.peers[peer.ID]; ok {
			ph.lastAck = d.now()
			if ph.state != PeerAlive {
				d.log("detector: peer %s back to alive (was %s)", peer.ID, ph.state)
				ph.state = PeerAlive
				ph.lastChange = ph.lastAck
			}
		}
		d.mu.Unlock()
		if rep.Epoch > epoch {
			if !rep.Member {
				if d.coord.leaving(rep.Epoch) {
					leftAcks++
					continue
				}
				d.fireEvicted(rep.Epoch)
				return
			}
			d.log("detector: lagging behind %s (epoch %d < %d); catching up", peer.ID, epoch, rep.Epoch)
			d.catchUp(peer, rep.Epoch)
			// Membership may have changed under us; restart next tick.
			return
		}
		// Same epoch, different membership: the divergence the epoch
		// comparison is blind to (two partitions that each minted the same
		// number against separate stores). Exactly one side repairs it —
		// the one the peer evicted (the peer will never ping us, so no one
		// else can), otherwise the smaller ID — by merging the peer in at
		// a strictly higher arbitrated epoch.
		if rep.Epoch == epoch && rep.RingHash != 0 && rep.RingHash != ring.Hash() {
			if !rep.Member || self.ID < peer.ID {
				d.ringConflicts.Add(1)
				d.log("detector: ring conflict with %s at epoch %d (hash %x != %x); reconciling",
					peer.ID, epoch, rep.RingHash, ring.Hash())
				if _, err := d.coord.ReconcileConflict(peer); err != nil {
					d.log("detector: reconcile with %s: %v", peer.ID, err)
				}
				// Membership changed under us; restart next tick.
				return
			}
		}
	}

	// Mid-leave, the push that flips this node follows the survivors'
	// flips. Once every survivor serves the ring without this node, that
	// push is overdue — lost, or its sender died — so finish the flip
	// here rather than hold this node's batches on the old ring.
	if leftAcks > 0 && leftAcks == len(targets) {
		d.log("detector: every survivor has left this node behind; finishing its leave")
		d.coord.finishLeave()
		return
	}

	// Transitions by silence age.
	now = d.now()
	var dead []Node
	d.mu.Lock()
	for _, ph := range d.peers {
		age := now.Sub(ph.lastAck)
		switch {
		case age >= d.pol.DeadAfter && ph.state != PeerDead:
			d.log("detector: peer %s dead (silent %v)", ph.node.ID, age)
			ph.state = PeerDead
			ph.lastChange = now
			d.deaths.Add(1)
		case age >= d.pol.SuspectAfter && ph.state == PeerAlive:
			d.log("detector: peer %s suspect (silent %v)", ph.node.ID, age)
			ph.state = PeerSuspect
			ph.lastChange = now
			d.suspicions.Add(1)
		}
		if ph.state == PeerDead {
			dead = append(dead, ph.node)
		}
	}
	d.mu.Unlock()
	if len(dead) == 0 {
		return
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].ID < dead[j].ID })

	// One initiator per death: the smallest locally-alive ID. Everyone
	// computes this from their own view; disagreement at worst means two
	// initiators race Failover, each minting a distinct epoch through the
	// store's exclusive-create arbiter — the higher one wins when the
	// rings meet, and an equal-epoch twin (possible only without the
	// arbiter) is caught by the ping ring hash and reconciled.
	if !d.isInitiator(self.ID) {
		return
	}
	for _, n := range dead {
		if d.confirmDeath(self, n) {
			d.log("detector: taking over for dead peer %s", n.ID)
			if _, err := d.coord.Failover(n.ID); err != nil {
				d.log("detector: failover for %s: %v", n.ID, err)
			} else {
				d.failovers.Add(1)
			}
		} else {
			d.denials.Add(1)
			d.log("detector: death of %s denied by quorum; keeping it suspect", n.ID)
			// A peer vouched for the subject: our link is the problem.
			// Demote to suspect so the node reports degraded without
			// re-initiating every tick.
			d.mu.Lock()
			if ph, ok := d.peers[n.ID]; ok && ph.state == PeerDead {
				ph.state = PeerSuspect
				ph.lastChange = d.now()
			}
			d.mu.Unlock()
		}
	}
}

// isInitiator reports whether id is the smallest locally-alive member
// ID (self counts as alive).
func (d *Detector) isInitiator(id string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for pid, ph := range d.peers {
		if ph.state == PeerAlive && pid < id {
			return false
		}
	}
	return true
}

// confirmDeath seeks quorum for the subject's death: every other
// observer (members minus the subject) is probed; a majority of the
// observer set — which includes this initiator — must report suspect
// or dead, and any single alive report denies. With no other
// observers (two-node cluster) the initiator's own verdict stands.
func (d *Detector) confirmDeath(self, subject Node) bool {
	d.mu.Lock()
	var others []Node
	for _, ph := range d.peers {
		if ph.node.ID != subject.ID {
			others = append(others, ph.node)
		}
	}
	d.mu.Unlock()
	sort.Slice(others, func(i, j int) bool { return others[i].ID < others[j].ID })
	observers := len(others) + 1 // + self
	agree := 1                   // self saw it dead
	for _, peer := range others {
		rep, err := d.transport.Probe(peer, subject.ID)
		if err != nil {
			continue // unreachable observer abstains
		}
		if !rep.Known {
			continue
		}
		if rep.State == PeerAlive {
			d.log("detector: %s reports %s alive (ack %v ago); denying death", peer.ID, subject.ID, rep.Age)
			return false
		}
		agree++
	}
	return agree > observers/2
}

// fireEvicted invokes OnEvicted exactly once.
func (d *Detector) fireEvicted(epoch uint64) {
	d.mu.Lock()
	already := d.evicted
	d.evicted = true
	d.mu.Unlock()
	if already {
		return
	}
	d.log("detector: evicted from the ring at epoch %d", epoch)
	if d.onEvicted != nil {
		d.onEvicted(epoch)
	}
}

// catchUp reconciles a stale local view with a peer at a higher epoch:
// the default re-Joins through the peer, adopting its assignment.
func (d *Detector) catchUp(peer Node, epoch uint64) {
	if d.onLagging != nil {
		d.onLagging(peer, epoch)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), d.coord.opTimeout)
	defer cancel()
	if err := d.coord.Join(ctx, []string{peer.Addr}); err != nil {
		d.log("detector: catch-up join via %s: %v", peer.ID, err)
	}
}

// ObservePing refreshes the sender's liveness from an incoming
// heartbeat — receiving a ping is as good as an ack, so a one-way
// partition where we can hear a peer but not reach it keeps the peer
// alive in our view (and lets us deny its death to an initiator).
//
// The claimed identity is checked against the ring before it counts:
// only a sender whose ID is a member and whose address matches the
// ring's record for that ID is liveness evidence. Anything else — an
// unknown ID, or a known ID claimed from the wrong address — is
// dropped, so a stray or spoofed ping cannot resurrect a dead peer and
// veto its takeover. The tracked record uses the ring's address, never
// the claimed one.
func (d *Detector) ObservePing(from Node) {
	rec, member := d.coord.Ring().Node(from.ID)
	if !member || rec.Addr != from.Addr {
		return
	}
	now := d.now()
	d.mu.Lock()
	defer d.mu.Unlock()
	ph, ok := d.peers[from.ID]
	if !ok {
		// A member we have not synced into the peer table yet (its ping
		// beat our first Tick on the new ring): remember it alive so
		// probes about it answer truthfully.
		d.peers[from.ID] = &peerHealth{node: rec, lastAck: now, lastChange: now, state: PeerAlive}
		return
	}
	ph.lastAck = now
	if ph.state != PeerAlive {
		ph.state = PeerAlive
		ph.lastChange = now
	}
}

// ViewOf answers a probe: this node's opinion of subject.
func (d *Detector) ViewOf(subject string) ProbeReply {
	d.mu.Lock()
	defer d.mu.Unlock()
	ph, ok := d.peers[subject]
	if !ok {
		return ProbeReply{}
	}
	return ProbeReply{State: ph.state, Age: d.now().Sub(ph.lastAck), Known: true}
}

// PeerStatus is one peer's health as reported by Status.
type PeerStatus struct {
	Node      Node
	State     string
	LastAckMs int64
}

// PeerStatuses returns every tracked peer's health, sorted by ID.
func (d *Detector) PeerStatuses() []PeerStatus {
	now := d.now()
	d.mu.Lock()
	out := make([]PeerStatus, 0, len(d.peers))
	for _, ph := range d.peers {
		out = append(out, PeerStatus{
			Node:      ph.node,
			State:     ph.state.String(),
			LastAckMs: now.Sub(ph.lastAck).Milliseconds(),
		})
	}
	d.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Node.ID < out[j].Node.ID })
	return out
}

// DetectorCounters are the detector's lifetime event counts.
type DetectorCounters struct {
	Pings       uint64
	AckFailures uint64
	Suspicions  uint64
	Deaths      uint64
	Failovers   uint64
	Denials     uint64
	// RingConflicts counts equal-epoch membership divergences detected
	// (and repaired) through the ping ring hash.
	RingConflicts uint64
}

// Counters returns the detector's lifetime event counts.
func (d *Detector) Counters() DetectorCounters {
	return DetectorCounters{
		Pings:         d.pings.Load(),
		AckFailures:   d.ackFailures.Load(),
		Suspicions:    d.suspicions.Load(),
		Deaths:        d.deaths.Load(),
		Failovers:     d.failovers.Load(),
		Denials:       d.denials.Load(),
		RingConflicts: d.ringConflicts.Load(),
	}
}

// AnyUnhealthy reports whether any peer is currently suspect or dead.
func (d *Detector) AnyUnhealthy() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, ph := range d.peers {
		if ph.state != PeerAlive {
			return true
		}
	}
	return false
}
