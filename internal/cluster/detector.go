package cluster

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"phasekit/internal/rng"
	"phasekit/internal/state"
)

// PeerState is a peer's position in the alive → suspect → dead ladder.
type PeerState uint8

const (
	// PeerAlive means the peer renewed its lease recently.
	PeerAlive PeerState = iota
	// PeerSuspect means the peer's lease has not been renewed for
	// SuspectAfter but not yet DeadAfter; the node reports itself
	// degraded but takes no action.
	PeerSuspect
	// PeerDead means the peer's lease has not been renewed for
	// DeadAfter; the initiator takes its streams over.
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
// form a ladder: a peer whose lease stands still past SuspectAfter is
// suspect, past DeadAfter it is taken over. The defaults trade ~6s of
// detection latency for near-zero false-positive risk; tests compress
// them a hundredfold.
type HealthPolicy struct {
	// Interval is the lease period. Each node renews its own lease and
	// reads its ring peers' once per interval, jittered over [Interval,
	// 1.25*Interval] so a same-instant cluster boot doesn't hit the
	// store in lockstep. Default 1s.
	Interval time.Duration
	// SuspectAfter is how long a peer's renewal counter may stand still
	// before the peer is suspect. Default 3*Interval: three missed
	// renewals.
	SuspectAfter time.Duration
	// DeadAfter is how long it may stand still before the peer is dead.
	// Default 2*SuspectAfter.
	DeadAfter time.Duration
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
	return p
}

// TagLease is the section tag of a lease record, distinct from the
// snapshot and fence tags.
const TagLease = byte(0xF6)

// leaseVersion is the only lease layout: tag, version, node ID,
// address, ring epoch, member IDs (count-prefixed), renewal counter.
const leaseVersion = 1

// lease is one node's liveness record in the shared store: who it is,
// the ring it serves, and a counter it bumps on every renewal.
type lease struct {
	node    Node
	epoch   uint64
	members []string
	counter uint64
}

// leaseName is the store name of a node's lease record.
func leaseName(id string) string { return "lease-" + id }

func (l lease) encode() []byte {
	e := state.AppendTo(nil)
	e.Section(TagLease, leaseVersion)
	e.String(l.node.ID)
	e.String(l.node.Addr)
	e.U64(l.epoch)
	e.U32(uint32(len(l.members)))
	for _, id := range l.members {
		e.String(id)
	}
	e.U64(l.counter)
	return e.Bytes()
}

func decodeLease(data []byte) (lease, error) {
	var l lease
	d := state.NewDecoder(data)
	if v := d.Section(TagLease, leaseVersion); v != 0 && v != leaseVersion {
		return l, fmt.Errorf("cluster: lease version %d, want %d", v, leaseVersion)
	}
	l.node = Node{ID: d.String(), Addr: d.String()}
	l.epoch = d.U64()
	n := d.Count(4) // a length-prefixed string is at least 4 bytes
	l.members = make([]string, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		l.members = append(l.members, d.String())
	}
	l.counter = d.U64()
	if err := d.Finish(); err != nil {
		return l, fmt.Errorf("cluster: lease record: %w", err)
	}
	return l, nil
}

// DetectorConfig configures one node's failure detector.
type DetectorConfig struct {
	// Coordinator is the node's cluster control plane; the detector
	// reads membership from it, keeps its lease in the coordinator's
	// fenced store, and calls Failover on deaths. Required.
	Coordinator *Coordinator
	// Policy sets the timing ladder; zero fields get defaults.
	Policy HealthPolicy
	// Now is the clock; nil means time.Now. Tests inject a manual one.
	Now func() time.Time
	// OnEvicted fires (once) when a peer's lease shows a higher epoch
	// whose ring no longer includes this node — the zombie-return
	// discovery path. A daemon should log and exit: its streams have
	// new owners and every checkpoint write it attempts will be fenced.
	OnEvicted func(epoch uint64)
	// OnLagging fires when a peer's lease shows a higher epoch that
	// still includes this node — the view is stale but the membership
	// is good. Nil means re-Join through the peer to catch up.
	OnLagging func(peer Node, epoch uint64)
	// Logf, if non-nil, receives detector diagnostics.
	Logf func(format string, args ...any)
}

// peerHealth is the detector's record of one peer.
type peerHealth struct {
	node    Node
	counter uint64    // the renewal counter last read from its lease
	seen    bool      // counter holds a value read from the store
	changed time.Time // when the counter was last seen to change (or the grace period last restarted)
	state   PeerState
}

// Detector is the failure detector. Every interval it renews this
// node's lease in the shared store — a small record bumping a renewal
// counter — and reads every ring peer's, walking a peer through alive
// → suspect → dead while its counter stands still on this node's own
// clock. The smallest alive ID takes a dead peer over.
//
// # Why the store decides
//
// The store already decides safety: takeover epochs are claimed there
// and the fence refuses stale writers. Deciding liveness there too
// means every observer looks at the same evidence, so a partition
// between peers cannot fake a death — a node its peers cannot reach
// but which renews its lease stays alive, and no vote is needed. A
// node that cannot reach the store is declared dead and fenced, which
// is right: it cannot checkpoint either. An observer whose own reads
// fail sees nothing that tick and declares nobody dead, and once it
// reads again every peer's grace period restarts: a store outage stops
// every renewal, so the time it lasted is no evidence. No clocks are
// compared: a counter that changed (even backwards, after a restart)
// is a renewal.
//
// The lease also carries what a peer knows about the ring: a higher
// epoch that drops this node means it was evicted, one that keeps it
// means this node is lagging, and a leaving node whose survivors all
// serve the ring without it finishes its own leave.
type Detector struct {
	coord     *Coordinator
	pol       HealthPolicy
	now       func() time.Time
	onEvicted func(epoch uint64)
	onLagging func(peer Node, epoch uint64)
	logf      func(format string, args ...any)

	mu      sync.Mutex
	peers   map[string]*peerHealth
	evicted bool
	blind   bool // a store read failed since the last clean tick

	stop chan struct{}
	done chan struct{}

	renewals, renewFailures, readFailures atomic.Uint64
	suspicions, deaths, failovers         atomic.Uint64
}

// NewDetector validates cfg and returns a stopped Detector; call Start
// for the background loop or Tick from a test harness. A coordinator
// whose store cannot arbitrate gets no detector (ErrNoArbiter): it has
// nowhere to keep leases, and no safe way to fail a node over.
func NewDetector(cfg DetectorConfig) (*Detector, error) {
	if cfg.Coordinator == nil {
		return nil, fmt.Errorf("cluster: detector needs a coordinator")
	}
	if !cfg.Coordinator.fence.CanArbitrate() {
		return nil, fmt.Errorf("%w: the failure detector keeps its leases in the shared store", ErrNoArbiter)
	}
	d := &Detector{
		coord:     cfg.Coordinator,
		pol:       cfg.Policy.withDefaults(),
		now:       cfg.Now,
		onEvicted: cfg.OnEvicted,
		onLagging: cfg.OnLagging,
		logf:      cfg.Logf,
		peers:     make(map[string]*peerHealth),
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

// Start runs the lease loop until Stop. Ticks are jittered over
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

// Stop halts the lease loop; the lease then stands still and the peers
// take the node over after DeadAfter. Safe to call on a never-started
// detector.
func (d *Detector) Stop() {
	d.mu.Lock()
	stop, done := d.stop, d.done
	d.stop, d.done = nil, nil
	d.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Tick runs one detector round synchronously: renew this node's lease,
// sync the peer table with the ring, read every peer's lease (serially,
// in ID order — deterministic for tests), apply state transitions, and
// take over any dead peer if this node is the initiator. Exported so
// tests drive the detector with a manual clock instead of the Start
// loop.
func (d *Detector) Tick() {
	self := d.coord.Self()
	ring := d.renew(self)
	epoch := ring.Epoch()
	members := ring.Nodes()

	// Sync the peer table with the ring: new members start alive with a
	// full grace period; departed members are forgotten.
	now := d.now()
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
			d.peers[n.ID] = &peerHealth{node: n, changed: now, state: PeerAlive}
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

	// left counts peers that already serve the ring this node is
	// leaving; blind is set when any store read failed.
	left, blind := 0, false
	for _, peer := range targets {
		rec, ok, err := d.readLease(peer.ID)
		if err != nil {
			d.readFailures.Add(1)
			d.log("detector: reading %s's lease: %v", peer.ID, err)
			blind = true
			continue
		}
		if !ok {
			continue // no usable lease: no renewal seen, the peer ages
		}
		d.observe(peer.ID, rec.counter, now)
		if rec.epoch <= epoch {
			continue
		}
		if !slices.Contains(rec.members, self.ID) {
			if d.coord.leaving(rec.epoch) {
				left++
				continue
			}
			d.fireEvicted(rec.epoch)
			return
		}
		d.log("detector: lagging behind %s (epoch %d < %d); catching up", peer.ID, epoch, rec.epoch)
		d.catchUp(rec.node, rec.epoch)
		// Membership may have changed under us; restart next tick.
		return
	}

	// Mid-leave, the push that flips this node follows the survivors'
	// flips. Once every survivor serves the ring without this node, that
	// push is overdue — lost, or its sender died — so finish the flip
	// here rather than hold this node's batches on the old ring.
	if left > 0 && left == len(targets) {
		d.log("detector: every survivor has left this node behind; finishing its leave")
		d.coord.finishLeave()
		return
	}
	// A tick this node could not read the store on is no evidence: a
	// standing counter and an unreadable one look alike from here.
	d.mu.Lock()
	if blind {
		d.blind = true
		d.mu.Unlock()
		return
	}
	// Only time this node could see counts: if the store was down, the
	// peers could not renew either, so every grace period restarts.
	if d.blind {
		d.log("detector: reading the store again; restarting every peer's grace period")
		for _, ph := range d.peers {
			ph.changed = now
		}
		d.blind = false
	}

	// One initiator per death: the smallest alive ID, self included.
	var dead []Node
	initiator := true
	for _, ph := range d.peers {
		age := now.Sub(ph.changed)
		switch {
		case age >= d.pol.DeadAfter && ph.state != PeerDead:
			d.log("detector: peer %s dead (lease still for %v)", ph.node.ID, age)
			ph.state = PeerDead
			d.deaths.Add(1)
		case age >= d.pol.SuspectAfter && ph.state == PeerAlive:
			d.log("detector: peer %s suspect (lease still for %v)", ph.node.ID, age)
			ph.state = PeerSuspect
			d.suspicions.Add(1)
		}
		if ph.state == PeerDead {
			dead = append(dead, ph.node)
		} else if ph.state == PeerAlive && ph.node.ID < self.ID {
			initiator = false
		}
	}
	d.mu.Unlock()
	if len(dead) == 0 || !initiator {
		return
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].ID < dead[j].ID })

	// Every observer reads the same leases, so they agree on the
	// initiator up to a tick of skew; two initiators racing Failover each
	// mint a distinct epoch through the store's exclusive-create arbiter,
	// and the higher one wins.
	took := false
	for _, n := range dead {
		d.log("detector: taking over for dead peer %s", n.ID)
		if _, err := d.coord.Failover(n.ID); err != nil {
			d.log("detector: failover for %s: %v", n.ID, err)
		} else {
			d.failovers.Add(1)
			took = true
		}
	}
	// Publish the new ring now rather than a tick later: the lease is how
	// a zombie learns it was evicted and a lagging node that it lags.
	if took {
		d.renew(self)
	}
}

// renew writes this node's lease at its current ring, bumping the
// renewal counter, and returns that ring.
func (d *Detector) renew(self Node) *Ring {
	ring := d.coord.Ring()
	members := ring.Nodes()
	own := lease{node: self, epoch: ring.Epoch(), members: make([]string, len(members)), counter: d.renewals.Add(1)}
	for i, n := range members {
		own.members[i] = n.ID
	}
	if err := d.coord.fence.WriteLease(leaseName(self.ID), own.encode()); err != nil {
		d.renewFailures.Add(1)
		d.log("detector: renewing lease: %v", err)
	}
	return ring
}

// readLease reads and decodes one peer's lease. Only a failed store
// read is an error: a record that does not decode (lease writes are not
// fsynced, so a power cut can tear one) or names another node is
// counted and treated as no lease, and the peer ages as usual.
func (d *Detector) readLease(id string) (lease, bool, error) {
	data, ok, err := d.coord.fence.ReadLease(leaseName(id))
	if err != nil || !ok {
		return lease{}, false, err
	}
	rec, err := decodeLease(data)
	if err == nil && rec.node.ID != id {
		err = fmt.Errorf("cluster: lease %q names node %q", leaseName(id), rec.node.ID)
	}
	if err != nil {
		d.readFailures.Add(1)
		d.log("detector: %s's lease is unusable: %v", id, err)
		return lease{}, false, nil
	}
	return rec, true, nil
}

// observe records a peer's renewal counter read at now. A counter that
// differs from the last one read is a renewal, and a suspect or dead
// peer that renews is alive again. The first read only sets the
// baseline: a lease left over from before registration proves nothing.
func (d *Detector) observe(id string, counter uint64, now time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ph, ok := d.peers[id]
	if !ok {
		return
	}
	if ph.seen && counter != ph.counter {
		ph.changed = now
		if ph.state != PeerAlive {
			d.log("detector: peer %s back to alive (was %s)", id, ph.state)
			ph.state = PeerAlive
		}
	}
	ph.counter, ph.seen = counter, true
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

// PeerStatus is one peer's health as reported by Status.
type PeerStatus struct {
	Node  Node
	State string
	// SinceRenewalMs is how long ago this node last saw the peer's
	// lease counter change (or registered the peer, or read the store
	// again after failing to), on its own clock.
	SinceRenewalMs int64
}

// PeerStatuses returns every tracked peer's health, sorted by ID.
func (d *Detector) PeerStatuses() []PeerStatus {
	now := d.now()
	d.mu.Lock()
	out := make([]PeerStatus, 0, len(d.peers))
	for _, ph := range d.peers {
		out = append(out, PeerStatus{
			Node:           ph.node,
			State:          ph.state.String(),
			SinceRenewalMs: now.Sub(ph.changed).Milliseconds(),
		})
	}
	d.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Node.ID < out[j].Node.ID })
	return out
}

// DetectorCounters are the detector's lifetime event counts.
type DetectorCounters struct {
	// Renewals counts this node's lease writes and RenewFailures those
	// that failed; ReadFailures counts peer lease reads that failed or
	// did not decode.
	Renewals      uint64
	RenewFailures uint64
	ReadFailures  uint64
	Suspicions    uint64
	Deaths        uint64
	Failovers     uint64
}

// Counters returns the detector's lifetime event counts.
func (d *Detector) Counters() DetectorCounters {
	return DetectorCounters{
		Renewals:      d.renewals.Load(),
		RenewFailures: d.renewFailures.Load(),
		ReadFailures:  d.readFailures.Load(),
		Suspicions:    d.suspicions.Load(),
		Deaths:        d.deaths.Load(),
		Failovers:     d.failovers.Load(),
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
