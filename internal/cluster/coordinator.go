package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"phasekit/internal/backoff"
	"phasekit/internal/fleet"
	"phasekit/internal/rng"
	"phasekit/internal/wire"
)

// Default bounds for coordinator network and fleet operations.
const (
	DefaultDialTimeout = 5 * time.Second
	DefaultOpTimeout   = 10 * time.Second
)

// CoordinatorConfig configures one node's Coordinator.
type CoordinatorConfig struct {
	// Self is this node's identity; its ID must be a member of Initial.
	Self Node
	// Fleet is the stream engine whose streams the coordinator detaches
	// and adopts during rebalancing. Required.
	Fleet *fleet.Fleet
	// Initial is the ring to start from — usually a self-only ring at
	// epoch 1, replaced by the cluster's real assignment on Join.
	Initial *Ring
	// Fence is the epoch-stamped checkpoint store shared across nodes.
	// Required: every stream that changes node travels through it, and
	// ring epochs are minted through it. The coordinator advances its
	// epoch on every adopted ring.
	Fence *FencedStore
	// DialTimeout bounds each peer dial and control round trip. 0 means
	// DefaultDialTimeout.
	DialTimeout time.Duration
	// OpTimeout bounds each fleet detach/adopt. 0 means DefaultOpTimeout.
	OpTimeout time.Duration
	// Logf, if non-nil, receives coordination diagnostics.
	Logf func(format string, args ...any)
}

// Coordinator runs one node's side of the cluster control plane: it
// holds the node's ring view (State), answers the ingest hot path's
// ownership question, and moves streams through the shared fenced
// store when the ring changes.
//
// # Migrate, then flip
//
// Applying a new ring happens in a fixed order: first every resident
// stream this node loses is detached (fencing its batches) and its
// snapshot saved to the fenced store; only then does the ring view
// flip and the server start answering REDIRECT. A redirected client
// can therefore never reach the new owner before the stream's
// checkpoint does — the new owner rehydrates it lazily on the first
// batch. Batches that arrive mid-migration hit the fleet fence
// (fleet.ErrNotOwned) and the server holds them until the flip,
// bounded by its ingest timeout.
//
// The new owner must also already answer "mine" when the redirected
// client arrives, or it bounces the client back. Consistent hashing
// limits who can lose a stream to a peer still on the old ring: on a
// join only the joiner gains streams, and propagate flips it before
// any member that loses streams to it; a rebalance or failover moves
// nothing off a live node. The one remaining case is a live leave,
// which HandleLeave orders itself: the departed node migrates on the
// first push and flips only on a second one, after the survivors have
// flipped (see apply).
//
// A node claims what it gains before it flips: orphans of removed
// members from their final checkpoints, and streams it once handed
// away that come back to it. A joiner's gains are claimed from the
// store only on a replay of the ring pushed after every member has
// migrated, so a flush reaching it before a gained stream's first
// batch still closes the interval that stream's checkpoint holds.
//
// Membership changes (HandleJoin, HandleLeave, Rebalance) additionally
// propagate the new ring to every other member — and wait for their
// acknowledgements — before flipping locally. One membership change at
// a time: concurrent coordinated ops on different nodes race to a
// single winner by epoch, and the loser's operator retries.
type Coordinator struct {
	self        Node
	fleet       *fleet.Fleet
	state       *State
	fence       *FencedStore
	dialTimeout time.Duration
	opTimeout   time.Duration
	logf        func(format string, args ...any)

	// mu serializes ring changes (every Advance goes through apply),
	// making validate-migrate-flip atomic with respect to other changes.
	mu sync.Mutex

	// left is a ring without this node whose streams it has already
	// migrated out, waiting for the second push that flips it (see
	// apply); nil otherwise. Written under mu.
	left atomic.Pointer[Ring]

	// detector is attached after construction (it needs the coordinator
	// first); it may stay nil in tests or degraded configurations.
	detector *Detector

	// onTakeover runs after a membership change removed members and
	// their orphans were adopted, with the removed node IDs. phasekitd
	// uses it to replay the dead nodes' WAL tails (see cmd/phasekitd);
	// it runs on every survivor applying the assignment, under the ring
	// lock and against the already-flipped ring.
	onTakeover func(removed []string)

	assignsApplied, staleAssigns atomic.Uint64
	takeoversDone                atomic.Uint64
	takeoverInFlight             atomic.Int64
	orphansAdopted               atomic.Uint64
}

// NewCoordinator validates cfg and returns a Coordinator holding the
// initial ring.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Self.ID == "" {
		return nil, fmt.Errorf("cluster: coordinator needs a node ID")
	}
	if cfg.Fleet == nil {
		return nil, fmt.Errorf("cluster: coordinator needs a fleet")
	}
	if cfg.Initial == nil {
		return nil, fmt.Errorf("cluster: coordinator needs an initial ring")
	}
	if cfg.Fence == nil {
		return nil, fmt.Errorf("cluster: coordinator needs a shared fenced store")
	}
	if _, ok := cfg.Initial.Node(cfg.Self.ID); !ok {
		return nil, fmt.Errorf("%w: self %q not in initial ring", ErrUnknownNode, cfg.Self.ID)
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = DefaultOpTimeout
	}
	cfg.Fence.SetWriter(cfg.Self.ID)
	return &Coordinator{
		self:        cfg.Self,
		fleet:       cfg.Fleet,
		state:       NewState(cfg.Initial),
		fence:       cfg.Fence,
		dialTimeout: cfg.DialTimeout,
		opTimeout:   cfg.OpTimeout,
		logf:        cfg.Logf,
	}, nil
}

// ErrNoArbiter is returned when an operation requires shared-store
// epoch arbitration that the node's configuration cannot provide.
var ErrNoArbiter = errors.New("cluster: no shared-store arbiter")

// mintEpoch allocates the epoch for the next ring, claimed through the
// shared store (see FencedStore.AllocateEpoch), so concurrent minters
// on partitioned nodes end up with distinct, totally ordered epochs.
// Over a store that cannot arbitrate it is the local successor, safe
// only because such configurations refuse the races that need
// arbitration (see Failover).
func (c *Coordinator) mintEpoch(cur *Ring) (uint64, error) {
	return c.fence.AllocateEpoch(cur.Epoch(), c.self.ID)
}

// AttachDetector wires the failure detector in after construction, so
// Status can report peer health and Degraded can consult it.
func (c *Coordinator) AttachDetector(d *Detector) { c.detector = d }

// AttachTakeoverHook registers fn to run after any applied membership
// change that removed members, with their node IDs. It must not call
// back into membership operations (it runs under the ring lock);
// ownership queries and fleet sends are fine.
func (c *Coordinator) AttachTakeoverHook(fn func(removed []string)) { c.onTakeover = fn }

func (c *Coordinator) log(format string, args ...any) {
	if c.logf != nil {
		c.logf(format, args...)
	}
}

// Self returns this node's identity.
func (c *Coordinator) Self() Node { return c.self }

// Ring returns the current ring view.
func (c *Coordinator) Ring() *Ring { return c.state.Ring() }

// Epoch returns the current ring's epoch.
func (c *Coordinator) Epoch() uint64 { return c.state.Epoch() }

// OwnerIfRemote answers the server's per-frame ownership question: if
// another node owns stream, it returns that node's ingest address and
// true. It allocates nothing.
func (c *Coordinator) OwnerIfRemote(stream []byte) (addr string, remote bool) {
	n := c.state.Ring().OwnerBytes(stream)
	if n.ID == c.self.ID {
		return "", false
	}
	return n.Addr, true
}

// OwnerIfRemoteString is OwnerIfRemote for callers holding the stream
// ID as a string.
func (c *Coordinator) OwnerIfRemoteString(stream string) (addr string, remote bool) {
	n := c.state.Ring().Owner(stream)
	if n.ID == c.self.ID {
		return "", false
	}
	return n.Addr, true
}

// ApplyAssign applies an assignment pushed by a peer (an ASSIGN frame):
// validate, migrate lost streams, flip. It returns (true, nil) when the
// view changed, (false, nil) for an idempotent replay (which claims the
// streams the ring gave this node from the store, see adoptStored), and
// ErrStaleEpoch for an older or conflicting assignment.
func (c *Coordinator) ApplyAssign(next *Ring) (bool, error) {
	if !c.mu.TryLock() {
		// A coordinated change is in flight on this node: it holds mu
		// while it pushes its own ring to peers. Two nodes doing that
		// at each other would each wait on the other's ack forever, so
		// retry briefly and then refuse instead.
		locked := false
		for i := 0; i < 40 && !locked; i++ {
			time.Sleep(25 * time.Millisecond)
			locked = c.mu.TryLock()
		}
		if !locked {
			return false, fmt.Errorf("cluster: coordination in progress on %s; retry", c.self.ID)
		}
	}
	defer c.mu.Unlock()
	return c.apply(next, false)
}

// apply is the validate-migrate-(propagate)-flip sequence. Callers hold
// c.mu.
//
// A ring that drops this node is applied in two pushes (HandleLeave
// sends both). The first migrates every stream out but does not flip,
// so the fleet fence holds this node's batches instead of redirecting
// them to survivors that still name this node as the owner; it
// returns (false, nil). The second push of the same epoch flips, after
// the survivors have, and the held batches are redirected to owners
// that already serve them.
func (c *Coordinator) apply(next *Ring, propagate bool) (bool, error) {
	cur := c.state.Ring()
	if next.Epoch() == cur.Epoch() && next.SameMembers(cur) {
		c.adoptStored(next)
		return false, nil // idempotent replay of the current assignment
	}
	if next.Epoch() <= cur.Epoch() {
		c.staleAssigns.Add(1)
		return false, fmt.Errorf("%w: assignment epoch %d, current %d",
			ErrStaleEpoch, next.Epoch(), cur.Epoch())
	}
	c.migrate(next)
	if _, member := next.Node(c.self.ID); !member && !c.leaving(next.Epoch()) {
		c.left.Store(next)
		return false, nil
	}
	if propagate {
		c.propagate(cur, next)
	}
	// The fence moves first, so a takeover re-stamp lands at the new
	// epoch; claiming comes before the flip, so a peer that sees this
	// node at the new epoch (a ping ack) knows it serves its share.
	var removed []string
	for _, n := range cur.Nodes() {
		if _, ok := next.Node(n.ID); !ok {
			removed = append(removed, n.ID)
		}
	}
	c.fence.SetEpoch(next.Epoch())
	c.adoptGained(cur, next, len(removed) > 0)
	if _, err := c.state.Advance(next); err != nil {
		return false, err // unreachable: c.mu serializes advances
	}
	c.left.Store(nil)
	c.assignsApplied.Add(1)
	if c.onTakeover != nil && len(removed) > 0 {
		c.onTakeover(removed)
	}
	return true, nil
}

// leaving reports whether this node has migrated its streams out for a
// ring at epoch that drops it, and awaits the push that flips it.
func (c *Coordinator) leaving(epoch uint64) bool {
	r := c.left.Load()
	return r != nil && r.Epoch() == epoch
}

// finishLeave flips a node that migrated out for a ring without it when
// the push that should flip it never came. The caller (the failure
// detector) has seen every survivor serve that ring.
func (c *Coordinator) finishLeave() {
	next := c.left.Load()
	if next == nil {
		return
	}
	if _, err := c.ApplyAssign(next); err != nil {
		c.log("leave: finishing the flip to epoch %d: %v", next.Epoch(), err)
	}
}

// adoptGained claims, before the flip, what a ring change gives this
// node and must be claimed at once: every stream that cur assigned to a
// member next no longer has (removedAny reports there is one) and next
// assigns here, and every stream this node once handed away that next
// returns to it, whose detach fence must lift. The orphans' inventory
// is the shared store's listing, which holds every stream a removed
// node checkpointed, including those a live departed node saved on its
// way out; they are adopted (adoptOrphan), their checkpoints being
// final. A returning stream that is no orphan is only released — its
// holder may not have saved it yet — and is claimed from the store by
// the replay that follows the migration (adoptStored).
func (c *Coordinator) adoptGained(cur, next *Ring, removedAny bool) {
	if removedAny {
		names, err := c.fence.List()
		if err != nil {
			c.log("takeover: store inventory: %v", err)
		}
		for _, s := range names {
			if _, kept := next.Node(cur.Owner(s).ID); !kept && next.Owner(s).ID == c.self.ID {
				c.adoptOrphan(s)
			}
		}
	}
	for _, s := range c.fleet.DetachedStreams() {
		if next.Owner(s).ID != c.self.ID {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), c.opTimeout)
		if err := c.fleet.ReleaseStream(ctx, s); err != nil {
			c.log("release %q: %v", s, err)
		}
		cancel()
	}
}

// adoptStored adopts every stream in the shared store that next assigns
// to this node and the fleet does not hold, lazily: the stream counts as
// pending, so a flush before its first batch arrives here still closes
// the partial interval its checkpoint may hold. It runs on a replay of
// the current ring, which propagate sends a joiner after every member
// has saved the streams it lost — only then are their checkpoints
// current.
func (c *Coordinator) adoptStored(next *Ring) {
	names, err := c.fence.List()
	if err != nil {
		c.log("adopt: store inventory: %v", err)
		return
	}
	held := make(map[string]bool)
	for _, s := range c.fleet.Streams() {
		held[s] = true
	}
	for _, s := range names {
		if held[s] || next.Owner(s).ID != c.self.ID {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), c.opTimeout)
		if err := c.fleet.AdoptStream(ctx, s, nil); err != nil {
			c.log("adopt %q: %v", s, err)
		}
		cancel()
	}
}

// adoptOrphan claims one stream from a removed member. The first thing
// that happens to its shared-store checkpoint is a re-save at the new
// epoch — the zombie fence: from that point a not-actually-dead owner
// writing at its old epoch is refused, before the adopted stream has
// served a single batch. The re-stamp gates the adoption: if it cannot
// be made to stick (retries exhausted, or a higher epoch already owns
// the stream), the stream is not adopted at all — serving it unfenced
// would let a returning zombie interleave at the old epoch. Nor is a
// stream whose checkpoint cannot be read: it could never be re-stamped,
// and every later checkpoint of it would fail. A skipped stream
// rehydrates lazily once its first batch arrives, where an unreadable
// checkpoint quarantines it loudly. A stream whose checkpoint has
// vanished since the listing is adopted with nothing to re-stamp.
func (c *Coordinator) adoptOrphan(stream string) {
	ctx, cancel := context.WithTimeout(context.Background(), c.opTimeout)
	defer cancel()
	snap, ok, err := c.fence.Load(nil, stream)
	if err != nil {
		c.log("takeover %q: store read failed, adoption skipped: %v", stream, err)
		return
	}
	if ok {
		if err := c.saveFenced(stream, snap); err != nil {
			c.log("takeover %q: fence re-stamp failed, adoption skipped: %v", stream, err)
			return
		}
	}
	if aerr := c.fleet.AdoptStream(ctx, stream, nil); aerr != nil {
		c.log("takeover %q: adopt: %v", stream, aerr)
		return
	}
	c.orphansAdopted.Add(1)
}

// Failover removes a confirmed-dead member and adopts its streams —
// HandleLeave without the courtesy push to the departed (it is dead;
// dialing it would burn a timeout per takeover). Called by the failure
// detector after quorum confirmation; survivors receiving the
// propagated assignment each adopt their own share of the orphans.
// If the member is already gone (a concurrent initiator won the race),
// the current ring is returned unchanged.
func (c *Coordinator) Failover(id string) (*Ring, error) {
	if id == c.self.ID {
		return nil, fmt.Errorf("cluster: node %s cannot fail itself over", id)
	}
	c.takeoverInFlight.Add(1)
	defer c.takeoverInFlight.Add(-1)
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.state.Ring()
	if _, ok := cur.Node(id); !ok {
		return cur, nil
	}
	// On a two-node ring a partition makes both sides sole initiators of
	// each other's death, and only the shared store can break the tie.
	// Without one, automatic failover is refused outright: the operator
	// decides which side survives (HandleLeave), trading availability for
	// never splitting the brain.
	if cur.Len() == 2 && !c.fence.CanArbitrate() {
		return nil, fmt.Errorf("%w: refusing automatic failover of %s on a two-node ring; remove it with an operator leave", ErrNoArbiter, id)
	}
	next, err := cur.WithLeave(id)
	if err != nil {
		return nil, err
	}
	epoch, err := c.mintEpoch(cur)
	if err != nil {
		return nil, fmt.Errorf("cluster: takeover of %s: %w", id, err)
	}
	next = next.WithEpoch(epoch)
	if _, err := c.apply(next, true); err != nil {
		return nil, err
	}
	c.takeoversDone.Add(1)
	c.log("takeover: removed dead node %s; epoch %d", id, next.Epoch())
	return next, nil
}

// ReconcileConflict repairs an equal-epoch ring disagreement observed
// by the failure detector: a peer answered a ping with this node's
// epoch but a different membership hash. The repair is deterministic —
// re-admit the peer (it is provably alive; it just answered) and mint a
// strictly higher epoch through the arbiter, then propagate. Whichever
// side reconciles first wins outright: the other side's apply accepts
// the higher epoch instead of rejecting a twin as stale, and a
// simultaneous reconcile on both sides allocates distinct epochs, the
// larger of which absorbs the smaller on the next ping.
func (c *Coordinator) ReconcileConflict(peer Node) (*Ring, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.state.Ring()
	nodes := cur.Nodes()
	if _, ok := cur.Node(peer.ID); !ok {
		nodes = append(nodes, peer)
	}
	epoch, err := c.mintEpoch(cur)
	if err != nil {
		return nil, fmt.Errorf("cluster: reconcile with %s: %w", peer.ID, err)
	}
	next, err := NewRing(epoch, nodes)
	if err != nil {
		return nil, err
	}
	if _, err := c.apply(next, true); err != nil {
		return nil, err
	}
	c.log("reconcile: divergent ring at equal epoch; merged %s, now epoch %d", peer.ID, epoch)
	return next, nil
}

// migrate detaches every resident stream that next assigns elsewhere
// and saves its snapshot to the fenced store, where the new owner
// rehydrates it lazily on the stream's first batch. A stream whose save
// cannot be made to stick is re-adopted locally — stranded but intact
// beats lost.
func (c *Coordinator) migrate(next *Ring) {
	for _, s := range c.fleet.Streams() {
		owner := next.Owner(s)
		if owner.ID == c.self.ID {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), c.opTimeout)
		snap, err := c.fleet.DetachStream(ctx, s)
		cancel()
		if err != nil {
			c.log("migrate %q: detach: %v", s, err)
			continue
		}
		if snap == nil {
			continue // the stream has no state anywhere: nothing to move
		}
		serr := c.saveFenced(s, snap)
		if serr == nil {
			continue
		}
		ctx, cancel = context.WithTimeout(context.Background(), c.opTimeout)
		if aerr := c.fleet.AdoptStream(ctx, s, snap); aerr != nil {
			c.log("migrate %q: STREAM STATE LOST: save failed (%v), re-adopt failed: %v", s, serr, aerr)
		} else {
			c.log("migrate %q: stranded on %s (owner %s): save failed: %v", s, c.self.ID, owner.ID, serr)
		}
		cancel()
	}
}

// saveFenced writes one stream's snapshot through the fence, retrying a
// failed write with jittered backoff. A stale-epoch refusal ends the
// retries at once: a newer owner already holds the stream.
func (c *Coordinator) saveFenced(stream string, snap []byte) error {
	jitter := rng.NewSplitMix64(fnvString(stream)).Uint64
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff.Delay(10*time.Millisecond, 40*time.Millisecond, attempt-1, jitter))
		}
		if err = c.fence.Save(stream, snap); err == nil || errors.Is(err, ErrStaleEpoch) {
			return err
		}
	}
	return err
}

// propagate pushes next to every other member and waits for each
// acknowledgement, so every peer has migrated and flipped before the
// caller flips. Members that next adds to cur are pushed first and
// again last. The first push flips a joiner before any member that
// loses streams to it redirects a client there — a node rejoining
// after a leave still runs a ring without itself and would bounce the
// client back. The last push, a replay, comes after every member has
// saved what it lost, so the joiner then claims those streams from the
// store (adoptStored). Failures are logged, not fatal: a dead peer
// catches up from the shared store, a lagging one from the next push.
func (c *Coordinator) propagate(cur, next *Ring) {
	var added, kept []Node
	for _, n := range next.Nodes() {
		if n.ID == c.self.ID {
			continue
		}
		if _, ok := cur.Node(n.ID); ok {
			kept = append(kept, n)
		} else {
			added = append(added, n)
		}
	}
	for _, group := range [][]Node{added, kept, added} {
		for _, n := range group {
			if err := c.pushAssign(n.Addr, next); err != nil {
				c.log("assign push to %s (%s): %v", n.ID, n.Addr, err)
			}
		}
	}
}

// pushAssign sends next to one peer's ingest port and waits for its
// ack.
func (c *Coordinator) pushAssign(addr string, next *Ring) error {
	cl, err := wire.Dial(addr, c.dialTimeout)
	if err != nil {
		return err
	}
	defer cl.Close()
	return cl.SendAssign(InfoFromRing(next))
}

// Join announces this node to an existing cluster through any of the
// given peer ingest addresses and adopts the assignment the seed
// replies with. ctx bounds the whole attempt, including dial retries
// against a peer that is still starting.
func (c *Coordinator) Join(ctx context.Context, peers []string) error {
	var firstErr error
	for _, addr := range peers {
		cl, err := wire.DialRetry(ctx, addr, c.dialTimeout)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		info, err := cl.SendJoin(wire.NodeInfo{ID: c.self.ID, Addr: c.self.Addr})
		cl.Close()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		next, err := RingFromInfo(info)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		// The seed usually pushed this ring to us before replying, so
		// an idempotent replay here is the common case.
		if _, err := c.ApplyAssign(next); err != nil && !errors.Is(err, ErrStaleEpoch) {
			return fmt.Errorf("cluster: join via %s: %w", addr, err)
		}
		return nil
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("no peers given")
	}
	return fmt.Errorf("cluster: join failed: %w", firstErr)
}

// HandleJoin runs the seed's side of a JOIN: build the successor ring
// with the joiner (replacing a stale address on rejoin), migrate,
// propagate, flip, and return the ring for the reply. A replay with the
// joiner already a member at the same address returns the current ring
// unchanged.
func (c *Coordinator) HandleJoin(n Node) (*Ring, error) {
	if n.ID == "" || n.Addr == "" {
		return nil, fmt.Errorf("%w: join needs an id and address", ErrUnknownNode)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.state.Ring()
	if existing, ok := cur.Node(n.ID); ok && existing.Addr == n.Addr {
		return cur, nil
	}
	nodes := make([]Node, 0, cur.Len()+1)
	for _, m := range cur.Nodes() {
		if m.ID != n.ID {
			nodes = append(nodes, m)
		}
	}
	nodes = append(nodes, n)
	epoch, err := c.mintEpoch(cur)
	if err != nil {
		return nil, fmt.Errorf("cluster: join of %s: %w", n.ID, err)
	}
	next, err := NewRing(epoch, nodes)
	if err != nil {
		return nil, err
	}
	if _, err := c.apply(next, true); err != nil {
		return nil, err
	}
	return next, nil
}

// HandleLeave removes a member and rebalances. The departed node — if
// still alive — is pushed the new ring twice. The first push makes it
// save every stream it owns to the shared store without flipping, so
// it holds its batches; then the survivors apply the ring and adopt
// those streams; the second push flips it, and its held batches are
// redirected to owners that already serve them. A dead node's streams
// are adopted from its last checkpoints instead. A node cannot remove
// itself (drain it with SIGTERM instead, which checkpoints to the
// shared store).
func (c *Coordinator) HandleLeave(id string) (*Ring, error) {
	if id == c.self.ID {
		return nil, fmt.Errorf("cluster: node %s cannot remove itself; drain it instead", id)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.state.Ring()
	departed, ok := cur.Node(id)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	next, err := cur.WithLeave(id)
	if err != nil {
		return nil, err
	}
	epoch, err := c.mintEpoch(cur)
	if err != nil {
		return nil, fmt.Errorf("cluster: leave of %s: %w", id, err)
	}
	next = next.WithEpoch(epoch)
	// Departed first: it holds the data and must save it before the
	// survivors adopt. If it is already dead this just fails and the
	// survivors take over from its last checkpoints.
	departedUp := true
	if err := c.pushAssign(departed.Addr, next); err != nil {
		departedUp = false
		c.log("leave %s: departed unreachable (%v); survivors adopt its checkpoints", id, err)
	}
	if _, err := c.apply(next, true); err != nil {
		return nil, err
	}
	if departedUp {
		if err := c.pushAssign(departed.Addr, next); err != nil {
			c.log("leave %s: flip push: %v", id, err)
		}
	}
	return next, nil
}

// HandlePing answers a peer heartbeat: this node's epoch, whether the
// sender is a member of its ring, and the ring's membership hash (so
// the sender can detect equal-epoch divergence). Hearing a ping also
// counts as liveness evidence for the sender — under a one-way
// partition where this node can hear a peer but not reach it, the peer
// stays alive in this node's view, and this node denies its death to
// any initiator.
func (c *Coordinator) HandlePing(from Node, epoch uint64) (uint64, bool, uint64) {
	if c.detector != nil {
		c.detector.ObservePing(from)
	}
	r := c.state.Ring()
	_, member := r.Node(from.ID)
	return r.Epoch(), member, r.Hash()
}

// HandleProbe answers a quorum probe with this node's opinion of
// subject. Without a detector every subject is unknown (an abstention,
// not a denial).
func (c *Coordinator) HandleProbe(subject string) ProbeReply {
	if c.detector == nil {
		return ProbeReply{}
	}
	return c.detector.ViewOf(subject)
}

// Degraded reports whether the node is running in a reduced state: a
// takeover is in flight, or the failure detector sees any peer as
// suspect or dead. /readyz surfaces it without failing the check — a
// node suspecting a peer is still fully able to serve.
func (c *Coordinator) Degraded() bool {
	if c.takeoverInFlight.Load() > 0 {
		return true
	}
	return c.detector != nil && c.detector.AnyUnhealthy()
}

// Rebalance renumbers the current membership to a fresh epoch and
// propagates it — the fencing primitive: no streams move, but every
// writer still on the old epoch is invalidated at the shared store.
func (c *Coordinator) Rebalance() (*Ring, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.state.Ring()
	epoch, err := c.mintEpoch(cur)
	if err != nil {
		return nil, fmt.Errorf("cluster: rebalance: %w", err)
	}
	next := cur.WithEpoch(epoch)
	if _, err := c.apply(next, true); err != nil {
		return nil, err
	}
	return next, nil
}

// Status is a point-in-time picture of the node's cluster view, served
// by the admin endpoint and the /metricz Cluster section.
type Status struct {
	// Node is this node's identity; Epoch and Nodes describe the
	// adopted ring.
	Node  Node
	Epoch uint64
	Nodes []Node
	// ResidentStreams counts streams live in this node's fleet;
	// OwnedStreams counts how many of those the ring assigns here (the
	// difference is mid-migration). Streams moved in and out are the
	// fleet's Adopts and Detaches.
	ResidentStreams int
	OwnedStreams    int
	// AssignsApplied counts adopted ring flips; StaleAssigns counts
	// rejected stale assignments.
	AssignsApplied uint64
	StaleAssigns   uint64
	// Peers is the failure detector's per-peer view and Health its
	// lifetime counters (nil when no detector is attached).
	Peers  []PeerStatus      `json:",omitempty"`
	Health *DetectorCounters `json:",omitempty"`
	// TakeoversDone counts automatic failovers this node initiated;
	// TakeoverInFlight is nonzero while one runs. OrphansAdopted counts
	// streams claimed from removed members' shared-store checkpoints.
	TakeoversDone    uint64
	TakeoverInFlight int64
	OrphansAdopted   uint64
	// Degraded mirrors Coordinator.Degraded.
	Degraded bool
}

// Status returns the node's current cluster view and counters.
func (c *Coordinator) Status() Status {
	r := c.state.Ring()
	streams := c.fleet.Streams()
	owned := 0
	for _, s := range streams {
		if r.Owner(s).ID == c.self.ID {
			owned++
		}
	}
	var peers []PeerStatus
	var health *DetectorCounters
	if c.detector != nil {
		peers = c.detector.PeerStatuses()
		hc := c.detector.Counters()
		health = &hc
	}
	return Status{
		Node:             c.self,
		Epoch:            r.Epoch(),
		Nodes:            r.Nodes(),
		ResidentStreams:  len(streams),
		OwnedStreams:     owned,
		AssignsApplied:   c.assignsApplied.Load(),
		StaleAssigns:     c.staleAssigns.Load(),
		Peers:            peers,
		Health:           health,
		TakeoversDone:    c.takeoversDone.Load(),
		TakeoverInFlight: c.takeoverInFlight.Load(),
		OrphansAdopted:   c.orphansAdopted.Load(),
		Degraded:         c.Degraded(),
	}
}

// RingFromInfo builds a Ring from its wire form.
func RingFromInfo(info wire.RingInfo) (*Ring, error) {
	nodes := make([]Node, len(info.Nodes))
	for i, n := range info.Nodes {
		nodes[i] = Node{ID: n.ID, Addr: n.Addr}
	}
	return NewRing(info.Epoch, nodes)
}

// InfoFromRing converts a Ring to its wire form.
func InfoFromRing(r *Ring) wire.RingInfo {
	nodes := r.Nodes()
	info := wire.RingInfo{Epoch: r.Epoch(), Nodes: make([]wire.NodeInfo, len(nodes))}
	for i, n := range nodes {
		info.Nodes[i] = wire.NodeInfo{ID: n.ID, Addr: n.Addr}
	}
	return info
}
