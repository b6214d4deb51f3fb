// Package cluster is the ownership layer for a multi-node phasekitd
// deployment: which node owns which stream, and how that answer changes
// safely while traffic is in flight.
//
// The core type is the Ring — an immutable, epoch-numbered consistent-
// hash assignment of stream IDs to named nodes. Every membership change
// (join, leave, forced rebalance) produces a *new* Ring with a strictly
// higher epoch; nodes converge by adopting the highest epoch they have
// seen and never step backwards (see State.Advance). Because only
// ~1/N of the hash space moves on a membership change, most streams
// keep their owner across a rebalance and only the migrating minority
// pay a round trip through the shared store.
//
// Epochs are the fencing token for everything downstream: ASSIGN wire
// frames carry them, servers NACK stale ones, and FencedStore refuses
// checkpoint writes from a node whose view of the ring is older than
// what the shared store has already seen.
package cluster

import (
	"errors"
	"fmt"
	"sort"
)

// Errors reported by ring construction and epoch advancement.
var (
	// ErrStaleEpoch means an assignment older than (or conflicting
	// with) the one already adopted was rejected.
	ErrStaleEpoch = errors.New("cluster: stale epoch")
	// ErrUnknownNode means an operation referenced a node ID that is
	// not a ring member.
	ErrUnknownNode = errors.New("cluster: unknown node")
	// ErrDuplicateNode means two ring members share an ID.
	ErrDuplicateNode = errors.New("cluster: duplicate node id")
	// ErrEmptyRing means a ring was built or left with zero members.
	ErrEmptyRing = errors.New("cluster: ring has no nodes")
)

// Node is one cluster member: a stable identity plus the ingest address
// clients are redirected to.
type Node struct {
	ID   string
	Addr string
}

// vnodesPerNode is the number of virtual points each node contributes
// to the hash ring. 64 keeps the per-node ownership share within a few
// percent of 1/N for small clusters while the ring stays tiny (a
// 16-node ring is 1024 points, one binary search to resolve).
const vnodesPerNode = 64

// point is one virtual node: a position on the hash circle and the
// index of the member that owns the arc ending there.
type point struct {
	hash uint64
	node int32
}

// Ring is an immutable epoch-numbered assignment of the stream-ID hash
// space to a set of nodes. Methods never mutate; WithJoin/WithLeave
// return a successor ring at epoch+1. A Ring is safe for concurrent use.
type Ring struct {
	epoch  uint64
	nodes  []Node // sorted by ID
	points []point
}

// NewRing builds a ring over nodes at the given epoch. Node order does
// not matter (membership is canonicalized by sorting on ID), so two
// nodes that receive the same member set in different orders build
// byte-identical rings and agree on every owner.
func NewRing(epoch uint64, nodes []Node) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, ErrEmptyRing
	}
	sorted := make([]Node, len(nodes))
	copy(sorted, nodes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	for i, n := range sorted {
		if n.ID == "" {
			return nil, fmt.Errorf("%w: empty id (addr %q)", ErrUnknownNode, n.Addr)
		}
		if i > 0 && n.ID == sorted[i-1].ID {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateNode, n.ID)
		}
	}
	r := &Ring{
		epoch:  epoch,
		nodes:  sorted,
		points: make([]point, 0, len(sorted)*vnodesPerNode),
	}
	for i, n := range sorted {
		// Each vnode hashes "id\x00k" — the separator keeps "n1"+vnode
		// 11 from colliding with "n11"+vnode 1.
		h := fnvString(n.ID)
		h = fnvByte(h, 0)
		for k := 0; k < vnodesPerNode; k++ {
			r.points = append(r.points, point{hash: mix64(fnvByte(fnvByte(h, byte(k>>8)), byte(k))), node: int32(i)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) resolve by member index so every
		// node breaks them identically.
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// Epoch returns the ring's epoch number.
func (r *Ring) Epoch() uint64 { return r.epoch }

// Len returns the number of member nodes.
func (r *Ring) Len() int { return len(r.nodes) }

// Nodes returns the members sorted by ID. The slice is a copy.
func (r *Ring) Nodes() []Node {
	out := make([]Node, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// Node returns the member with the given ID.
func (r *Ring) Node(id string) (Node, bool) {
	i := sort.Search(len(r.nodes), func(i int) bool { return r.nodes[i].ID >= id })
	if i < len(r.nodes) && r.nodes[i].ID == id {
		return r.nodes[i], true
	}
	return Node{}, false
}

// Owner returns the node that owns stream.
func (r *Ring) Owner(stream string) Node {
	return r.nodes[r.ownerIdx(mix64(fnvString(stream)))]
}

// OwnerBytes is Owner for callers that hold the stream ID as bytes —
// the server's per-frame ownership check — and performs no allocation.
func (r *Ring) OwnerBytes(stream []byte) Node {
	return r.nodes[r.ownerIdx(mix64(fnvBytes(stream)))]
}

// Owns reports whether the node with the given ID owns stream.
func (r *Ring) Owns(id string, stream string) bool {
	return r.Owner(stream).ID == id
}

// ownerIdx resolves a stream hash to a member index: the first vnode at
// or after the hash on the circle, wrapping to the lowest point.
func (r *Ring) ownerIdx(h uint64) int32 {
	pts := r.points
	// Inlined binary search (sort.Search takes a closure, which would
	// allocate on the ingest hot path).
	lo, hi := 0, len(pts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pts[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(pts) {
		lo = 0
	}
	return pts[lo].node
}

// WithJoin returns a successor ring at epoch+1 with node added.
func (r *Ring) WithJoin(n Node) (*Ring, error) {
	if _, ok := r.Node(n.ID); ok {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateNode, n.ID)
	}
	return NewRing(r.epoch+1, append(r.Nodes(), n))
}

// WithLeave returns a successor ring at epoch+1 with the node removed.
func (r *Ring) WithLeave(id string) (*Ring, error) {
	if _, ok := r.Node(id); !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	nodes := make([]Node, 0, len(r.nodes)-1)
	for _, n := range r.nodes {
		if n.ID != id {
			nodes = append(nodes, n)
		}
	}
	if len(nodes) == 0 {
		return nil, ErrEmptyRing
	}
	return NewRing(r.epoch+1, nodes)
}

// WithEpoch returns a copy of the ring renumbered to the given epoch —
// the "forced rebalance" primitive: same membership, higher fence, so
// in-flight writers at the old epoch are invalidated.
func (r *Ring) WithEpoch(epoch uint64) *Ring {
	cp := *r
	cp.epoch = epoch
	return &cp
}

// SameMembers reports whether two rings have identical membership
// (IDs and addresses), ignoring epoch.
func (r *Ring) SameMembers(o *Ring) bool {
	if len(r.nodes) != len(o.nodes) {
		return false
	}
	for i := range r.nodes {
		if r.nodes[i] != o.nodes[i] {
			return false
		}
	}
	return true
}

// FNV-1a, the same function the fleet uses for shard placement, so the
// whole stack hashes stream IDs one way.
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

func fnvString(s string) uint64 {
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

func fnvBytes(b []byte) uint64 {
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

func fnvByte(h uint64, c byte) uint64 {
	h ^= uint64(c)
	h *= prime64
	return h
}

// mix64 is a bijective bit finalizer (splitmix64's) applied on top of
// FNV before ring placement. FNV-1a alone leaves the high bits of
// near-identical short keys — "n1#0", "n1#1", ... vnode labels —
// correlated, which clumps a node's points on one arc and skews
// ownership shares badly; the finalizer diffuses every input bit into
// the bits the circle search keys on.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
