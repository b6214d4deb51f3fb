// Cluster-level fault injection: a Mesh models the network between a
// set of nodes as a table of directed links, each of which can drop,
// delay, or duplicate messages deterministically, or be severed
// one-way (the classic "A hears B, B cannot hear A" partition). A
// manual Clock stands in for time.Now so failure-detector tests step
// silence forward explicitly instead of sleeping.
//
// The Mesh does not carry traffic itself — it is a policy oracle.
// Chaos tests wrap a real transport (a detector Pinger) and ask the
// mesh to Judge each message; the verdict
// says deliver, drop, or deliver-twice, and how long to stall first.
// Determinism: per-link decisions come from a counter and a seeded
// xoshiro generator keyed by the link, so the same seed and the same
// message order reproduce the same faults regardless of goroutine
// interleaving elsewhere.
package faults

import (
	"sync"
	"time"

	"phasekit/internal/rng"
)

// Verdict is the mesh's decision for one message on one link.
type Verdict struct {
	// Drop means the message is lost: the sender should behave as if
	// the peer never answered (typically a timeout error).
	Drop bool
	// Duplicate means the message is delivered twice (deliver, then
	// deliver again). Exercises at-least-once handling.
	Duplicate bool
	// Delay is how long to stall before delivering.
	Delay time.Duration
}

// LinkSchedule configures one direction of one link.
type LinkSchedule struct {
	// DropEvery drops every Nth message on the link (1 = all). 0 = off.
	DropEvery int
	// DropProb drops each message with probability n/1000. 0 = off.
	DropProb int
	// DupEvery duplicates every Nth message. 0 = off.
	DupEvery int
	// Delay stalls every delivered message by this much.
	Delay time.Duration
}

// link is the mutable state of one directed pair.
type link struct {
	sched   LinkSchedule
	blocked bool
	count   uint64
	gen     *rng.Xoshiro256
}

// Mesh is a deterministic model of the links between named nodes. The
// zero value is unusable; use NewMesh. All methods are safe for
// concurrent use.
type Mesh struct {
	seed uint64

	mu    sync.Mutex
	links map[[2]string]*link

	dropped, duplicated, delivered uint64
}

// NewMesh returns a mesh whose per-link randomness derives from seed.
func NewMesh(seed uint64) *Mesh {
	return &Mesh{seed: seed, links: make(map[[2]string]*link)}
}

func (m *Mesh) link(from, to string) *link {
	key := [2]string{from, to}
	l, ok := m.links[key]
	if !ok {
		// Key the generator by the link so two links with the same
		// schedule fault at independent points.
		h := m.seed
		for _, s := range []string{from, "\x00", to} {
			for i := 0; i < len(s); i++ {
				h = h*1099511628211 ^ uint64(s[i])
			}
		}
		l = &link{gen: rng.NewXoshiro256(h)}
		m.links[key] = l
	}
	return l
}

// SetSchedule installs a fault schedule on the directed link from→to.
func (m *Mesh) SetSchedule(from, to string, sched LinkSchedule) {
	m.mu.Lock()
	m.link(from, to).sched = sched
	m.mu.Unlock()
}

// Block severs the directed link from→to: every message on it drops.
// The reverse direction is untouched — Block(a, b) alone makes a
// one-way partition where b still hears a.
func (m *Mesh) Block(from, to string) {
	m.mu.Lock()
	m.link(from, to).blocked = true
	m.mu.Unlock()
}

// BlockBoth severs both directions between a and b.
func (m *Mesh) BlockBoth(a, b string) {
	m.Block(a, b)
	m.Block(b, a)
}

// Heal restores the directed link from→to.
func (m *Mesh) Heal(from, to string) {
	m.mu.Lock()
	m.link(from, to).blocked = false
	m.mu.Unlock()
}

// HealBoth restores both directions between a and b.
func (m *Mesh) HealBoth(a, b string) {
	m.Heal(a, b)
	m.Heal(b, a)
}

// Isolate severs every existing and future link touching the node, in
// both directions, until Rejoin.
func (m *Mesh) Isolate(node string, peers ...string) {
	for _, p := range peers {
		m.BlockBoth(node, p)
	}
}

// Rejoin undoes Isolate.
func (m *Mesh) Rejoin(node string, peers ...string) {
	for _, p := range peers {
		m.HealBoth(node, p)
	}
}

// Judge decides the fate of the next message on the directed link
// from→to. It does not sleep; the caller applies the verdict's Delay
// if it cares about timing.
func (m *Mesh) Judge(from, to string) Verdict {
	m.mu.Lock()
	defer m.mu.Unlock()
	l := m.link(from, to)
	l.count++
	if l.blocked {
		m.dropped++
		return Verdict{Drop: true}
	}
	s := l.sched
	v := Verdict{Delay: s.Delay}
	if s.DropEvery > 0 && l.count%uint64(s.DropEvery) == 0 {
		v.Drop = true
	}
	if !v.Drop && s.DropProb > 0 && l.gen.Uint64n(1000) < uint64(s.DropProb) {
		v.Drop = true
	}
	if v.Drop {
		m.dropped++
		return Verdict{Drop: true, Delay: v.Delay}
	}
	if s.DupEvery > 0 && l.count%uint64(s.DupEvery) == 0 {
		v.Duplicate = true
		m.duplicated++
	}
	m.delivered++
	return v
}

// Stats reports how many messages the mesh delivered, dropped, and
// duplicated.
func (m *Mesh) Stats() (delivered, dropped, duplicated uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.delivered, m.dropped, m.duplicated
}

// Clock is a manual clock for deterministic failure-detector tests:
// Now returns a time that only moves when the test calls Advance. A
// frozen node's clock is one that simply stops advancing.
type Clock struct {
	mu  sync.Mutex
	now time.Time
}

// NewClock returns a clock starting at the given instant.
func NewClock(start time.Time) *Clock {
	return &Clock{now: start}
}

// Now returns the clock's current time. Pass the method value as a
// detector's Now hook.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d and returns the new time.
func (c *Clock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	return c.now
}
