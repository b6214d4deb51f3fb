package wire

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phasekit/internal/trace"
)

// killNode is a wire server whose script may also kill the connection:
// returning kill for a frame closes the conn with no verdict, leaving
// that frame (and everything behind it) unacknowledged. The listener
// stays up, so a reconnecting client redials the same address.
type killNode struct {
	t  *testing.T
	ln net.Listener
	wg sync.WaitGroup

	mu       sync.Mutex
	accepted []Batch
	seen     int
	script   func(nth int, b Batch) killVerdict
	// Control frames: flushAt records len(accepted) at each flush; a
	// flush with killFlush set kills the node (listener and connection).
	// A JOIN is answered with ring; an ASSIGN older than ring.Epoch is
	// refused with NackStaleEpoch, a newer one is adopted.
	flushAt   []int
	killFlush bool
	ring      RingInfo
	joins     int
}

// killVerdict is a script's answer to one batch. kill cuts the
// connection with no verdict; die acknowledges the batch, then cuts the
// connection and closes the listener; redirect refuses it with a
// REDIRECT naming that owner.
type killVerdict struct {
	kill     bool
	die      bool
	redirect string
}

func newKillNode(t *testing.T, script func(nth int, b Batch) killVerdict) *killNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := &killNode{t: t, ln: ln, script: script}
	n.wg.Add(1)
	go n.acceptLoop()
	t.Cleanup(func() { ln.Close(); n.wg.Wait() })
	return n
}

func (n *killNode) addr() string { return n.ln.Addr().String() }

func (n *killNode) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.serve(conn)
		}()
	}
}

func (n *killNode) serve(conn net.Conn) {
	defer conn.Close()
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(conn, magic); err != nil || string(magic) != Magic {
		return
	}
	var rbuf, out []byte
	for {
		payload, err := ReadFrame(conn, rbuf, 0)
		if err != nil {
			return
		}
		rbuf = payload[:0]
		fr, err := DecodeFrame(payload)
		if err != nil {
			return
		}
		out = out[:0]
		die := false
		switch fr.Tag {
		case TagBatch:
			n.mu.Lock()
			nth := n.seen
			n.seen++
			v := n.script(nth, fr.Batch)
			if !v.kill && v.redirect == "" {
				n.accepted = append(n.accepted, fr.Batch)
			}
			n.mu.Unlock()
			die = v.die
			switch {
			case v.kill:
				return // cut the connection: no verdict for this frame
			case v.redirect != "":
				out = AppendNackFrame(out, fr.Seq, NackRedirect, v.redirect)
			default:
				out = AppendAckFrame(out, fr.Seq)
			}
		case TagFlush:
			n.mu.Lock()
			n.flushAt = append(n.flushAt, len(n.accepted))
			kill := n.killFlush
			n.mu.Unlock()
			if kill {
				n.ln.Close()
				return
			}
			out = AppendAckFrame(out, fr.Seq)
		case TagJoin:
			n.mu.Lock()
			n.joins++
			out = AppendAssignFrame(out, fr.Seq, n.ring)
			n.mu.Unlock()
		case TagAssign:
			n.mu.Lock()
			if fr.Ring.Epoch < n.ring.Epoch {
				out = AppendNackFrame(out, fr.Seq, NackStaleEpoch, "stale ring")
			} else {
				n.ring = fr.Ring
				out = AppendAckFrame(out, fr.Seq)
			}
			n.mu.Unlock()
		default:
			out = AppendNackFrame(out, fr.Seq, NackMalformed, "unexpected tag")
		}
		if _, err := conn.Write(out); err != nil {
			return
		}
		if die {
			n.ln.Close()
			return
		}
	}
}

func (n *killNode) acceptedPCs() []uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	var pcs []uint64
	for _, b := range n.accepted {
		pcs = append(pcs, b.Events[0].PC)
	}
	return pcs
}

// TestClientReconnectReplaysInOrder: a mid-window connection cut is
// survived by redialing and replaying the unacked frames in their
// original order — nothing lost, nothing reordered. Delivery is
// at-least-once: an ack the cut destroyed in flight means its frame is
// replayed and lands twice, so the assertion allows duplicates but
// demands every frame present and the arrival order monotone.
func TestClientReconnectReplaysInOrder(t *testing.T) {
	n := newKillNode(t, func(nth int, _ Batch) killVerdict {
		if nth == 2 {
			return killVerdict{kill: true}
		}
		return killVerdict{}
	})
	c, err := Dial(n.addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.FollowRedirects(nil) // retains frames, making them replayable
	c.Reconnect = ReconnectPolicy{MaxAttempts: 5, Backoff: 5 * time.Millisecond}
	c.Window = 4

	const total = 8
	for i := 0; i < total; i++ {
		ev := []trace.BranchEvent{{PC: uint64(2000 + i), Instrs: 10}}
		if err := c.QueueBatch("s", 0, ev, false); err != nil {
			t.Fatalf("queue %d: %v", i, err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	got := n.acceptedPCs()
	present := make(map[uint64]bool, len(got))
	for i, pc := range got {
		present[pc] = true
		if i > 0 && pc < got[i-1] {
			t.Fatalf("replay reordered frames: %v", got)
		}
	}
	for i := 0; i < total; i++ {
		if !present[uint64(2000+i)] {
			t.Fatalf("batch pc %d lost across the cut: %v", 2000+i, got)
		}
	}
}

// TestClientReconnectDisabledFailsHard pins the zero-value behavior: no
// policy means a cut is a hard error, exactly as before the policy
// existed.
func TestClientReconnectDisabledFailsHard(t *testing.T) {
	n := newKillNode(t, func(nth int, _ Batch) killVerdict {
		return killVerdict{kill: nth == 0}
	})
	c, err := Dial(n.addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SendBatch("s", 0, []trace.BranchEvent{{PC: 1, Instrs: 1}}, false); err == nil {
		t.Fatal("connection cut with reconnection disabled returned nil")
	}
}

// TestClientReconnectBudgetExhausted: when the peer stays down past
// MaxAttempts, the client reports a hard error instead of retrying
// forever.
func TestClientReconnectBudgetExhausted(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		magic := make([]byte, len(Magic))
		io.ReadFull(conn, magic)
		// Read one frame, then cut the connection and stop listening:
		// the peer is gone for good.
		var rbuf []byte
		ReadFrame(conn, rbuf, 0)
		conn.Close()
		ln.Close()
	}()
	t.Cleanup(func() { ln.Close(); wg.Wait() })

	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.FollowRedirects(nil)
	c.Reconnect = ReconnectPolicy{MaxAttempts: 3, Backoff: time.Millisecond}
	c.sleepFn = func(time.Duration) {} // no real backoff sleeps in tests

	if err := c.SendBatch("s", 0, []trace.BranchEvent{{PC: 1, Instrs: 1}}, false); err == nil {
		t.Fatal("dead peer within budget returned nil")
	}
}

// TestClientRehomesThroughPrimaryOnPeerDeath: in redirect-following
// mode, frames in flight to a peer that dies are re-homed through the
// primary in order — the client-side half of automatic takeover. The
// primary redirects to the peer while it lives and accepts (as the new
// owner) after it dies.
func TestClientRehomesThroughPrimaryOnPeerDeath(t *testing.T) {
	var peerDead atomic.Bool
	var peer *killNode
	primary := newKillNode(t, func(nth int, _ Batch) killVerdict {
		if peerDead.Load() {
			return killVerdict{} // post-takeover owner: accept
		}
		return killVerdict{redirect: peer.addr()}
	})
	peer = newKillNode(t, func(nth int, _ Batch) killVerdict {
		if nth == 2 {
			peerDead.Store(true)
			peer.ln.Close() // no redial target: the node is dead
			return killVerdict{kill: true}
		}
		return killVerdict{}
	})

	c, err := Dial(primary.addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.FollowRedirects(nil)
	c.Reconnect = ReconnectPolicy{MaxAttempts: 4, Backoff: time.Millisecond}
	c.sleepFn = func(time.Duration) {}
	c.Window = 4

	const total = 6
	for i := 0; i < total; i++ {
		ev := []trace.BranchEvent{{PC: uint64(3000 + i), Instrs: 10}}
		if err := c.QueueBatch("s", 0, ev, false); err != nil {
			t.Fatalf("queue %d: %v", i, err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	peerGot := peer.acceptedPCs()
	primGot := primary.acceptedPCs()
	if len(peerGot)+len(primGot) != total {
		t.Fatalf("peer=%v primary=%v: %d batches landed, want %d",
			peerGot, primGot, len(peerGot)+len(primGot), total)
	}
	// Everything the dead peer did not ack must land on the primary in
	// original order.
	for i := 1; i < len(primGot); i++ {
		if primGot[i] < primGot[i-1] {
			t.Fatalf("re-homed frames out of order on primary: %v", primGot)
		}
	}
	if len(primGot) == 0 {
		t.Fatal("no frames re-homed through the primary")
	}
}

// TestErrTooManyRedirectsSentinel: the hop-budget error is reachable
// with errors.Is — callers distinguish a ping-pong loop from an
// ordinary refusal.
func TestErrTooManyRedirectsSentinel(t *testing.T) {
	var a, b *killNode
	a = newKillNode(t, func(int, Batch) killVerdict { return killVerdict{redirect: b.addr()} })
	b = newKillNode(t, func(int, Batch) killVerdict { return killVerdict{redirect: a.addr()} })

	c, err := Dial(a.addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.FollowRedirects(nil)
	if err := c.QueueBatch("x", 0, []trace.BranchEvent{{PC: 1, Instrs: 1}}, false); err != nil {
		t.Fatalf("queue: %v", err)
	}
	err = c.Drain()
	if !errors.Is(err, ErrTooManyRedirects) {
		t.Fatalf("redirect ping-pong: %v, want errors.Is(_, ErrTooManyRedirects)", err)
	}
	var ne *NackError
	if !errors.As(err, &ne) || ne.Code != NackRedirect {
		t.Fatalf("sentinel not wrapped in a NackError: %v", err)
	}
}
