package wire

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"phasekit/internal/trace"
)

// fakeNode is a scripted wire server: its script decides, per batch
// frame in arrival order, whether to ack or to redirect to another
// address. Flush frames are always acked. It records every batch it
// accepted so tests can assert exactly what landed where, in what
// order.
type fakeNode struct {
	t  *testing.T
	ln net.Listener
	wg sync.WaitGroup

	mu       sync.Mutex
	accepted []Batch // batches this node acked, in arrival order
	seen     int     // batch frames seen (acked or redirected)
	conns    int     // connections accepted
	script   func(nth int, b Batch) (redirectTo string)
}

func newFakeNode(t *testing.T, script func(nth int, b Batch) string) *fakeNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := &fakeNode{t: t, ln: ln, script: script}
	n.wg.Add(1)
	go n.acceptLoop()
	t.Cleanup(func() { ln.Close(); n.wg.Wait() })
	return n
}

func (n *fakeNode) addr() string { return n.ln.Addr().String() }

func (n *fakeNode) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		n.conns++
		n.mu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.serve(conn)
		}()
	}
}

func (n *fakeNode) serve(conn net.Conn) {
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
		switch fr.Tag {
		case TagBatch:
			n.mu.Lock()
			nth := n.seen
			n.seen++
			redirect := n.script(nth, fr.Batch)
			if redirect == "" {
				n.accepted = append(n.accepted, fr.Batch)
			}
			n.mu.Unlock()
			if redirect == "" {
				out = AppendAckFrame(out, fr.Seq)
			} else {
				out = AppendNackFrame(out, fr.Seq, NackRedirect, redirect)
			}
		case TagFlush:
			out = AppendAckFrame(out, fr.Seq)
		default:
			out = AppendNackFrame(out, fr.Seq, NackMalformed, "unexpected tag")
		}
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

func (n *fakeNode) acceptedPCs() []uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	var pcs []uint64
	for _, b := range n.accepted {
		pcs = append(pcs, b.Events[0].PC)
	}
	return pcs
}

// TestClientFollowsMidWindowRedirect pins the satellite invariant: when
// ownership of a stream moves while a window of frames is in flight,
// the redirected frames land on the new owner in their original send
// order, none are lost or duplicated, and later batches route straight
// to the new owner.
func TestClientFollowsMidWindowRedirect(t *testing.T) {
	b := newFakeNode(t, func(nth int, _ Batch) string { return "" }) // accepts all
	const acceptFirst = 5
	a := newFakeNode(t, func(nth int, _ Batch) string {
		if nth < acceptFirst {
			return "" // owner at first
		}
		return "" // placeholder, replaced below
	})
	// The script closure needs b's address, which needs b constructed
	// first; rebind now.
	a.script = func(nth int, _ Batch) string {
		if nth < acceptFirst {
			return ""
		}
		return b.addr()
	}

	c, err := Dial(a.addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.FollowRedirects(nil)
	c.Window = 4

	const total = 16
	for i := 0; i < total; i++ {
		ev := []trace.BranchEvent{{PC: uint64(1000 + i), Instrs: 10}}
		if err := c.QueueBatch("s", 0, ev, false); err != nil {
			t.Fatalf("queue %d: %v", i, err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	gotA, gotB := a.acceptedPCs(), b.acceptedPCs()
	if len(gotA) != acceptFirst {
		t.Fatalf("node a accepted %d batches (%v), want %d", len(gotA), gotA, acceptFirst)
	}
	for i, pc := range gotA {
		if pc != uint64(1000+i) {
			t.Fatalf("node a batch %d: pc %d, want %d", i, pc, 1000+i)
		}
	}
	if len(gotB) != total-acceptFirst {
		t.Fatalf("node b accepted %d batches (%v), want %d", len(gotB), gotB, total-acceptFirst)
	}
	for i, pc := range gotB {
		if pc != uint64(1000+acceptFirst+i) {
			t.Fatalf("node b batch %d: pc %d, want %d — redirected frames out of order: %v",
				i, pc, 1000+acceptFirst+i, gotB)
		}
	}
	if c.Redirects() == 0 {
		t.Fatal("no redirects counted")
	}

	// The route is learned: one more batch goes straight to b without
	// touching a.
	seenA := a.seen
	if err := c.SendBatch("s", 0, []trace.BranchEvent{{PC: 9999, Instrs: 1}}, false); err != nil {
		t.Fatalf("post-migration send: %v", err)
	}
	if a.seen != seenA {
		t.Fatal("batch for migrated stream still offered to the old owner")
	}
	pcs := b.acceptedPCs()
	if pcs[len(pcs)-1] != 9999 {
		t.Fatalf("post-migration batch missing on new owner: %v", pcs)
	}
}

// TestClientRedirectBackToPrimary: a stream that moves from the
// primary's node to another and back again rides the primary connection
// once more. The frames the second node redirects and the batches
// queued after them share that one connection, so the owner receives
// them in send order.
func TestClientRedirectBackToPrimary(t *testing.T) {
	var a, b *fakeNode
	a = newFakeNode(t, func(_ int, bt Batch) string {
		if pc := bt.Events[0].PC; pc >= 1003 && pc < 1008 {
			return b.addr()
		}
		return ""
	})
	b = newFakeNode(t, func(_ int, bt Batch) string {
		if bt.Events[0].PC >= 1008 {
			return a.addr()
		}
		return ""
	})
	c, err := Dial(a.addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.FollowRedirects(nil)
	c.Window = 4
	for i := 0; i < 16; i++ {
		if err := c.QueueBatch("s", 0, []trace.BranchEvent{{PC: uint64(1000 + i), Instrs: 10}}, false); err != nil {
			t.Fatalf("queue %d: %v", i, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	want := []uint64{1000, 1001, 1002, 1008, 1009, 1010, 1011, 1012, 1013, 1014, 1015}
	if got := a.acceptedPCs(); len(got) != len(want) {
		t.Fatalf("node a accepted %v, want %v", got, want)
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("node a accepted %v, want %v", got, want)
			}
		}
	}
	a.mu.Lock()
	conns := a.conns
	a.mu.Unlock()
	if conns != 1 {
		t.Fatalf("node a saw %d connections, want the primary alone", conns)
	}
}

// TestClientRedirectLoopBounded pins the hop budget: two nodes that
// each claim the other owns a stream must produce a NackError, not an
// infinite ping-pong.
func TestClientRedirectLoopBounded(t *testing.T) {
	var a, b *fakeNode
	a = newFakeNode(t, func(int, Batch) string { return b.addr() })
	b = newFakeNode(t, func(int, Batch) string { return a.addr() })

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
	var ne *NackError
	if !errors.As(err, &ne) || ne.Code != NackRedirect {
		t.Fatalf("redirect loop: %v, want bounded NackError(redirect)", err)
	}
}

// TestClientWithoutRedirectsSurfacesNack pins the default behavior: a
// client that never opted in sees the REDIRECT as a plain nack and
// retains nothing.
func TestClientWithoutRedirectsSurfacesNack(t *testing.T) {
	b := newFakeNode(t, func(int, Batch) string { return "" })
	a := newFakeNode(t, func(int, Batch) string { return b.addr() })
	c, err := Dial(a.addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.SendBatch("s", 0, []trace.BranchEvent{{PC: 1, Instrs: 1}}, false)
	var ne *NackError
	if !errors.As(err, &ne) || ne.Code != NackRedirect || ne.Detail != b.addr() {
		t.Fatalf("plain client redirect: %v", err)
	}
	if b.seen != 0 {
		t.Fatal("plain client followed the redirect anyway")
	}
}
