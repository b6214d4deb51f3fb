package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phasekit/internal/trace"
)

// deadPeerCluster is a primary and a peer that owns stream "s" until it
// dies: the peer accepts its first two batches and cuts the connection
// on the third, closing its listener, so the client cannot redial it.
// Until the peer dies the primary redirects every batch to it; after,
// it redirects each batch bounces more times to the dead peer (its ring
// has not caught up yet) before accepting it as the stream's new owner.
// With shared set, the bounces are counted over all batches instead:
// the primary finishes its takeover after bounces redirects in all, so
// it may redirect one batch and accept the next.
func deadPeerCluster(t *testing.T, bounces int, shared bool) (primary, peer *killNode) {
	var peerDead atomic.Bool
	bounced := map[uint64]int{} // by PC; the primary's script runs under its lock
	primary = newKillNode(t, func(_ int, b Batch) killVerdict {
		key := b.Events[0].PC
		if shared {
			key = 0
		}
		switch {
		case !peerDead.Load():
			return killVerdict{redirect: peer.addr()}
		case bounced[key] < bounces:
			bounced[key]++
			return killVerdict{redirect: peer.addr()}
		}
		return killVerdict{}
	})
	peer = newKillNode(t, func(nth int, _ Batch) killVerdict {
		if nth == 2 {
			peerDead.Store(true)
			peer.ln.Close()
			return killVerdict{kill: true}
		}
		return killVerdict{}
	})
	return primary, peer
}

// dialRedirecting dials a redirect-following client with a reconnect
// policy and no real backoff sleeps.
func dialRedirecting(t *testing.T, addr string, attempts, window int) *Client {
	t.Helper()
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.FollowRedirects(nil)
	c.Reconnect = ReconnectPolicy{MaxAttempts: attempts, Backoff: time.Millisecond}
	c.sleepFn = func(time.Duration) {}
	c.Window = window
	return c
}

// checkLanded fails unless the batches with PCs base..base+total-1 each
// landed exactly once across the two nodes, the peer's share in order
// before the primary's, which is in order too.
func checkLanded(t *testing.T, primary, peer *killNode, base uint64, total int) {
	t.Helper()
	got := append(peer.acceptedPCs(), primary.acceptedPCs()...)
	if len(got) != total {
		t.Fatalf("peer=%v primary=%v: %d batches landed, want %d",
			peer.acceptedPCs(), primary.acceptedPCs(), len(got), total)
	}
	for i, pc := range got {
		if pc != base+uint64(i) {
			t.Fatalf("peer=%v primary=%v: batch %d has pc %d, want %d",
				peer.acceptedPCs(), primary.acceptedPCs(), i, pc, base+uint64(i))
		}
	}
}

// TestClientStalledRedirectOutlastsHopBudget: frames stranded by a dead
// peer keep being redirected to it by a primary that has not noticed
// the death yet, for more rounds than the hop budget allows. Each round
// ends at an unreachable owner, which costs a backoff attempt, not a
// hop, so the frames land in order once the primary takes the stream
// over, with no ErrTooManyRedirects.
func TestClientStalledRedirectOutlastsHopBudget(t *testing.T) {
	primary, peer := deadPeerCluster(t, 2*maxRedirectHops, false)
	c := dialRedirecting(t, primary.addr(), 20, 4)
	const total = 6
	for i := 0; i < total; i++ {
		if err := c.QueueBatch("s", 0, []trace.BranchEvent{{PC: uint64(100 + i), Instrs: 1}}, false); err != nil {
			t.Fatalf("queue %d: %v", i, err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	checkLanded(t, primary, peer, 100, total)
}

// TestClientStalledTakeoverBetweenFrames: the primary finishes taking
// the dead peer's stream over after a fixed number of redirects in
// all, so it may redirect one stalled frame and accept the next. Only
// the oldest stalled frame of a stream is in flight at a time, so the
// switch never falls between two of its frames, and they land in
// order wherever it falls.
func TestClientStalledTakeoverBetweenFrames(t *testing.T) {
	for bounces := 1; bounces <= 8; bounces++ {
		primary, peer := deadPeerCluster(t, bounces, true)
		c := dialRedirecting(t, primary.addr(), 20, 4)
		const total = 8
		for i := 0; i < total; i++ {
			if err := c.QueueBatch("s", 0, []trace.BranchEvent{{PC: uint64(100 + i), Instrs: 1}}, false); err != nil {
				t.Fatalf("bounces %d: queue %d: %v", bounces, i, err)
			}
		}
		if err := c.Drain(); err != nil {
			t.Fatalf("bounces %d: drain: %v", bounces, err)
		}
		checkLanded(t, primary, peer, 100, total)
	}
}

// TestClientStalledRedirectBudgetExhausted: when the primary keeps
// redirecting stalled frames to a dead owner past
// ReconnectPolicy.MaxAttempts, the client gives up with a hard error:
// neither a hop-budget nack nor a hang.
func TestClientStalledRedirectBudgetExhausted(t *testing.T) {
	primary, _ := deadPeerCluster(t, 1000, false)
	c := dialRedirecting(t, primary.addr(), 3, 4)
	for i := 0; i < 6; i++ {
		if err := c.QueueBatch("s", 0, []trace.BranchEvent{{PC: uint64(100 + i), Instrs: 1}}, false); err != nil {
			checkHardError(t, err)
			return
		}
	}
	checkHardError(t, c.Drain())
}

// TestClientStalledPushToBrokenPeer: stalled frames re-queued on a
// learned route whose node died after the client last read from it.
// The frames are larger than the write buffer, so they go straight to
// the socket and a write inside the settle round can fail; the frames
// on that connection stall again. Each stream's frames still land in
// order, exactly once.
func TestClientStalledPushToBrokenPeer(t *testing.T) {
	var xDead, yDead atomic.Bool
	var x, y *killNode
	// The primary redirects to x, the stream owner, until x dies; then
	// to y, the next owner, until y dies; then accepts as the last.
	primary := newKillNode(t, func(int, Batch) killVerdict {
		switch {
		case !xDead.Load():
			return killVerdict{redirect: x.addr()}
		case !yDead.Load():
			return killVerdict{redirect: y.addr()}
		}
		return killVerdict{}
	})
	// x dies on its first batch: every frame stalls. y accepts the
	// oldest frame of each stream, then dies once it has answered them.
	x = newKillNode(t, func(int, Batch) killVerdict {
		xDead.Store(true)
		x.ln.Close()
		return killVerdict{kill: true}
	})
	const streams, perStream = 4, 3
	y = newKillNode(t, func(nth int, _ Batch) killVerdict {
		if nth == streams-1 {
			yDead.Store(true)
			return killVerdict{die: true}
		}
		return killVerdict{}
	})

	c := dialRedirecting(t, primary.addr(), 4, streams*perStream)
	events := make([]trace.BranchEvent, 6000) // 72 KB: more than the 64 KiB write buffer
	for f := 0; f < perStream; f++ {
		for s := 0; s < streams; s++ {
			events[0].PC = uint64(f*streams + s)
			if err := c.QueueBatch(fmt.Sprintf("s%d", s), 0, events, false); err != nil {
				t.Fatalf("queue: %v", err)
			}
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	landed := append(y.acceptedPCs(), primary.acceptedPCs()...)
	next := make([]uint64, streams)
	for s := range next {
		next[s] = uint64(s)
	}
	for _, pc := range landed {
		s := pc % streams
		if pc != next[s] {
			t.Fatalf("y=%v primary=%v: stream s%d got pc %d, want %d",
				y.acceptedPCs(), primary.acceptedPCs(), s, pc, next[s])
		}
		next[s] += streams
	}
	if len(landed) != streams*perStream {
		t.Fatalf("y=%v primary=%v: %d batches landed, want %d",
			y.acceptedPCs(), primary.acceptedPCs(), len(landed), streams*perStream)
	}
}

// TestClientRedirectBehindFrameOnDeadPeer: the primary redirects a
// stream's first frame to x and, its ring having moved on, the second
// to y. The first is still in flight to x when the second is re-homed,
// so the second waits; x dies, the first is re-sent along the stream's
// new route, and y accepts the two in order.
func TestClientRedirectBehindFrameOnDeadPeer(t *testing.T) {
	var x, y *killNode
	primary := newKillNode(t, func(nth int, _ Batch) killVerdict {
		if nth == 0 {
			return killVerdict{redirect: x.addr()}
		}
		return killVerdict{redirect: y.addr()}
	})
	x = newKillNode(t, func(int, Batch) killVerdict {
		x.ln.Close()
		return killVerdict{kill: true}
	})
	y = newKillNode(t, func(int, Batch) killVerdict { return killVerdict{} })
	c := dialRedirecting(t, primary.addr(), 3, 4)
	for pc := uint64(0); pc < 2; pc++ {
		if err := c.QueueBatch("s", 0, []trace.BranchEvent{{PC: pc, Instrs: 1}}, false); err != nil {
			t.Fatalf("queue %d: %v", pc, err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := y.acceptedPCs(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("y accepted %v, want [0 1]", got)
	}
}

func checkHardError(t *testing.T, err error) {
	t.Helper()
	var ne *NackError
	if err == nil || errors.As(err, &ne) || errors.Is(err, ErrTooManyRedirects) {
		t.Fatalf("stalled frames past the attempt budget: %v, want a hard (non-nack) error", err)
	}
}

// TestClientQueueBatchBehindStalledFrame: batches queued for a stream
// while frames of that stream are stalled behind a dead peer are
// accepted after them, never ahead.
func TestClientQueueBatchBehindStalledFrame(t *testing.T) {
	primary, peer := deadPeerCluster(t, 0, false)
	c := dialRedirecting(t, primary.addr(), 4, 2)
	const total = 12
	for i := 0; i < total; i++ {
		if err := c.QueueBatch("s", 0, []trace.BranchEvent{{PC: uint64(500 + i), Instrs: 1}}, false); err != nil {
			t.Fatalf("queue %d: %v", i, err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	checkLanded(t, primary, peer, 500, total)
}

// TestClientControlFramesDrainFirst: Flush, SendJoin and SendAssign
// issued behind pipelined batches see every batch answered first, and
// each is answered by its own response: the flush after the batches it
// covers, the join with the ring, a stale assign with NackStaleEpoch.
func TestClientControlFramesDrainFirst(t *testing.T) {
	n := newKillNode(t, func(int, Batch) killVerdict { return killVerdict{} })
	ring := RingInfo{Epoch: 5, Nodes: []NodeInfo{{ID: "a", Addr: n.addr()}}}
	n.ring = ring
	c, err := Dial(n.addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Window = 8
	pc := uint64(0)
	queue := func() {
		t.Helper()
		for i := 0; i < 5; i++ {
			pc++
			if err := c.QueueBatch("s", 0, []trace.BranchEvent{{PC: pc, Instrs: 1}}, false); err != nil {
				t.Fatalf("queue: %v", err)
			}
		}
	}

	queue()
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	n.mu.Lock()
	flushAt := append([]int(nil), n.flushAt...)
	n.mu.Unlock()
	if len(flushAt) != 1 || flushAt[0] != 5 {
		t.Fatalf("flush arrived after %v batches, want [5]", flushAt)
	}

	queue()
	got, err := c.SendJoin(NodeInfo{ID: "b", Addr: "127.0.0.1:1"})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if got.Epoch != ring.Epoch || len(got.Nodes) != 1 || got.Nodes[0] != ring.Nodes[0] {
		t.Fatalf("join returned %+v, want %+v", got, ring)
	}
	if len(c.pending) != 0 || len(n.acceptedPCs()) != 10 {
		t.Fatalf("join returned with %d frames pending, %d batches landed", len(c.pending), len(n.acceptedPCs()))
	}

	queue()
	err = c.SendAssign(RingInfo{Epoch: 4})
	var ne *NackError
	if !errors.As(err, &ne) || ne.Code != NackStaleEpoch {
		t.Fatalf("stale assign: %v, want NackStaleEpoch", err)
	}
	queue()
	if err := c.SendAssign(RingInfo{Epoch: 6}); err != nil {
		t.Fatalf("fresh assign: %v", err)
	}
	if got := n.acceptedPCs(); len(got) != 20 || len(c.pending) != 0 {
		t.Fatalf("%d batches landed, %d pending, want 20 and 0", len(got), len(c.pending))
	}
}

// TestClientControlFrameAfterNack: when a frame queued earlier is
// refused, SendJoin, SendAssign and SendBatch return that refusal
// without sending their own frame, so an error from them never hides
// whether their own frame was applied.
func TestClientControlFrameAfterNack(t *testing.T) {
	n := newKillNode(t, func(_ int, b Batch) killVerdict {
		if b.Events[0].PC == 0 {
			return killVerdict{redirect: "127.0.0.1:1"} // a plain client surfaces it
		}
		return killVerdict{}
	})
	n.ring = RingInfo{Epoch: 5}
	c, err := Dial(n.addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Window = 4
	refused := func() {
		t.Helper()
		if err := c.QueueBatch("s", 0, []trace.BranchEvent{{PC: 0, Instrs: 1}}, false); err != nil {
			t.Fatalf("queue: %v", err)
		}
	}
	isRefusal := func(what string, err error) {
		t.Helper()
		var ne *NackError
		if !errors.As(err, &ne) || ne.Code != NackRedirect {
			t.Fatalf("%s behind a refused batch: %v, want its NackRedirect", what, err)
		}
	}

	refused()
	_, err = c.SendJoin(NodeInfo{ID: "b", Addr: "127.0.0.1:1"})
	isRefusal("join", err)
	refused()
	isRefusal("assign", c.SendAssign(RingInfo{Epoch: 7}))
	refused()
	isRefusal("batch", c.SendBatch("s", 0, []trace.BranchEvent{{PC: 1, Instrs: 1}}, false))
	n.mu.Lock()
	joins, epoch := n.joins, n.ring.Epoch
	n.mu.Unlock()
	if joins != 0 || epoch != 5 || len(n.acceptedPCs()) != 0 {
		t.Fatalf("frames behind a refusal were sent: %d joins, epoch %d, accepted %v",
			joins, epoch, n.acceptedPCs())
	}
	if ring, err := c.SendJoin(NodeInfo{ID: "b", Addr: "127.0.0.1:1"}); err != nil || ring.Epoch != 5 {
		t.Fatalf("join on a drained client: %+v, %v", ring, err)
	}
}

// TestClientFlushToDeadPeerDropped: a flush whose peer dies before
// answering is dropped, not re-homed: a dead node has no trailing
// intervals to close, and the primary flushes only its own.
func TestClientFlushToDeadPeerDropped(t *testing.T) {
	var primary, peer *killNode
	primary = newKillNode(t, func(_ int, b Batch) killVerdict {
		if b.Stream == "moved" {
			return killVerdict{redirect: peer.addr()}
		}
		return killVerdict{}
	})
	peer = newKillNode(t, func(int, Batch) killVerdict { return killVerdict{} })
	peer.killFlush = true
	c := dialRedirecting(t, primary.addr(), 3, 4)
	for i, stream := range []string{"moved", "home", "moved", "home"} {
		if err := c.QueueBatch(stream, 0, []trace.BranchEvent{{PC: uint64(i), Instrs: 1}}, false); err != nil {
			t.Fatalf("queue %d: %v", i, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if got := peer.acceptedPCs(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("peer accepted %v, want [0 2]", got)
	}
	primary.mu.Lock()
	flushes := len(primary.flushAt)
	primary.mu.Unlock()
	if flushes != 1 {
		t.Fatalf("primary saw %d flushes, want its own alone", flushes)
	}
	if err := c.SendBatch("home", 0, []trace.BranchEvent{{PC: 9, Instrs: 1}}, false); err != nil {
		t.Fatalf("send after the peer died: %v", err)
	}
}

// TestClientReconnectPlainSendBatch: a client that does not follow
// redirects but has a reconnect policy gets synchronous sends through
// a connection cut: the cut frame is replayed on the new connection.
func TestClientReconnectPlainSendBatch(t *testing.T) {
	n := newKillNode(t, func(nth int, _ Batch) killVerdict {
		return killVerdict{kill: nth == 1}
	})
	c, err := Dial(n.addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Reconnect = ReconnectPolicy{MaxAttempts: 3, Backoff: time.Millisecond}
	c.sleepFn = func(time.Duration) {}
	for i := 0; i < 4; i++ {
		if err := c.SendBatch("s", 0, []trace.BranchEvent{{PC: uint64(i), Instrs: 1}}, false); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if got := n.acceptedPCs(); len(got) != 4 || got[1] != 1 || got[3] != 3 {
		t.Fatalf("accepted %v, want [0 1 2 3]", got)
	}
}

// ackServer acknowledges every frame without decoding it, allocating
// nothing per frame, so an allocation count taken while a client talks
// to it is the client's alone.
func ackServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		magic := make([]byte, len(Magic))
		if _, err := io.ReadFull(conn, magic); err != nil {
			return
		}
		rbuf := make([]byte, 0, 4096)
		out := make([]byte, 0, 64)
		for {
			payload, err := ReadFrame(conn, rbuf, 0)
			if err != nil {
				return
			}
			rbuf = payload[:0]
			out = AppendAckFrame(out[:0], binary.LittleEndian.Uint64(payload[2:]))
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	return ln.Addr().String()
}

// TestClientPlainQueueZeroAlloc pins the plain client's steady state:
// with neither FollowRedirects nor a reconnect policy it retains no
// frame copies, so QueueBatch and Drain allocate nothing per frame.
// BenchmarkServerIngest's 0 allocs/op counts this client too.
func TestClientPlainQueueZeroAlloc(t *testing.T) {
	c, err := Dial(ackServer(t), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Window = 8
	events := make([]trace.BranchEvent, 64)
	for i := range events {
		events[i] = trace.BranchEvent{PC: uint64(i) * 64, Instrs: 100}
	}
	const frames = 40
	round := func() {
		for i := 0; i < frames; i++ {
			if err := c.QueueBatch("s", 0, events, false); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("QueueBatch+Drain allocates %v per %d frames in steady state, want 0", allocs, frames)
	}
}
