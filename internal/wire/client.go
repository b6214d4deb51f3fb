package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"time"

	"phasekit/internal/trace"
)

// NackError is returned by Client calls when the server refuses a
// frame. Code is one of the Nack* constants. Err, when non-nil, is a
// client-side classification (ErrTooManyRedirects) reachable through
// errors.Is.
type NackError struct {
	Seq    uint64
	Code   uint8
	Detail string
	Err    error
}

func (e *NackError) Error() string {
	return fmt.Sprintf("wire: server nack (%s) for frame %d: %s",
		NackCodeString(e.Code), e.Seq, e.Detail)
}

func (e *NackError) Unwrap() error { return e.Err }

// maxRedirectHops bounds how many times one batch may be redirected
// before the client gives up — a guard against two nodes that each
// believe the other owns a stream (which a consistent ring never
// produces, but a partitioned cluster might transiently).
const maxRedirectHops = 4

// inflight is one frame awaiting its response. frame is non-nil only
// when the client follows redirects or has a reconnect policy: the raw
// encoded bytes are retained so a REDIRECT nack or a redial can re-send
// them verbatim (with the seq patched in place) instead of asking the
// caller to replay. tag is the request's: only a TagBatch frame is ever
// re-homed to another node. A JOIN's ASSIGN answer is stored in ring.
type inflight struct {
	seq    uint64
	stream string
	frame  []byte
	hops   uint8
	tag    uint8
	ring   *RingInfo
}

// seqOffset is where the seq field sits in a raw frame: 4 length bytes,
// then tag and version, then the little-endian uint64.
const seqOffset = 6

// router is the state shared between a primary Client and the
// per-owner sub-clients it opens while following redirects: learned
// stream routes, open peer connections, and a free list of retained
// frame buffers.
type router struct {
	dial      func(addr string, timeout time.Duration) (*Client, error)
	peers     map[string]*Client // owner addr -> sub-client
	routes    map[string]string  // stream -> owner addr
	all       []*Client          // primary first, then sub-clients
	free      [][]byte           // recycled retained-frame buffers
	redirects uint64             // redirect hops followed
	stalled   []inflight         // frames awaiting re-homing after a peer loss
	seeded    map[string]bool    // routes installed by SeedRoute, not yet used
	prefetch  uint64             // streams first-routed via a seeded route
}

const routerFreeCap = 64

func (rt *router) retain(frame []byte) []byte {
	var buf []byte
	if n := len(rt.free); n > 0 {
		buf, rt.free = rt.free[n-1], rt.free[:n-1]
	}
	return append(buf, frame...)
}

// Client speaks the ingest protocol over one connection. Every frame
// rides one pipeline: QueueBatch keeps up to Window frames awaiting
// responses before blocking on the oldest, and SendBatch, Flush,
// SendJoin and SendAssign queue their frame and then Drain. A Client is
// not safe for concurrent use. Frames go down the wire in call order,
// so per-stream batch ordering follows call order, matching the
// Fleet's Send contract.
//
// Against a cluster, call FollowRedirects once after dialing any node:
// REDIRECT nacks are then handled inside the client — the refused
// frames are re-sent to the owning node in their original order, the
// stream's route is learned so later batches go straight there, and
// the caller never sees the topology. Without FollowRedirects the
// client stays zero-retention: a REDIRECT surfaces as a plain
// *NackError.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	wbuf []byte
	rbuf []byte
	seq  uint64
	// streamSeq holds per-stream batch sequence counters (stamped as
	// Batch.StreamSeq). Counters live on the primary client in
	// redirect-following mode so a stream keeps one monotonic sequence
	// even as redirects move it between connections.
	streamSeq map[string]uint64
	addr      string
	pending   []inflight
	rt        *router // nil unless FollowRedirects was called
	// Timeout bounds each request/response round trip via connection
	// deadlines. 0 means no deadline.
	Timeout time.Duration
	// Window is the pipelining depth QueueBatch maintains: how many
	// frames may be awaiting responses before QueueBatch blocks to
	// drain the oldest. Values below 2 (including the zero value) make
	// QueueBatch synchronous, like SendBatch.
	Window int
	// Reconnect, when enabled (MaxAttempts > 0), makes the client
	// survive connection loss: redial with jittered backoff and replay
	// unacknowledged frames in order. See ReconnectPolicy.
	Reconnect ReconnectPolicy
	maxFrame  int
	jit       uint64              // jitter rng state (seeded from addr)
	sleepFn   func(time.Duration) // test hook; nil = time.Sleep
	held      []heldRedirect      // frames redirected during redirect's drain
}

// Dial connects to a phasekitd server and performs the magic
// handshake. timeout bounds the dial and each subsequent round trip
// (0 = none).
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c, err := NewClient(conn, timeout)
	if err != nil {
		return nil, err
	}
	c.addr = addr
	return c, nil
}

// NewClient wraps an established connection, sending the magic. The
// Client owns the connection from here on.
func NewClient(conn net.Conn, timeout time.Duration) (*Client, error) {
	c := &Client{
		conn:     conn,
		br:       bufio.NewReaderSize(conn, 1<<16),
		bw:       bufio.NewWriterSize(conn, 1<<16),
		Timeout:  timeout,
		maxFrame: DefaultMaxFrame,
	}
	if ra := conn.RemoteAddr(); ra != nil {
		c.addr = ra.String()
	}
	if err := c.deadline(); err != nil {
		conn.Close()
		return nil, err
	}
	if _, err := c.bw.WriteString(Magic); err != nil {
		conn.Close()
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// FollowRedirects makes the client cluster-aware: REDIRECT nacks cause
// the refused frames to be re-queued, in order, on a connection to the
// owning node (dialed on demand with dial; nil means Dial with this
// client's Timeout), and the stream's route is remembered for
// subsequent batches. Call it once, before the first batch; it is not
// meaningful on a sub-client.
func (c *Client) FollowRedirects(dial func(addr string, timeout time.Duration) (*Client, error)) {
	if c.rt != nil {
		return
	}
	if dial == nil {
		dial = Dial
	}
	// The primary is also the peer for its own address: a stream
	// redirected back to the primary's node must ride the primary, the
	// connection target picks for its new batches, or re-homed frames
	// and new ones reach the owner on two connections, out of order.
	c.rt = &router{
		dial:   dial,
		peers:  map[string]*Client{c.addr: c},
		routes: map[string]string{},
	}
	c.rt.all = append(c.rt.all, c)
}

// Redirects reports how many redirect hops the client has followed.
func (c *Client) Redirects() uint64 {
	if c.rt == nil {
		return 0
	}
	return c.rt.redirects
}

// SeedRoute pre-loads a stream → owner route learned out of band (the
// /clusterz admin endpoint), so the stream's first batch rides the
// owning node's connection directly instead of discovering the owner
// through a REDIRECT nack. Only meaningful after FollowRedirects.
// Seeded routes are advisory: a REDIRECT still corrects a stale entry.
func (c *Client) SeedRoute(stream, addr string) {
	if c.rt == nil || addr == "" {
		return
	}
	c.rt.routes[stream] = addr
	if c.rt.seeded == nil {
		c.rt.seeded = map[string]bool{}
	}
	c.rt.seeded[stream] = true
}

// PrefetchHits reports how many streams had their first batch routed
// straight to a peer via a seeded route — first-batch redirects the
// prefetch avoided (assuming the seed was current; a stale seed shows
// up in Redirects instead).
func (c *Client) PrefetchHits() uint64 {
	if c.rt == nil {
		return 0
	}
	return c.rt.prefetch
}

// nextStreamSeq advances and returns the per-stream sequence number
// stamped into batch frames (Batch.StreamSeq).
func (c *Client) nextStreamSeq(stream string) uint64 {
	o := c
	if c.rt != nil {
		o = c.rt.all[0]
	}
	if o.streamSeq == nil {
		o.streamSeq = map[string]uint64{}
	}
	o.streamSeq[stream]++
	return o.streamSeq[stream]
}

// SeedStreamSeq primes a stream's sequence counter so its next batch is
// stamped seq+1. Split runs use this to resume a stream's numbering
// where an earlier process left off; without it the server would drop
// the resumed segment's batches as already-applied duplicates.
func (c *Client) SeedStreamSeq(stream string, seq uint64) {
	o := c
	if c.rt != nil {
		o = c.rt.all[0]
	}
	if o.streamSeq == nil {
		o.streamSeq = map[string]uint64{}
	}
	o.streamSeq[stream] = seq
}

// peer returns (dialing if needed) the sub-client for an owner address.
func (rt *router) peer(addr string, like *Client) (*Client, error) {
	if p, ok := rt.peers[addr]; ok {
		return p, nil
	}
	p, err := rt.dial(addr, like.Timeout)
	if err != nil {
		return nil, fmt.Errorf("wire: following redirect to %s: %w", addr, err)
	}
	p.addr = addr
	p.rt = rt
	p.Window = like.Window
	p.Timeout = like.Timeout
	p.Reconnect = like.Reconnect
	p.sleepFn = like.sleepFn
	p.maxFrame = like.maxFrame
	rt.peers[addr] = p
	rt.all = append(rt.all, p)
	return p, nil
}

// target picks the connection a stream's next batch should ride:
// the learned owner if a redirect taught us one, else this client.
func (c *Client) target(stream string) (*Client, error) {
	if c.rt == nil {
		return c, nil
	}
	addr, ok := c.rt.routes[stream]
	if !ok || addr == c.addr {
		return c, nil
	}
	if c.rt.seeded[stream] {
		delete(c.rt.seeded, stream)
		c.rt.prefetch++
	}
	return c.rt.peer(addr, c)
}

func (c *Client) deadline() error {
	if c.Timeout <= 0 {
		return c.conn.SetDeadline(time.Time{})
	}
	return c.conn.SetDeadline(time.Now().Add(c.Timeout))
}

// keepNack records err in *first when it is a *NackError (the first
// one wins) and returns nil; any other error is returned as is. A nack
// refuses one frame and the pipeline keeps working, so delivery goes
// on and the first refusal is reported at the end.
func keepNack(first *error, err error) error {
	if err == nil {
		return nil
	}
	var ne *NackError
	if !errors.As(err, &ne) {
		return err
	}
	if *first == nil {
		*first = err
	}
	return nil
}

// SendBatch drains every frame queued before it, then queues one batch
// and drains again: the error is the batch's own verdict. A Nack is
// returned as *NackError; an earlier frame's Nack is returned without
// sending the batch.
func (c *Client) SendBatch(stream string, cycles uint64, events []trace.BranchEvent, endInterval bool) error {
	if err := c.Drain(); err != nil {
		return err
	}
	if err := c.QueueBatch(stream, cycles, events, endInterval); err != nil {
		return err
	}
	return c.Drain()
}

// QueueBatch stages one batch into the pipeline without waiting for
// its response. Once Window frames are outstanding it blocks draining
// the oldest, so the send rate is still response-clocked — just with
// the round trips overlapped. A *NackError returned here identifies
// the refused frame by its Seq; it is an earlier frame's verdict, not
// this one's (this one was queued regardless), and the pipeline keeps
// working. Any other error is transport-fatal. Call Drain before
// trusting that every queued batch was acked.
//
// In redirect-following mode the batch rides the stream's learned
// owner connection, and a REDIRECT verdict for an earlier frame is
// handled internally (re-queued on the owner) instead of surfacing.
func (c *Client) QueueBatch(stream string, cycles uint64, events []trace.BranchEvent, endInterval bool) error {
	var first error
	if c.rt != nil && len(c.rt.stalled) > 0 {
		// Frames from a lost peer are waiting to be re-homed. Deliver
		// them before queueing anything new, or a new batch could
		// overtake an older one for the same stream.
		if err := keepNack(&first, c.Drain()); err != nil {
			return err
		}
	}
	t, err := c.target(stream)
	if err != nil {
		return err
	}
	t.wbuf = AppendBatchFrame(t.wbuf[:0], Batch{
		StreamSeq:   c.nextStreamSeq(stream),
		Stream:      stream,
		Cycles:      cycles,
		EndInterval: endInterval,
		Events:      events,
	})
	if err := keepNack(&first, t.enqueue(inflight{stream: stream, tag: TagBatch})); err != nil {
		return err
	}
	for len(t.pending) > max(t.Window, 1) {
		if err := keepNack(&first, t.pump()); err != nil {
			return err
		}
	}
	return first
}

// Drain waits for every outstanding response — across every
// connection the client has opened, when redirects are being followed
// (a response on one connection can re-queue a frame on another, so
// the drain loops until the whole set is quiet). Frames stalled by a
// lost peer or an unreachable owner are then re-queued and drained
// again; each round that answers none of them costs one attempt, with
// backoff, of ReconnectPolicy.MaxAttempts. The first Nack (if any) is
// returned once the pipeline is fully drained; a transport error aborts
// immediately.
func (c *Client) Drain() error {
	var first error
	for attempt, left := 0, 0; ; {
		self := [1]*Client{c}
		all := self[:]
		if c.rt != nil {
			all = c.rt.all
		}
		busy := false
		for _, cl := range all {
			if len(cl.pending) == 0 {
				continue
			}
			busy = true
			if err := cl.deadline(); err != nil {
				return err
			}
			if err := keepNack(&first, cl.pump()); err != nil {
				return err
			}
		}
		if busy {
			continue
		}
		if c.rt == nil || len(c.rt.stalled) == 0 {
			return first
		}
		// Nothing is in flight, so every frame not yet answered is
		// stalled: fewer than before the last round means it answered
		// some, and the attempt budget starts over.
		if len(c.rt.stalled) < left {
			attempt = 0
		}
		pol := c.Reconnect.withDefaults()
		if attempt >= pol.MaxAttempts {
			return fmt.Errorf("wire: %d stalled frames undelivered after %d attempts",
				len(c.rt.stalled), pol.MaxAttempts)
		}
		if attempt > 0 {
			c.sleep(c.backoff(pol, attempt-1))
		}
		attempt++
		left = len(c.rt.stalled)
		if err := keepNack(&first, c.rt.settle(c.rt.all[0])); err != nil {
			return err
		}
	}
}

// enqueue sends the frame staged in wbuf on this connection, behind
// the frames already in flight. When the frame may have to be sent
// again (the client follows redirects or has a reconnect policy) it is
// retained first: a reconnect replays the pipeline from these copies,
// so the copy must exist even if the write is the one that discovers
// the connection is gone. A client with neither retains nothing.
func (c *Client) enqueue(inf inflight) error {
	if c.rt != nil || c.Reconnect.MaxAttempts > 0 {
		inf.frame = c.retainFrame()
	}
	return c.push(inf)
}

// push stamps inf with this connection's next seq and writes it behind
// the frames in flight. It stays in the write buffer until the next
// pump flushes it: every read is preceded by a flush, so no read waits
// on a frame the server was never sent. A failed write goes through
// resend; a Nack verdict read while settling it is returned, and
// refuses an earlier frame, not this one.
func (c *Client) push(inf inflight) error {
	frame := inf.frame
	if frame == nil {
		frame = c.wbuf
	}
	c.seq++
	binary.LittleEndian.PutUint64(frame[seqOffset:], c.seq)
	inf.seq = c.seq
	if err := c.deadline(); err != nil {
		return err
	}
	if _, err := c.bw.Write(frame); err != nil {
		return c.resend(err, inf)
	}
	c.pending = append(c.pending, inf)
	return nil
}

// pump flushes this connection's buffered frames to the server and
// reads one response. The caller has frames in flight here.
func (c *Client) pump() error {
	if err := c.bw.Flush(); err != nil {
		return c.recoverWrite(err)
	}
	return c.readResponse()
}

// recycle returns a retained frame buffer to the router's free list.
func (c *Client) recycle(inf inflight) {
	if inf.frame != nil && c.rt != nil && len(c.rt.free) < routerFreeCap {
		c.rt.free = append(c.rt.free, inf.frame[:0])
	}
}

// readResponse reads one response frame and matches it against the
// oldest in-flight frame. A transport failure under a reconnect policy
// redials and replays the pipeline (or, for a sub-client whose peer is
// gone for good, abandons it and stalls its batches for Drain).
func (c *Client) readResponse() error {
	payload, err := ReadFrame(c.br, c.rbuf, c.maxFrame)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if !recoverable(err) || c.Reconnect.MaxAttempts <= 0 {
			return err
		}
		if rerr := c.recoverConn(err); rerr != nil {
			if errors.Is(rerr, errPeerLost) {
				c.abandon()
				return nil
			}
			return rerr
		}
		return c.readResponse()
	}
	c.rbuf = payload[:0]
	fr, err := DecodeFrame(payload)
	if err != nil {
		return err
	}
	inf := c.pending[0]
	c.pending = slices.Delete(c.pending, 0, 1)
	answer := uint8(TagAck)
	if inf.tag == TagJoin {
		answer = TagAssign
	}
	switch fr.Tag {
	case answer:
		if fr.Seq != inf.seq {
			return fmt.Errorf("wire: answer for frame %d, want %d", fr.Seq, inf.seq)
		}
		if inf.ring != nil {
			*inf.ring = fr.Ring
		}
		c.recycle(inf)
		return nil
	case TagNack:
		if c.rt != nil && fr.Code == NackRedirect && fr.Seq == inf.seq && inf.tag == TagBatch {
			return c.redirect(inf, fr.Detail)
		}
		c.recycle(inf)
		return &NackError{Seq: fr.Seq, Code: fr.Code, Detail: fr.Detail}
	}
	return fmt.Errorf("wire: unexpected response tag %#02x", fr.Tag)
}

// redirect re-homes one refused frame onto the owning node named by the
// REDIRECT nack: learn the route, patch the retained frame's seq for
// the new connection, and append it to that connection's pipeline.
//
// Ordering: the moment the route is learned, *new* batches for the
// stream start riding the new connection, so before returning, every
// same-stream frame still in flight on this connection is drained
// first. Without that, a batch sent after the route flip could
// overtake one sent before it. The frames those verdicts redirect are
// held, not re-queued one by one, and all of them go to their owners
// in arrival order once the drain is done. The old route's node has
// therefore answered every frame of the window before the new owner
// sees the first one: if the new owner dies mid-window and the old
// node takes the stream over, it cannot be holding a later frame that
// it accepts ahead of an earlier one lost with the dead owner.
// Per-stream FIFO therefore survives the migration.
func (c *Client) redirect(inf inflight, owner string) error {
	c.held = append(c.held, heldRedirect{inf, owner})
	if len(c.held) > 1 {
		return nil // inside an earlier redirect's drain, which re-homes it
	}
	defer func() { c.held = c.held[:0] }()
	var first error
	for c.hasPending(inf.stream) {
		if err := keepNack(&first, c.pump()); err != nil {
			return err
		}
	}
	// Indexed, not ranged: re-homing onto this same connection can read
	// a verdict that holds one more frame.
	for i := 0; i < len(c.held); i++ {
		if err := keepNack(&first, c.rehome(c.held[i].inf, c.held[i].owner)); err != nil {
			for _, rest := range c.held[i+1:] {
				c.recycle(rest.inf)
			}
			return err
		}
	}
	return first
}

// heldRedirect is a refused frame waiting, with the owner its REDIRECT
// named, for redirect's drain to finish.
type heldRedirect struct {
	inf   inflight
	owner string
}

// rehome re-queues one redirected frame on its owner's connection, or
// stalls it for Drain to re-queue while the owner is unreachable. Only
// a re-send to a live owner costs a hop.
func (c *Client) rehome(inf inflight, owner string) error {
	if owner == "" || inf.hops >= maxRedirectHops {
		c.recycle(inf)
		return &NackError{Seq: inf.seq, Code: NackRedirect, Err: ErrTooManyRedirects,
			Detail: fmt.Sprintf("redirect loop (hop %d, owner %q)", inf.hops, owner)}
	}
	c.rt.routes[inf.stream] = owner
	t, err := c.rt.peer(owner, c)
	if err != nil {
		if c.Reconnect.MaxAttempts > 0 {
			// The named owner is unreachable — the usual state while the
			// cluster is still taking over a dead node's streams. Stall
			// the frame instead of failing.
			delete(c.rt.routes, inf.stream)
			c.stall(inf)
			return nil
		}
		c.recycle(inf)
		return err
	}
	if c.Reconnect.MaxAttempts > 0 && c.rt.waitsBehind(inf, t) {
		// An older frame of the stream is stalled, or in flight to the
		// previous owner, which may be the node that died: the frame
		// redirected to the next owner must not land ahead of it.
		c.stall(inf)
		return nil
	}
	inf.hops++
	c.rt.redirects++
	return t.push(inf)
}

// resend handles a write of inf that failed with cause: it settles the
// connection (recoverWrite), then writes inf again behind the replayed
// pipeline and appends it to pending — or, when the connection was
// abandoned for a peer that stays down, stalls inf behind the
// connection's other frames, exactly as for an owner that was
// unreachable from the start. Nack verdicts read while settling are
// returned.
func (c *Client) resend(cause error, inf inflight) error {
	var first error
	if err := keepNack(&first, c.recoverWrite(cause)); err != nil {
		return err
	}
	if c.rt != nil && !c.rt.live(c) {
		c.stall(inf)
		return first
	}
	if _, err := c.bw.Write(inf.frame); err != nil {
		return err
	}
	c.pending = append(c.pending, inf)
	return first
}

// recoverWrite settles a connection whose write or flush failed with
// cause the way the read path settles one: the verdicts the server
// sent before the failure are read first, so frames it already
// answered are not sent again, and the read path's recovery then
// redials (replaying what the connection still carries) or, for a peer
// that stays down, abandons it and stalls its frames. If every verdict
// arrives intact, it redials itself. On a nil or Nack error the
// connection is either usable again or, when following redirects,
// abandoned (see router.live). An unrecoverable cause, or one without
// a reconnect policy, is returned as is.
func (c *Client) recoverWrite(cause error) error {
	if !recoverable(cause) || c.Reconnect.MaxAttempts <= 0 {
		return cause
	}
	var first error
	conn := c.conn
	for len(c.pending) > 0 {
		if err := keepNack(&first, c.readResponse()); err != nil {
			return err
		}
		if c.conn != conn || (c.rt != nil && !c.rt.live(c)) {
			return first // redialed, or abandoned
		}
	}
	if err := c.recoverConn(cause); err != nil {
		if !errors.Is(err, errPeerLost) {
			return err
		}
		c.abandon()
	}
	return first
}

// hasPending reports whether any in-flight frame on this connection
// belongs to stream.
func (c *Client) hasPending(stream string) bool {
	for i := range c.pending {
		if c.pending[i].stream == stream {
			return true
		}
	}
	return false
}

// Flush asks the server to flush the fleet (force-close every stream's
// trailing partial interval) and waits for the Ack, draining every
// pipelined frame first. In redirect-following mode every connection
// the client has opened is flushed, so streams that migrated to other
// nodes get their trailing interval closed too; a peer that dies
// before answering its flush is skipped, since a dead node has no
// trailing intervals to close.
func (c *Client) Flush() error {
	if err := c.Drain(); err != nil {
		return err
	}
	conns := []*Client{c}
	if c.rt != nil {
		conns = slices.Clone(c.rt.all)
	}
	var first error
	for _, cl := range conns {
		if c.rt != nil && !c.rt.live(cl) {
			continue
		}
		cl.wbuf = AppendFlushFrame(cl.wbuf[:0], 0)
		if err := keepNack(&first, cl.enqueue(inflight{tag: TagFlush})); err != nil {
			return err
		}
	}
	if err := keepNack(&first, c.Drain()); err != nil {
		return err
	}
	return first
}

// SendJoin announces a node to a cluster member and returns the ring
// assignment the member replies with (the post-join membership at its
// new epoch). Frames queued before it are drained first; an earlier
// frame's Nack is returned without sending the join.
func (c *Client) SendJoin(node NodeInfo) (RingInfo, error) {
	var ring RingInfo
	err := c.request(inflight{tag: TagJoin, ring: &ring}, func(b []byte) []byte {
		return AppendJoinFrame(b, 0, node)
	})
	if err != nil {
		return RingInfo{}, err
	}
	return ring, nil
}

// SendAssign pushes a ring assignment to a node. The node acks when the
// assignment is adopted (or was already current) and nacks with
// NackStaleEpoch when it already follows a newer ring. Frames queued
// before it are drained first; an earlier frame's Nack is returned
// without sending the assignment.
func (c *Client) SendAssign(ring RingInfo) error {
	return c.request(inflight{tag: TagAssign}, func(b []byte) []byte {
		return AppendAssignFrame(b, 0, ring)
	})
}

// request drains every frame in flight, then queues the control frame
// that appendFrame encodes on this connection and drains until it is
// answered. With nothing else in flight, the error is the control
// frame's own verdict.
func (c *Client) request(inf inflight, appendFrame func([]byte) []byte) error {
	if err := c.Drain(); err != nil {
		return err
	}
	c.wbuf = appendFrame(c.wbuf[:0])
	if err := c.enqueue(inf); err != nil {
		return err
	}
	return c.Drain()
}

// Close closes the connection — and, in redirect-following mode, every
// peer connection opened on redirects.
func (c *Client) Close() error {
	err := c.conn.Close()
	if c.rt != nil {
		for _, cl := range c.rt.all {
			if cl != c {
				cl.conn.Close()
			}
		}
	}
	return err
}

// DialRetry dials with retries until the server accepts the handshake
// or ctx expires, for startup races where the server is still binding
// its listener.
func DialRetry(ctx context.Context, addr string, timeout time.Duration) (*Client, error) {
	var last error
	for {
		c, err := Dial(addr, timeout)
		if err == nil {
			return c, nil
		}
		last = err
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("wire: dialing %s: %w (last: %v)", addr, ctx.Err(), last)
		case <-time.After(50 * time.Millisecond):
		}
	}
}
