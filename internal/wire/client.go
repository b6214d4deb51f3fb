package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
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
// in redirect-following mode: the raw encoded bytes are retained so a
// REDIRECT nack can re-send them to the owner verbatim (with the seq
// patched in place) instead of asking the caller to replay.
type inflight struct {
	seq    uint64
	stream string
	frame  []byte
	hops   uint8
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

// Client speaks the ingest protocol over one connection. SendBatch and
// Flush are synchronous (one frame in flight); QueueBatch pipelines up
// to Window frames before blocking on the oldest response. A Client is
// not safe for concurrent use. Frames go down the wire in call order
// either way, so per-stream batch ordering follows call order,
// matching the Fleet's Send contract.
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

// roundTripFrame writes the frame staged in wbuf and returns the
// response frame. A Nack response is returned as *NackError. With a
// reconnect policy, one transport failure is recovered by redialing
// (which replays any pipelined frames) and re-sending wbuf.
func (c *Client) roundTripFrame() (Frame, error) {
	fr, err := c.tryRoundTripFrame()
	if err != nil && recoverable(err) && c.Reconnect.MaxAttempts > 0 {
		if rerr := c.recoverConn(err); rerr != nil {
			return Frame{}, rerr
		}
		return c.tryRoundTripFrame()
	}
	return fr, err
}

func (c *Client) tryRoundTripFrame() (Frame, error) {
	if err := c.deadline(); err != nil {
		return Frame{}, err
	}
	if _, err := c.bw.Write(c.wbuf); err != nil {
		return Frame{}, err
	}
	if err := c.bw.Flush(); err != nil {
		return Frame{}, err
	}
	payload, err := ReadFrame(c.br, c.rbuf, c.maxFrame)
	if err != nil {
		if err == io.EOF {
			return Frame{}, io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	c.rbuf = payload[:0]
	fr, err := DecodeFrame(payload)
	if err != nil {
		return Frame{}, err
	}
	if fr.Tag == TagNack {
		return fr, &NackError{Seq: fr.Seq, Code: fr.Code, Detail: fr.Detail}
	}
	return fr, nil
}

// roundTrip writes the frame staged in wbuf and waits for the matching
// Ack or Nack.
func (c *Client) roundTrip(seq uint64) error {
	fr, err := c.roundTripFrame()
	if err != nil {
		return err
	}
	if fr.Tag != TagAck {
		return fmt.Errorf("wire: unexpected response tag %#02x", fr.Tag)
	}
	if fr.Seq != seq {
		return fmt.Errorf("wire: ack for frame %d, want %d", fr.Seq, seq)
	}
	return nil
}

// SendBatch sends one batch and waits for the server's Ack (draining
// any pipelined frames first). A Nack is returned as *NackError.
func (c *Client) SendBatch(stream string, cycles uint64, events []trace.BranchEvent, endInterval bool) error {
	if c.rt != nil {
		if err := c.QueueBatch(stream, cycles, events, endInterval); err != nil {
			return err
		}
		return c.Drain()
	}
	if len(c.pending) > 0 {
		if err := c.Drain(); err != nil {
			return err
		}
	}
	c.seq++
	c.wbuf = AppendBatchFrame(c.wbuf[:0], Batch{
		Seq:         c.seq,
		StreamSeq:   c.nextStreamSeq(stream),
		Stream:      stream,
		Cycles:      cycles,
		EndInterval: endInterval,
		Events:      events,
	})
	return c.roundTrip(c.seq)
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
	var stallNack error
	if c.rt != nil && len(c.rt.stalled) > 0 {
		// Frames from a lost peer are waiting to be re-homed. Deliver
		// them before queueing anything new, or a new batch could
		// overtake an older one for the same stream.
		if err := c.rt.settle(c.rt.all[0]); err != nil {
			var ne *NackError
			if !errors.As(err, &ne) {
				return err
			}
			stallNack = err
		}
	}
	t, err := c.target(stream)
	if err != nil {
		return err
	}
	if err := t.queueBatch(stream, cycles, events, endInterval); err != nil {
		return err
	}
	return stallNack
}

// queueBatch stages a batch on this connection specifically.
func (c *Client) queueBatch(stream string, cycles uint64, events []trace.BranchEvent, endInterval bool) error {
	if err := c.deadline(); err != nil {
		return err
	}
	c.seq++
	c.wbuf = AppendBatchFrame(c.wbuf[:0], Batch{
		Seq:         c.seq,
		StreamSeq:   c.nextStreamSeq(stream),
		Stream:      stream,
		Cycles:      cycles,
		EndInterval: endInterval,
		Events:      events,
	})
	inf := inflight{seq: c.seq, stream: stream}
	if c.rt != nil || c.Reconnect.MaxAttempts > 0 {
		// Retained before the write: a reconnect replays the pipeline
		// from these buffers, so the copy must exist even if the write
		// below is the call that discovers the connection is gone.
		inf.frame = c.retainFrame()
	}
	var firstNack error
	if _, err := c.bw.Write(c.wbuf); err != nil {
		// The connection died under us. Settle it (reconnecting and
		// replaying the frames still in flight), then re-send this one.
		nack, err := c.resend(err, inf)
		if err != nil {
			return err
		}
		if c.rt != nil && !c.rt.live(c) {
			// Abandoned, with this frame stalled behind the rest: deliver
			// them through the primary now.
			if err := c.rt.settle(c.rt.all[0]); err != nil {
				return err
			}
			return nack
		}
		firstNack = nack
	} else {
		c.pending = append(c.pending, inf)
	}
	win := c.Window
	if win < 1 {
		win = 1
	}
	for len(c.pending) > win {
		// Push buffered frames to the server before parking in a read,
		// or both sides could be waiting on each other.
		if err := c.bw.Flush(); err != nil {
			nack, rerr := c.recoverWrite(err)
			if rerr != nil {
				return rerr
			}
			if firstNack == nil {
				firstNack = nack
			}
			if c.rt != nil && !c.rt.live(c) {
				break
			}
			continue
		}
		if err := c.readResponse(); err != nil {
			var ne *NackError
			if !errors.As(err, &ne) {
				return err
			}
			if firstNack == nil {
				firstNack = err
			}
		}
	}
	if c.rt != nil && len(c.rt.stalled) > 0 {
		if err := c.rt.settle(c.rt.all[0]); err != nil {
			var ne *NackError
			if !errors.As(err, &ne) {
				return err
			}
			if firstNack == nil {
				firstNack = err
			}
		}
	}
	return firstNack
}

// Drain flushes queued frames and waits for every outstanding
// response — across every connection the client has opened, when
// redirects are being followed (a response on one connection can
// re-queue a frame on another, so the drain loops until the whole set
// is quiet). The first Nack (if any) is returned once the pipeline is
// fully drained; a transport error aborts immediately.
func (c *Client) Drain() error {
	if c.rt == nil {
		return c.drainLocal()
	}
	var firstNack error
	for {
		busy := false
		// Flush every connection first: re-queued frames buffered on a
		// peer must reach its server before we park reading responses.
		for _, cl := range c.rt.all {
			if err := cl.deadline(); err != nil {
				return err
			}
			if err := cl.bw.Flush(); err != nil {
				return err
			}
		}
		for _, cl := range c.rt.all {
			if len(cl.pending) == 0 {
				continue
			}
			busy = true
			if err := cl.readResponse(); err != nil {
				var ne *NackError
				if !errors.As(err, &ne) {
					return err
				}
				if firstNack == nil {
					firstNack = err
				}
			}
		}
		if !busy {
			if len(c.rt.stalled) > 0 {
				// Re-home frames stranded by a lost peer before
				// declaring the pipeline drained.
				if err := c.rt.settle(c.rt.all[0]); err != nil {
					var ne *NackError
					if !errors.As(err, &ne) {
						return err
					}
					if firstNack == nil {
						firstNack = err
					}
				}
				continue
			}
			return firstNack
		}
	}
}

func (c *Client) drainLocal() error {
	if err := c.deadline(); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	var firstNack error
	for len(c.pending) > 0 {
		if err := c.readResponse(); err != nil {
			var ne *NackError
			if !errors.As(err, &ne) {
				return err
			}
			if firstNack == nil {
				firstNack = err
			}
		}
	}
	return firstNack
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
// gone for good, re-homes its frames via the router's stalled queue).
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
	c.pending = c.pending[1:]
	switch fr.Tag {
	case TagAck:
		if fr.Seq != inf.seq {
			return fmt.Errorf("wire: ack for frame %d, want %d", fr.Seq, inf.seq)
		}
		c.recycle(inf)
		return nil
	case TagNack:
		if c.rt != nil && fr.Code == NackRedirect && fr.Seq == inf.seq && inf.frame != nil {
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
	var firstNack error
	if c.hasPending(inf.stream) {
		if err := c.bw.Flush(); err != nil {
			return err
		}
		for c.hasPending(inf.stream) {
			if err := c.readResponse(); err != nil {
				var ne *NackError
				if !errors.As(err, &ne) {
					return err
				}
				if firstNack == nil {
					firstNack = err
				}
			}
		}
	}
	// Indexed, not ranged: re-homing onto this same connection can read
	// a verdict that holds one more frame.
	for i := 0; i < len(c.held); i++ {
		if err := c.rehome(c.held[i].inf, c.held[i].owner); err != nil {
			var ne *NackError
			if !errors.As(err, &ne) {
				for _, rest := range c.held[i+1:] {
					c.recycle(rest.inf)
				}
				return err
			}
			if firstNack == nil {
				firstNack = err
			}
		}
	}
	return firstNack
}

// heldRedirect is a refused frame waiting, with the owner its REDIRECT
// named, for redirect's drain to finish.
type heldRedirect struct {
	inf   inflight
	owner string
}

// rehome re-queues one redirected frame on its owner's connection, or
// stalls it for re-delivery through the primary while the owner is
// unreachable.
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
			// the frame for synchronous re-delivery instead of failing.
			delete(c.rt.routes, inf.stream)
			c.rt.stalled = append(c.rt.stalled, inf)
			return nil
		}
		c.recycle(inf)
		return err
	}
	t.seq++
	binary.LittleEndian.PutUint64(inf.frame[seqOffset:], t.seq)
	inf.seq = t.seq
	inf.hops++
	if err := t.deadline(); err != nil {
		c.recycle(inf)
		return err
	}
	nack, err := t.push(inf)
	if err != nil {
		c.recycle(inf)
		return err
	}
	c.rt.redirects++
	return nack
}

// push appends a re-queued frame to this connection's pipeline and
// flushes it to the server at once: the next read may be on this
// connection (Drain round-robins connections), and a frame parked in
// the write buffer would deadlock that read. A failed write goes
// through resend. A Nack verdict read while settling is returned as
// nack; it refuses an earlier frame, not this one.
func (c *Client) push(inf inflight) (nack, err error) {
	_, err = c.bw.Write(inf.frame)
	if err == nil {
		err = c.bw.Flush()
	}
	if err == nil {
		c.pending = append(c.pending, inf)
		return nil, nil
	}
	if nack, err = c.resend(err, inf); err != nil || !c.rt.live(c) {
		return nack, err
	}
	return nack, c.bw.Flush()
}

// resend handles a write of inf that failed with cause: it settles the
// connection (recoverWrite), then writes inf again behind the replayed
// pipeline and appends it to pending — or, when the connection was
// abandoned for a peer that stays down, stalls inf behind the
// connection's other frames for re-delivery through the primary,
// exactly as for an owner that was unreachable from the start. The
// caller tells the two apart with router.live. Nack verdicts read while
// settling come back as nack.
func (c *Client) resend(cause error, inf inflight) (nack, err error) {
	if nack, err = c.recoverWrite(cause); err != nil {
		return nack, err
	}
	if c.rt != nil && !c.rt.live(c) {
		c.rt.stalled = append(c.rt.stalled, inf)
		return nack, nil
	}
	if _, err = c.bw.Write(inf.frame); err != nil {
		return nack, err
	}
	c.pending = append(c.pending, inf)
	return nack, nil
}

// recoverWrite settles a connection whose write or flush failed with
// cause the way the read path settles one: the verdicts the server
// sent before the failure are read first, so frames it already
// answered are not sent again, and the read path's recovery then
// redials (replaying what the connection still carries) or, for a peer
// that stays down, abandons it and stalls its frames. If every verdict
// arrives intact, it redials itself. On a nil error the connection is
// either usable again or, when following redirects, abandoned (see
// router.live). Nack verdicts read on the way come back as nack. An
// unrecoverable cause, or one without a reconnect policy, is returned
// as is.
func (c *Client) recoverWrite(cause error) (nack, err error) {
	if !recoverable(cause) || c.Reconnect.MaxAttempts <= 0 {
		return nil, cause
	}
	conn := c.conn
	for len(c.pending) > 0 {
		if err := c.readResponse(); err != nil {
			var ne *NackError
			if !errors.As(err, &ne) {
				return nack, err
			}
			if nack == nil {
				nack = err
			}
		}
		if c.conn != conn || (c.rt != nil && !c.rt.live(c)) {
			return nack, nil // redialed, or abandoned
		}
	}
	if rerr := c.recoverConn(cause); rerr != nil {
		if !errors.Is(rerr, errPeerLost) {
			return nack, rerr
		}
		c.abandon()
	}
	return nack, nil
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
// trailing partial interval) and waits for the Ack (draining any
// pipelined frames first). In redirect-following mode every connection
// the client has opened is flushed, so streams that migrated to other
// nodes get their trailing interval closed too.
func (c *Client) Flush() error {
	if c.rt != nil {
		if err := c.Drain(); err != nil {
			return err
		}
		alls := append([]*Client(nil), c.rt.all...)
		for _, cl := range alls {
			if !c.rt.live(cl) {
				continue
			}
			if err := cl.flushLocal(); err != nil {
				if errors.Is(err, errPeerLost) {
					// The peer died at flush time; a dead node has no
					// trailing intervals to close. Its in-flight batches
					// (if any) re-home through the stalled queue.
					cl.abandon()
					if err := c.Drain(); err != nil {
						return err
					}
					continue
				}
				return err
			}
		}
		return nil
	}
	return c.flushLocal()
}

func (c *Client) flushLocal() error {
	if len(c.pending) > 0 {
		if err := c.drainLocal(); err != nil {
			return err
		}
	}
	c.seq++
	c.wbuf = AppendFlushFrame(c.wbuf[:0], c.seq)
	return c.roundTrip(c.seq)
}

// SendJoin announces a node to a cluster member and returns the ring
// assignment the member replies with (the post-join membership at its
// new epoch).
func (c *Client) SendJoin(node NodeInfo) (RingInfo, error) {
	if len(c.pending) > 0 {
		if err := c.Drain(); err != nil {
			return RingInfo{}, err
		}
	}
	c.seq++
	c.wbuf = AppendJoinFrame(c.wbuf[:0], c.seq, node)
	fr, err := c.roundTripFrame()
	if err != nil {
		return RingInfo{}, err
	}
	if fr.Tag != TagAssign {
		return RingInfo{}, fmt.Errorf("wire: join answered with tag %#02x", fr.Tag)
	}
	return fr.Ring, nil
}

// SendAssign pushes a ring assignment to a node. The node acks when the
// assignment is adopted (or was already current) and nacks with
// NackStaleEpoch when it already follows a newer ring.
func (c *Client) SendAssign(ring RingInfo) error {
	if len(c.pending) > 0 {
		if err := c.Drain(); err != nil {
			return err
		}
	}
	c.seq++
	c.wbuf = AppendAssignFrame(c.wbuf[:0], c.seq, ring)
	return c.roundTrip(c.seq)
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
