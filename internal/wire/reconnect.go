package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"phasekit/internal/backoff"
)

// ErrTooManyRedirects is wrapped by the error returned when a frame
// exhausts the redirect hop budget — two nodes that each claim the
// other owns a stream, which a consistent ring never produces but a
// partitioned cluster can sustain transiently. Callers distinguish it
// from an ordinary refusal with errors.Is.
var ErrTooManyRedirects = errors.New("wire: redirect hop budget exhausted")

// errPeerLost marks a sub-client whose connection died and could not be
// re-established within the reconnect budget. It never escapes the
// Client: the connection is abandoned and its batches stalled instead.
var errPeerLost = errors.New("wire: peer connection lost")

// ReconnectPolicy makes a Client survive connection loss mid-stream:
// the client redials with jittered exponential backoff and replays its
// unacknowledged in-flight frames in their original order. The zero
// value disables reconnection (a cut surfaces as a hard error, the
// pre-policy behavior).
//
// Delivery becomes at-least-once: a frame the server applied whose ack
// died with the connection is replayed and applied again. The policy
// therefore fits the cluster failure model — where the lost peer
// crashed and the node that takes over its streams resumes from their
// shared-store checkpoint horizon, which is exactly the client's replay
// point — not transient
// blips against a server that survived them.
//
// In redirect-following mode the policy also covers node death: when a
// sub-client's peer stays unreachable, or a REDIRECT names an owner
// that cannot be dialed, the batches concerned are stalled, and so is
// a batch redirected while an older one of its stream is stalled or in
// flight elsewhere. Drain re-queues them on their stream's route or on
// the primary connection, through the same pipeline as every other
// frame, and follows fresh redirects until the ring's new owner
// accepts them. Only the oldest stalled frame of each stream is in
// flight at a time, so a stream's frames land in order even when the
// owner changes between two of them. Each round that answers none of
// the stalled frames costs one attempt, with the same backoff; a
// stalled frame costs a redirect hop only when it is re-sent to a live
// owner. Flush, join and assign frames are replayed only to the
// address they were sent to: a dead peer's are dropped, never
// re-homed. Loss of the primary connection itself is re-dialed
// but never re-homed; if the primary node is the one that died, the
// client fails hard.
type ReconnectPolicy struct {
	// MaxAttempts is the redial budget per loss event, and the number
	// of rounds in a row that Drain re-queues stalled frames without
	// any being answered before it gives up with an error. 0 disables
	// reconnection.
	MaxAttempts int
	// Backoff is the delay before the second attempt; it doubles per
	// attempt and is jittered over [d/2, d]. Default 50ms.
	Backoff time.Duration
	// MaxBackoff caps the doubling. Default 2s.
	MaxBackoff time.Duration
}

func (p ReconnectPolicy) withDefaults() ReconnectPolicy {
	if p.Backoff <= 0 {
		p.Backoff = 50 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	return p
}

// backoff returns the jittered delay before retry attempt k (0-based).
func (c *Client) backoff(p ReconnectPolicy, k int) time.Duration {
	return backoff.Delay(p.Backoff, p.MaxBackoff, k, c.jitter)
}

// jitter advances the client's LCG, seeded from its address, and
// returns the state's top 31 bits.
func (c *Client) jitter() uint64 {
	if c.jit == 0 {
		for i := 0; i < len(c.addr); i++ {
			c.jit = c.jit*131 + uint64(c.addr[i])
		}
		c.jit |= 1
	}
	c.jit = c.jit*6364136223846793005 + 1442695040888963407
	return c.jit >> 33
}

func (c *Client) sleep(d time.Duration) {
	if c.sleepFn != nil {
		c.sleepFn(d)
		return
	}
	time.Sleep(d)
}

// recoverable reports whether err is a transport failure a reconnect
// could fix, as opposed to a protocol verdict (nack) or a data error.
func recoverable(err error) bool {
	var ne *NackError
	return err != nil && !errors.As(err, &ne) &&
		!errors.Is(err, ErrMalformed) && !errors.Is(err, ErrFrameTooLarge)
}

// retainFrame copies the frame staged in wbuf so it can be replayed
// after a reconnect (via the router's free list when there is one).
func (c *Client) retainFrame() []byte {
	if c.rt != nil {
		return c.rt.retain(c.wbuf)
	}
	return append([]byte(nil), c.wbuf...)
}

// recoverConn redials a lost connection under the reconnect policy and
// replays every in-flight frame in order. On a sub-client whose peer
// stays down it returns errPeerLost so the caller re-homes the frames;
// on the primary (or a standalone client) exhaustion is a hard error.
func (c *Client) recoverConn(cause error) error {
	pol := c.Reconnect.withDefaults()
	if c.Reconnect.MaxAttempts <= 0 {
		return cause
	}
	for i := range c.pending {
		if c.pending[i].frame == nil {
			return fmt.Errorf("wire: connection lost with unreplayable frame %d: %w",
				c.pending[i].seq, cause)
		}
	}
	c.conn.Close()
	last := cause
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.sleep(c.backoff(pol, attempt-1))
		}
		conn, err := net.DialTimeout("tcp", c.addr, c.Timeout)
		if err != nil {
			last = err
			continue
		}
		c.conn = conn
		c.br.Reset(conn)
		c.bw.Reset(conn)
		if err := c.replayPending(); err != nil {
			last = err
			conn.Close()
			continue
		}
		return nil
	}
	if c.rt != nil && len(c.rt.all) > 0 && c != c.rt.all[0] {
		return fmt.Errorf("%w: %s: %v", errPeerLost, c.addr, last)
	}
	return fmt.Errorf("wire: reconnect to %s failed after %d attempts: %w (last: %v)",
		c.addr, pol.MaxAttempts, cause, last)
}

// replayPending re-sends the magic and every retained in-flight frame
// on a freshly dialed connection, preserving order and seqs.
func (c *Client) replayPending() error {
	if err := c.deadline(); err != nil {
		return err
	}
	if _, err := c.bw.WriteString(Magic); err != nil {
		return err
	}
	for i := range c.pending {
		if _, err := c.bw.Write(c.pending[i].frame); err != nil {
			return err
		}
	}
	return c.bw.Flush()
}

// abandon removes a dead sub-client from the router: its in-flight
// batches join the stalled queue (preserving order — per-stream FIFO
// holds because a stream rides exactly one connection at a time), its
// learned routes are forgotten, and the connection is closed.
func (c *Client) abandon() {
	rt := c.rt
	c.conn.Close()
	delete(rt.peers, c.addr)
	for i, cl := range rt.all {
		if cl == c {
			rt.all = append(rt.all[:i], rt.all[i+1:]...)
			break
		}
	}
	for s, a := range rt.routes {
		if a == c.addr {
			delete(rt.routes, s)
		}
	}
	for _, inf := range c.pending {
		c.stall(inf)
	}
	c.pending = nil
}

// stall parks a frame of a lost connection for Drain to re-queue. A
// control frame (flush, join, assign) is answered only by the node it
// was sent to, so it is dropped instead: a dead node has no trailing
// intervals to flush.
func (c *Client) stall(inf inflight) {
	if inf.tag != TagBatch {
		c.recycle(inf)
		return
	}
	c.rt.stalled = append(c.rt.stalled, inf)
}

// live reports whether t is still one of the router's connections (it
// may have abandoned itself while draining).
func (rt *router) live(t *Client) bool {
	return (len(rt.all) > 0 && t == rt.all[0]) || rt.peers[t.addr] == t
}

// streamSeqOffset is where a raw batch frame's StreamSeq sits, right
// after its seq.
const streamSeqOffset = seqOffset + 8

// settle re-queues the oldest stalled frame of each stream, on the
// stream's route or, without a reachable one, on the primary; Drain
// delivers them through the pipeline like any other frame and settles
// again. The rest of a stream stays stalled until that frame is
// answered: frames stall while a dead owner's streams are being taken
// over, and the primary can redirect one frame to the dead owner,
// finish the takeover and accept the next, which would then land ahead
// of the first. The oldest frame is the one with the lowest StreamSeq,
// not the first in the queue: a frame that stalls again is queued
// behind the younger frames of its stream.
func (rt *router) settle(primary *Client) error {
	var first error
	queued := rt.stalled
	rt.stalled = nil
	for _, inf := range queued {
		if olderIn(queued, inf) {
			rt.stalled = append(rt.stalled, inf)
			continue
		}
		t, err := primary.target(inf.stream)
		if err != nil {
			delete(rt.routes, inf.stream)
			t = primary
		}
		if err := keepNack(&first, t.push(inf)); err != nil {
			return err
		}
	}
	return first
}

// waitsBehind reports whether an older frame of inf's stream is stalled
// or in flight on a connection other than t.
func (rt *router) waitsBehind(inf inflight, t *Client) bool {
	if olderIn(rt.stalled, inf) {
		return true
	}
	for _, cl := range rt.all {
		if cl != t && olderIn(cl.pending, inf) {
			return true
		}
	}
	return false
}

// olderIn reports whether frames holds a batch of inf's stream with a
// lower StreamSeq; control frames are skipped.
func olderIn(frames []inflight, inf inflight) bool {
	seq := binary.LittleEndian.Uint64(inf.frame[streamSeqOffset:])
	for i := range frames {
		f := &frames[i]
		if f.tag == TagBatch && f.stream == inf.stream &&
			binary.LittleEndian.Uint64(f.frame[streamSeqOffset:]) < seq {
			return true
		}
	}
	return false
}
