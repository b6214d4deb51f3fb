package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
// Client: the frames are re-homed through the primary instead.
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
// sub-client's peer stays unreachable, its in-flight frames are
// re-homed through the primary connection in order, following fresh
// redirects (and waiting out "owner unreachable" windows with the same
// backoff) until the ring's new owner accepts them. Loss of the
// primary connection itself is re-dialed but never re-homed; if the
// primary node is the one that died, the client fails hard.
type ReconnectPolicy struct {
	// MaxAttempts is the redial (and, for re-homed frames, redelivery)
	// budget per loss event. 0 disables reconnection.
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
// frames join the stalled queue (preserving order — per-stream FIFO
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
	rt.stalled = append(rt.stalled, c.pending...)
	c.pending = nil
}

// live reports whether t is still one of the router's connections (it
// may have abandoned itself while draining).
func (rt *router) live(t *Client) bool {
	return (len(rt.all) > 0 && t == rt.all[0]) || rt.peers[t.addr] == t
}

// settle delivers every stalled frame, in order, through the primary.
// Nack verdicts are collected (first one returned, like Drain); any
// transport-level failure that survives the budget aborts.
func (rt *router) settle(primary *Client) error {
	var firstNack error
	for len(rt.stalled) > 0 {
		inf := rt.stalled[0]
		rt.stalled = rt.stalled[1:]
		if err := rt.resolveOne(primary, inf); err != nil {
			var ne *NackError
			if errors.As(err, &ne) && !errors.Is(err, ErrTooManyRedirects) {
				if firstNack == nil {
					firstNack = err
				}
				continue
			}
			return err
		}
	}
	return firstNack
}

// resolveOne synchronously delivers one stalled frame: resolve the
// stream's route (falling back to the primary when none is learned or
// the learned owner is unreachable), send, and follow the verdict.
// Redirects to unreachable owners — the normal state while the cluster
// is still detecting a death — cost a backoff sleep, not a hop;
// genuine multi-node redirect chains are capped at maxRedirectHops.
func (rt *router) resolveOne(primary *Client, inf inflight) error {
	pol := primary.Reconnect.withDefaults()
	hops := 0
	last := error(nil)
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			primary.sleep(primary.backoff(pol, attempt-1))
		}
		t := primary
		if addr, ok := rt.routes[inf.stream]; ok && addr != primary.addr {
			p, err := rt.peer(addr, primary)
			if err != nil {
				// Owner unreachable (likely mid-takeover): forget the
				// route and re-ask through the primary next attempt.
				delete(rt.routes, inf.stream)
				last = err
				continue
			}
			t = p
		}
		fr, err := t.syncDeliver(&inf)
		if err != nil {
			var ne *NackError
			switch {
			case errors.As(err, &ne):
				// A verdict for an older frame surfaced while draining
				// t's pipeline; put ours back and report it.
				rt.stalled = append([]inflight{inf}, rt.stalled...)
				return err
			case !recoverable(err):
				return err
			case t == primary:
				if rerr := primary.recoverConn(err); rerr != nil {
					return rerr
				}
				last = err
				continue
			default:
				t.abandon()
				last = err
				continue
			}
		}
		switch fr.Tag {
		case TagAck:
			if fr.Seq != inf.seq {
				return fmt.Errorf("wire: ack for frame %d, want %d", fr.Seq, inf.seq)
			}
			primary.recycle(inf)
			return nil
		case TagNack:
			if fr.Code == NackRedirect && fr.Detail != "" {
				if t != primary {
					hops++
				}
				if hops >= maxRedirectHops {
					primary.recycle(inf)
					return &NackError{Seq: inf.seq, Code: NackRedirect, Err: ErrTooManyRedirects,
						Detail: fmt.Sprintf("stalled frame bounced %d hops (owner %q)", hops, fr.Detail)}
				}
				rt.routes[inf.stream] = fr.Detail
				rt.redirects++
				continue
			}
			primary.recycle(inf)
			return &NackError{Seq: fr.Seq, Code: fr.Code, Detail: fr.Detail}
		default:
			return fmt.Errorf("wire: unexpected response tag %#02x", fr.Tag)
		}
	}
	return fmt.Errorf("wire: could not deliver frame %d (stream %q) within the reconnect budget: %v",
		inf.seq, inf.stream, last)
}

// syncDeliver drains t's pipeline, then sends inf alone and returns the
// server's verdict frame. errPeerLost if t abandoned itself draining.
func (t *Client) syncDeliver(inf *inflight) (Frame, error) {
	if len(t.pending) > 0 {
		if err := t.drainLocal(); err != nil {
			return Frame{}, err
		}
		if t.rt != nil && !t.rt.live(t) {
			return Frame{}, fmt.Errorf("%w: %s", errPeerLost, t.addr)
		}
	}
	t.seq++
	binary.LittleEndian.PutUint64(inf.frame[seqOffset:], t.seq)
	inf.seq = t.seq
	if err := t.deadline(); err != nil {
		return Frame{}, err
	}
	if _, err := t.bw.Write(inf.frame); err != nil {
		return Frame{}, err
	}
	if err := t.bw.Flush(); err != nil {
		return Frame{}, err
	}
	payload, err := ReadFrame(t.br, t.rbuf, t.maxFrame)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	t.rbuf = payload[:0]
	return DecodeFrame(payload)
}
