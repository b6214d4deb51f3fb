// Package server is the network ingestion layer between untrusted
// callers and a phasekit Fleet: a TCP server speaking the
// internal/wire length-prefixed binary protocol, with per-connection
// read/write deadlines (slow-loris defense), a max-frame guard,
// backpressure wired to the Fleet's overload policy, stream quarantine
// for malformed traffic, liveness/readiness probes, and graceful drain.
// Pipelined clients get burst coalescing: frames already buffered when
// a read returns are decoded together, staged into per-shard batch
// runs (one fleet channel hop per run instead of per frame), and
// answered with a single ordered write. With a write-ahead log the
// answer waits for durability, so each connection splits in two: the
// read loop admits and appends burst after burst while a responder
// goroutine group-commits what it has been handed and releases the
// ACKs in arrival order.
//
// # Failure containment
//
// Faults are contained at the narrowest scope that can absorb them:
//
//   - A malformed payload inside an intact frame is NACKed
//     (NackMalformed) and counted as an offense against the stream
//     that sent it — repeated offenses quarantine the stream
//     (fleet.ErrQuarantined → NackQuarantined) without costing its
//     shard neighbors anything. The connection survives.
//   - A broken frame (oversized length prefix, short read, handshake
//     garbage, idle timeout) is connection-fatal: the byte stream
//     cannot be resynced, so the connection is closed. The fleet and
//     other connections are untouched.
//   - A full fleet queue under OverloadReject becomes NackOverload; under
//     OverloadBlock the send waits, bounded by IngestTimeout, and a
//     timeout becomes NackDeadline. Either way the caller learns to
//     back off; the read loop never blocks unboundedly.
//
// # Drain
//
// Shutdown stops accepting, marks readiness false, wakes every
// connection parked in a read, lets in-flight frames finish (bounded
// by the shutdown context), and returns. The caller then checkpoints
// the fleet (Fleet.Checkpoint) so a restart resumes every stream —
// including mid-interval state — bit-identically.
package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"phasekit/internal/cluster"
	"phasekit/internal/core"
	"phasekit/internal/fleet"
	"phasekit/internal/trace"
	"phasekit/internal/wal"
	"phasekit/internal/wire"
)

// Default connection and ingest bounds.
const (
	DefaultReadTimeout   = 30 * time.Second
	DefaultWriteTimeout  = 10 * time.Second
	DefaultIngestTimeout = 5 * time.Second
)

// Config configures a Server.
type Config struct {
	// Fleet receives every decoded batch. Required.
	Fleet *fleet.Fleet
	// ReadTimeout bounds the wait for each frame (header and body): a
	// connection that goes quiet — or dribbles bytes slower than one
	// frame per window, the slow-loris pattern — is closed. 0 means
	// DefaultReadTimeout.
	ReadTimeout time.Duration
	// WriteTimeout bounds each response write. 0 means
	// DefaultWriteTimeout.
	WriteTimeout time.Duration
	// IngestTimeout bounds the ctx-bounded Fleet send for each batch
	// under the Block overload policy. 0 means DefaultIngestTimeout.
	IngestTimeout time.Duration
	// MaxFrame bounds the accepted frame payload size. 0 means
	// wire.DefaultMaxFrame.
	MaxFrame int
	// Cluster, if non-nil, makes the server a cluster member: batches
	// for streams the ring assigns elsewhere are answered with
	// NACK(REDIRECT, owner-addr) instead of ingested, and the control
	// frames (JOIN, ASSIGN, PING, PROBE) are dispatched to the
	// coordinator. Nil means standalone — the ownership check costs one
	// branch.
	Cluster *cluster.Coordinator
	// WAL, when non-nil, is the per-shard write-ahead log set,
	// index-aligned with the Fleet's shards (len must equal
	// Fleet.Shards()). Every batch the fleet admits is appended to its
	// owning shard's log, and the ACK is withheld until the log's
	// commit completes — so an acked batch survives a crash and is
	// replayed on restart. The commit runs on the connection's
	// responder goroutine while the read loop keeps admitting. Nil
	// means ACK-on-enqueue, written inline by the read loop.
	WAL []*wal.Log
	// Logf, if non-nil, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = DefaultReadTimeout
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = DefaultWriteTimeout
	}
	if c.IngestTimeout <= 0 {
		c.IngestTimeout = DefaultIngestTimeout
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = wire.DefaultMaxFrame
	}
	return c
}

// Validate reports whether the configuration is usable. Failures wrap
// core.ErrConfig.
func (c Config) Validate() error {
	if c.Fleet == nil {
		return fmt.Errorf("%w: server: Fleet is required", core.ErrConfig)
	}
	if c.ReadTimeout < 0 || c.WriteTimeout < 0 || c.IngestTimeout < 0 {
		return fmt.Errorf("%w: server: timeouts must be >= 0", core.ErrConfig)
	}
	if c.MaxFrame < 0 {
		return fmt.Errorf("%w: server: MaxFrame must be >= 0", core.ErrConfig)
	}
	if len(c.WAL) > 0 && len(c.WAL) != c.Fleet.Shards() {
		return fmt.Errorf("%w: server: WAL has %d logs, want one per fleet shard (%d)",
			core.ErrConfig, len(c.WAL), c.Fleet.Shards())
	}
	return nil
}

// Metrics is a point-in-time copy of the server's counters.
type Metrics struct {
	// Conns counts accepted connections; OpenConns is the current
	// number still open.
	Conns     uint64
	OpenConns int
	// Frames counts decoded frames; Acks and Nacks count responses.
	Frames uint64
	Acks   uint64
	Nacks  uint64
	// Malformed counts payloads that failed to decode (NackMalformed);
	// DeadConns counts connections dropped for protocol or IO errors
	// (bad magic, oversized frame, timeout, mid-frame disconnect).
	Malformed uint64
	DeadConns uint64
	// Bursts counts read-loop passes that coalesced two or more
	// pipelined frames into per-shard runs; BurstFrames counts the
	// frames those passes carried. Frames - BurstFrames arrived alone,
	// whichever path answered them.
	Bursts      uint64
	BurstFrames uint64
	// Redirects counts batches NACKed to their owning node. It stays
	// zero outside cluster mode.
	Redirects uint64
	// WALFailures counts batches that were applied in memory but NACKed
	// because their write-ahead-log append or commit failed — the
	// durability contract could not be met, so the client must not
	// count them as acked. Zero when no WAL is configured.
	WALFailures uint64
}

// Server serves the wire ingest protocol over TCP. Create with New,
// start with Serve or ListenAndServe, stop with Shutdown.
type Server struct {
	cfg Config

	lnMu sync.Mutex
	ln   net.Listener

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	wg       sync.WaitGroup
	baseCtx  context.Context
	cancel   context.CancelFunc
	ready    atomic.Bool
	draining atomic.Bool

	conns64, frames, acks, nacks, malformed, dead atomic.Uint64
	bursts, burstFrames, redirects, walFails      atomic.Uint64
}

// New returns an unstarted server.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:     cfg.withDefaults(),
		conns:   make(map[net.Conn]struct{}),
		baseCtx: ctx,
		cancel:  cancel,
	}, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Healthy reports liveness: true for the server's whole lifetime (the
// process answering at all is the liveness signal).
func (s *Server) Healthy() bool { return true }

// Ready reports readiness: true while the listener is accepting and
// the server is not draining.
func (s *Server) Ready() bool { return s.ready.Load() && !s.draining.Load() }

// Metrics returns a snapshot of the server's counters.
func (s *Server) Metrics() Metrics {
	s.connMu.Lock()
	open := len(s.conns)
	s.connMu.Unlock()
	return Metrics{
		Conns:       s.conns64.Load(),
		OpenConns:   open,
		Frames:      s.frames.Load(),
		Acks:        s.acks.Load(),
		Nacks:       s.nacks.Load(),
		Malformed:   s.malformed.Load(),
		DeadConns:   s.dead.Load(),
		Bursts:      s.bursts.Load(),
		BurstFrames: s.burstFrames.Load(),
		Redirects:   s.redirects.Load(),
		WALFailures: s.walFails.Load(),
	}
}

// ListenAndServe binds addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the bound listener address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections on ln until Shutdown closes it. It returns
// nil after a clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	s.ready.Store(true)
	defer s.ready.Store(false)
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		if s.draining.Load() {
			conn.Close()
			continue
		}
		s.conns64.Add(1)
		s.track(conn, true)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.track(conn, false)
			defer conn.Close()
			s.serveConn(conn)
		}()
	}
}

func (s *Server) track(conn net.Conn, add bool) {
	s.connMu.Lock()
	if add {
		s.conns[conn] = struct{}{}
	} else {
		delete(s.conns, conn)
	}
	s.connMu.Unlock()
}

// Shutdown gracefully drains the server: stop accepting, mark not
// ready, wake parked reads, and wait for in-flight frames to finish.
// If ctx expires first, remaining connections are force-closed. The
// fleet itself is left running — callers flush/checkpoint it next.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.cancel() // unblock ctx-bounded fleet sends
	s.lnMu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.lnMu.Unlock()
	// Wake every connection parked in a blocking read so its loop
	// observes draining and exits after the frame it is processing.
	s.connMu.Lock()
	for conn := range s.conns {
		conn.SetReadDeadline(time.Now())
	}
	s.connMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.connMu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.connMu.Unlock()
		<-done
		return fmt.Errorf("server: drain cut short: %w", ctx.Err())
	}
}

// eventBufs caps the event buffers circulating per connection: staged
// in the read loop, queued at a fleet shard, or free. Nothing else
// bounds them — a shard queue slot holds a whole run of up to maxBurst
// batches, and without a WAL a batch is answered as soon as it is
// queued — so once eventBufs exist, getBuf waits for the fleet to
// recycle one rather than grow the pool. The freelist holds all of
// them, so recycled buffers are never dropped in steady state and the
// ingest loop stays at zero allocations per frame even when a shard
// lags its connections.
const eventBufs = 128

// eventBuf is one pooled decode target: a reusable event slice plus a
// recycle closure allocated once, at buffer creation, so handing the
// buffer to the fleet (fleet.Batch.Recycle) costs no per-frame
// closure allocation.
type eventBuf struct {
	events  []trace.BranchEvent
	recycle func()
}

// maxBurst bounds how many pipelined frames one read-loop pass will
// coalesce before responding. It keeps a fire-hose client from
// starving its own responses (and from pinning more than maxBurst
// event buffers in staged-but-unsent batches).
const maxBurst = 64

// runBuf is one pooled per-shard batch run: a reusable batch slice
// plus a release closure allocated once, at creation, so handing the
// run to the fleet (fleet.TrySendRun) costs no per-burst closure
// allocation. The fleet fires release from the shard goroutine after
// the whole run is applied.
type runBuf struct {
	batches []fleet.Batch
	release func()
}

// Slot resolution states for one burst frame. A frame enters the burst
// as slotBatch (outcome pending its run's enqueue), slotDone (outcome
// already known), slotMalformed (decode failure, NackMalformed),
// slotRedirect (stream owned elsewhere, NackRedirect), or slotControl
// (cluster control frame, response already encoded); enqueueRun moves
// every slotBatch to slotDone before responses are built.
const (
	slotBatch uint8 = iota
	slotDone
	slotMalformed
	slotRedirect
	slotControl
)

// frameSlot is one staged frame's pending response, kept in arrival
// order so the pass's single coalesced write answers frames in the
// order they came in.
type frameSlot struct {
	seq    uint64
	err    error  // slotDone: ingest outcome (nil = ack)
	detail string // slotMalformed: decode error text; slotRedirect: owner addr
	stream string // slotBatch/slotDone: interned stream (redirect answer on ErrNotOwned)
	shard  int32  // slotBatch: owning shard
	runIdx int32  // slotBatch: index within the staged run; slotControl: cs.ctrl index
	kind   uint8
}

// connState is one connection's reusable ingest state: the stream-name
// intern table (so each stream's name is allocated once per connection,
// not once per frame), the event-buffer freelist the fleet recycles
// into, and the burst-coalescing state (per-shard staged runs plus the
// in-order response slots). The freelists are channels because
// recycling happens on shard goroutines while the connection
// goroutine pops.
type connState struct {
	intern  map[string]string
	free    chan *eventBuf
	bufs    atomic.Int32 // event buffers circulating: eventBufs at most, unless a wait timed out
	bufWait *time.Timer  // getBuf's bounded wait for a recycle, reused
	runs    []*runBuf    // staged run per fleet shard; nil when empty
	runFree chan *runBuf
	slots   []frameSlot
	ctrl    [][]byte // encoded control-frame responses, indexed by slotControl slots

	// WAL bookkeeping (unused when no WAL is configured): the highest
	// LSN the current burst appended per shard log (0 = none), a
	// scratch copy of a staged run's batch headers (taken before
	// TrySendRun hands the run slice to the fleet, whose release may
	// reset it concurrently), and the hand-off to the responder.
	walLSN     []wal.LSN
	walScratch []fleet.Batch
	pipe       *ackPipe
}

func newConnState(shards int) *connState {
	return &connState{
		intern:  make(map[string]string),
		free:    make(chan *eventBuf, eventBufs),
		runs:    make([]*runBuf, shards),
		runFree: make(chan *runBuf, maxBurst),
		walLSN:  make([]wal.LSN, shards),
	}
}

// getRun pops a free run buffer, growing the circulating pool only
// when every run is in flight.
func (cs *connState) getRun() *runBuf {
	select {
	case rb := <-cs.runFree:
		return rb
	default:
	}
	rb := &runBuf{}
	rb.release = func() {
		rb.batches = rb.batches[:0]
		select {
		case cs.runFree <- rb:
		default: // freelist full: let the run buffer go
		}
	}
	return rb
}

// getBuf pops a free event buffer, growing the circulating pool only
// when every buffer is in flight and fewer than eventBufs exist. At the
// cap it waits for a recycle, bounded by the ingest timeout and by
// drain, and past either creates one more anyway: the frame is served
// and the freelist sheds the extra buffer when it comes back. The wait
// cannot deadlock the read loop, which itself holds at most maxBurst
// (< eventBufs) staged buffers: every other one is queued at a shard,
// which recycles it once applied.
func (s *Server) getBuf(cs *connState) *eventBuf {
	select {
	case b := <-cs.free:
		return b
	default:
	}
	if cs.bufs.Load() >= eventBufs {
		if b := s.awaitBuf(cs); b != nil {
			return b
		}
	}
	cs.bufs.Add(1)
	b := &eventBuf{}
	b.recycle = func() {
		select {
		case cs.free <- b:
		default: // freelist full after an overrun wait: let the buffer go
			cs.bufs.Add(-1)
		}
	}
	return b
}

// awaitBuf waits for a recycled event buffer, returning nil once the
// ingest timeout passes or the server drains. The timer is the
// connection's own, reused, so a wait allocates nothing.
func (s *Server) awaitBuf(cs *connState) *eventBuf {
	if cs.bufWait == nil {
		cs.bufWait = time.NewTimer(s.cfg.IngestTimeout)
	} else {
		cs.bufWait.Reset(s.cfg.IngestTimeout)
	}
	var b *eventBuf
	select {
	case b = <-cs.free:
	case <-s.baseCtx.Done():
	case <-cs.bufWait.C:
		return nil
	}
	if !cs.bufWait.Stop() {
		// Fired while another case won: drain its tick so the next
		// Reset starts clean.
		select {
		case <-cs.bufWait.C:
		default:
		}
	}
	return b
}

// internStream returns the connection-interned copy of a stream-name
// view. The map lookup with a string(bytes) key compiles without a
// conversion allocation; only a stream's first frame on the connection
// pays for the string.
func (cs *connState) internStream(name []byte) string {
	if s, ok := cs.intern[string(name)]; ok {
		return s
	}
	s := string(name)
	cs.intern[s] = s
	return s
}

// serveConn runs one connection's read-decode-ingest-respond loop.
//
// Reads go through a buffered reader so a pipelined client's frames
// are visible before they are asked for: when the buffer already holds
// more complete frames after a read, the loop coalesces them — decode
// every buffered frame (up to maxBurst), stage the batches into
// per-shard runs, enqueue each run as one fleet message, and answer
// all of the burst's frames with a single ordered write.
//
// Every pass takes the same path, a lone frame (a synchronous client)
// included: stage, then admit each shard's run. Without a WAL the loop
// answers the pass itself. With one, each admitted batch is also
// appended to its shard's log, and the pass is handed to the
// connection's responder, which commits and answers it while the loop
// goes back to reading.
func (s *Server) serveConn(conn net.Conn) {
	peer := conn.RemoteAddr()
	conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
	br := bufio.NewReaderSize(conn, 1<<16)
	var magic [len(wire.Magic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || string(magic[:]) != wire.Magic {
		s.dead.Add(1)
		s.logf("conn %v: bad magic: %v", peer, err)
		return
	}
	cs := newConnState(s.cfg.Fleet.Shards())
	stopResponder := func() {}
	if s.cfg.WAL != nil {
		cs.pipe = newAckPipe()
		answered := make(chan struct{})
		go func() {
			defer close(answered)
			s.respondLoop(conn, cs.pipe)
		}()
		// Every handed-off burst is committed and answered before the
		// connection goroutine returns, so Shutdown still returns only
		// after every admitted batch's ACK or NACK is written.
		stopResponder = func() {
			cs.pipe.close()
			<-answered
		}
		defer stopResponder()
	}
	var rbuf, wbuf []byte
	for {
		// Arm the deadline before checking draining: Shutdown sets
		// draining before it expires every read deadline, so either
		// this check sees it or Shutdown's deadline replaces ours.
		conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		if s.draining.Load() {
			return
		}
		payload, err := wire.ReadFrame(br, rbuf, s.cfg.MaxFrame)
		if err != nil {
			if cs.pipe != nil && !cs.pipe.ended.CompareAndSwap(false, true) {
				return // the responder's failed write already counted the connection
			}
			if err == io.EOF {
				return // orderly close at a frame boundary
			}
			if errors.Is(err, wire.ErrFrameTooLarge) {
				// Best-effort courtesy NACK, after every pending answer;
				// the connection cannot be resynced past an oversized
				// frame, so it closes.
				stopResponder()
				s.respond(conn, wire.AppendNackFrame(wbuf[:0], 0, wire.NackMalformed, err.Error()))
			}
			s.dead.Add(1)
			s.logf("conn %v: read: %v", peer, err)
			return
		}
		rbuf = payload[:0]
		s.frames.Add(1)
		s.stageFrame(cs, payload)
		nframes := uint64(1)
		for len(cs.slots) < maxBurst && s.frameBuffered(br) {
			payload, err = wire.ReadFrame(br, rbuf, s.cfg.MaxFrame)
			if err != nil {
				break // unreachable: frameBuffered saw a complete frame
			}
			rbuf = payload[:0]
			s.frames.Add(1)
			nframes++
			s.stageFrame(cs, payload)
		}
		if nframes > 1 {
			s.bursts.Add(1)
			s.burstFrames.Add(nframes)
		}
		s.enqueueRuns(cs)
		if cs.pipe != nil {
			cs.pipe.handOff(cs)
			continue
		}
		wbuf = s.appendResponses(wbuf[:0], cs.slots, cs.ctrl)
		cs.slots, cs.ctrl = cs.slots[:0], cs.ctrl[:0]
		if len(wbuf) > 0 && !s.respond(conn, wbuf) {
			s.dead.Add(1)
			s.logf("conn %v: write failed", peer)
			return
		}
	}
}

// frameBuffered reports whether the reader's buffer already holds one
// complete frame — length prefix and body — so it can be decoded
// without touching the network. Oversized prefixes report false and
// are left for ReadFrame to reject on the connection-fatal path.
func (s *Server) frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < wire.FramePrefix {
		return false // Peek would block on the socket for the missing bytes
	}
	hdr, err := br.Peek(wire.FramePrefix)
	if err != nil {
		return false
	}
	n := binary.LittleEndian.Uint32(hdr)
	return int64(n) <= int64(s.cfg.MaxFrame) && br.Buffered() >= wire.FramePrefix+int(n)
}

// controlFrame dispatches one cluster control frame to the coordinator
// and encodes its response. Control traffic is rare (per membership
// change, not per batch), so this path may allocate.
func (s *Server) controlFrame(fr wire.FrameView, wbuf []byte) []byte {
	co := s.cfg.Cluster
	if co == nil {
		return s.nack(wbuf, fr.Seq, wire.NackInternal, "not a cluster member")
	}
	switch fr.Tag {
	case wire.TagJoin:
		ring, err := co.HandleJoin(cluster.Node{ID: fr.Node.ID, Addr: fr.Node.Addr})
		if err != nil {
			return s.nack(wbuf, fr.Seq, clusterNackCode(err), err.Error())
		}
		s.acks.Add(1)
		return wire.AppendAssignFrame(wbuf, fr.Seq, cluster.InfoFromRing(ring))
	default: // wire.TagAssign
		next, err := cluster.RingFromInfo(fr.Ring)
		if err != nil {
			return s.nack(wbuf, fr.Seq, wire.NackMalformed, err.Error())
		}
		if _, err := co.ApplyAssign(next); err != nil {
			return s.nack(wbuf, fr.Seq, clusterNackCode(err), err.Error())
		}
		s.acks.Add(1)
		return wire.AppendAckFrame(wbuf, fr.Seq)
	}
}

// clusterNackCode maps a coordinator error onto the protocol.
func clusterNackCode(err error) uint8 {
	if errors.Is(err, cluster.ErrStaleEpoch) {
		return wire.NackStaleEpoch
	}
	return wire.NackInternal
}

// awaitRedirect answers a batch that hit the fleet's detach fence
// (fleet.ErrNotOwned). The fence goes up before the ring flips — so the
// stream's checkpoint reaches the shared store before any client is
// sent to its new owner — which means the right answer here is usually
// "wait a moment, then redirect". Bounded by the ingest timeout, like any other
// backpressure wait.
func (s *Server) awaitRedirect(stream string) (addr string, ok bool) {
	deadline := time.Now().Add(s.cfg.IngestTimeout)
	for {
		if addr, remote := s.cfg.Cluster.OwnerIfRemoteString(stream); remote {
			return addr, true
		}
		if s.draining.Load() || time.Now().After(deadline) {
			return "", false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stageFrame decodes one frame and stages its effect: batches join
// their shard's run buffer with a pending response slot, decode
// failures record an immediate NackMalformed slot, and a flush or
// control frame acts as a barrier — everything staged before it is
// enqueued first. Responses are not written here; the whole pass is
// answered later, in arrival order.
//
// The batch path allocates nothing in steady state: the frame decodes
// as views into the read buffer plus a pooled event slice, the stream
// name comes from the connection's intern table, and the run and
// response-slot buffers are recycled.
func (s *Server) stageFrame(cs *connState, payload []byte) {
	buf := s.getBuf(cs)
	fr, err := wire.DecodeFrameView(payload, buf.events)
	if cap(fr.Events) > cap(buf.events) {
		// Keep any growth DecodeFrameView did, so the buffer reaches
		// steady-state capacity after one large batch.
		buf.events = fr.Events[:cap(fr.Events)]
	}
	if err != nil {
		buf.recycle()
		s.malformed.Add(1)
		if fr.Tag == wire.TagBatch && len(fr.Stream) > 0 {
			// The framing was intact and the offender identified:
			// charge the stream, keep the connection.
			s.cfg.Fleet.Offense(cs.internStream(fr.Stream), err)
		}
		cs.slots = append(cs.slots, frameSlot{seq: fr.Seq, kind: slotMalformed, detail: err.Error()})
		return
	}
	switch fr.Tag {
	case wire.TagBatch:
		if s.cfg.Cluster != nil {
			if addr, remote := s.cfg.Cluster.OwnerIfRemote(fr.Stream); remote {
				buf.recycle()
				s.redirects.Add(1)
				cs.slots = append(cs.slots, frameSlot{seq: fr.Seq, kind: slotRedirect, detail: addr})
				return
			}
		}
		b := fleet.Batch{
			Stream:      cs.internStream(fr.Stream),
			Seq:         fr.StreamSeq,
			Cycles:      fr.Cycles,
			Events:      fr.Events,
			EndInterval: fr.EndInterval,
			Recycle:     buf.recycle,
		}
		si := s.cfg.Fleet.StreamShard(b.Stream)
		rb := cs.runs[si]
		if rb == nil {
			rb = cs.getRun()
			cs.runs[si] = rb
		}
		rb.batches = append(rb.batches, b)
		cs.slots = append(cs.slots, frameSlot{
			seq:    fr.Seq,
			kind:   slotBatch,
			stream: b.Stream,
			shard:  int32(si),
			runIdx: int32(len(rb.batches) - 1),
		})
	case wire.TagJoin, wire.TagAssign:
		buf.recycle()
		// Barrier, like a flush: staged batches must reach their shards
		// before ownership changes, so they land in the snapshot of any
		// stream about to migrate rather than behind its fence. fr's
		// views into payload are valid for this synchronous dispatch.
		s.enqueueRuns(cs)
		resp := s.controlFrame(fr, nil)
		cs.slots = append(cs.slots, frameSlot{seq: fr.Seq, kind: slotControl, runIdx: int32(len(cs.ctrl))})
		cs.ctrl = append(cs.ctrl, resp)
	case wire.TagFlush:
		buf.recycle()
		// Barrier: staged batches must reach their shard queues before
		// the fleet-wide flush, or it would not cover them.
		s.enqueueRuns(cs)
		ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.IngestTimeout)
		ferr := s.cfg.Fleet.FlushCtx(ctx)
		cancel()
		cs.slots = append(cs.slots, frameSlot{seq: fr.Seq, kind: slotDone, err: ferr})
	default:
		// Ack/Nack from a client are protocol misuse but harmless;
		// ignore (no response slot).
		buf.recycle()
	}
}

// enqueueRuns hands every staged per-shard run to the fleet, resolving
// the runs' response slots.
func (s *Server) enqueueRuns(cs *connState) {
	for si, rb := range cs.runs {
		if rb == nil {
			continue
		}
		cs.runs[si] = nil
		s.enqueueRun(cs, int32(si), rb)
	}
}

// enqueueRun sends one staged run to its shard and resolves the
// outcome of every batch in it. On admission the fleet owns the
// admitted batches and the run buffer (released from the shard
// goroutine); refused batches (quarantined, or detached) come back and
// are nacked and recycled here. A full queue falls back to per-batch
// sends bounded by the ingest timeout: a wait under the Block overload
// policy, one more try under Reject. The fallback runs only when the
// fleet is already behind, so it may allocate.
func (s *Server) enqueueRun(cs *connState, shard int32, rb *runBuf) {
	n := len(rb.batches)
	if s.cfg.WAL != nil {
		// Copy the batch headers before the handoff: once TrySendRun
		// admits the run, the fleet owns the run slice (its release may
		// reset it from a shard goroutine), but the WAL appends below
		// still need stream/seq/events.
		cs.walScratch = append(cs.walScratch[:0], rb.batches...)
	}
	rej, err := s.cfg.Fleet.TrySendRun(rb.batches, rb.release)
	// Rejected batches are ours again on every outcome: nack and
	// reclaim their buffers first.
	for _, r := range rej {
		s.markSlot(cs, shard, int32(r.Index), r.Err)
		if r.Batch.Recycle != nil {
			r.Batch.Recycle()
		}
	}
	switch {
	case err == nil && len(rej) < n:
		// The admitted batches reached the shard queue in one hop.
		var werr error
		if s.cfg.WAL != nil {
			werr = s.walAppendRun(cs, shard, rej)
		}
		if n := s.markRemaining(cs, shard, werr); werr != nil {
			s.walFails.Add(uint64(n))
		}
	case err == nil:
		// Every batch was rejected: nothing was enqueued, the fleet
		// never took the run buffer.
		rb.release()
	default:
		// Queue full: nothing was enqueued; the admitted survivors sit
		// compacted at the front of the slice. Retry each under the
		// overload policy, in arrival order (slot order matches
		// compacted order — compaction is stable).
		admitted := rb.batches[:n-len(rej)]
		k := 0
		for i := range cs.slots {
			sl := &cs.slots[i]
			if sl.kind != slotBatch || sl.shard != shard {
				continue
			}
			b := admitted[k]
			k++
			ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.IngestTimeout)
			berr := s.cfg.Fleet.SendCtx(ctx, b)
			cancel()
			if berr != nil {
				if b.Recycle != nil {
					b.Recycle() // never reached a shard; the buffer is ours
				}
			} else if s.cfg.WAL != nil {
				if berr = s.walAppend(cs, shard, &b); berr != nil {
					s.walFails.Add(1)
				}
			}
			sl.kind, sl.err = slotDone, berr
		}
		rb.release()
	}
}

// markSlot resolves the pending slot for one staged batch.
func (s *Server) markSlot(cs *connState, shard, runIdx int32, err error) {
	for i := range cs.slots {
		sl := &cs.slots[i]
		if sl.kind == slotBatch && sl.shard == shard && sl.runIdx == runIdx {
			sl.kind, sl.err = slotDone, err
			return
		}
	}
}

// markRemaining resolves every still-pending slot of one shard's run
// and returns how many it resolved.
func (s *Server) markRemaining(cs *connState, shard int32, err error) (n int) {
	for i := range cs.slots {
		sl := &cs.slots[i]
		if sl.kind == slotBatch && sl.shard == shard {
			sl.kind, sl.err = slotDone, err
			n++
		}
	}
	return n
}

// walAppend appends one admitted batch to its shard's log and records
// the LSN for the burst's group commit. A failure (torn write latched,
// disk error) bubbles up so the batch is NACKed instead of acked: it is
// applied in memory but not durable, and the client's reconnect replay
// will be deduped on its stream sequence.
func (s *Server) walAppend(cs *connState, shard int32, b *fleet.Batch) error {
	lsn, err := s.cfg.WAL[shard].Append(&wal.Record{
		Stream:      b.Stream,
		Seq:         b.Seq,
		Cycles:      b.Cycles,
		EndInterval: b.EndInterval,
		Events:      b.Events,
	})
	if err != nil {
		return fmt.Errorf("wal append: %w", err)
	}
	cs.walLSN[shard] = lsn
	return nil
}

// walAppendRun appends every admitted batch of a staged run — the
// scratch copy taken before the fleet took the run slice — to the
// shard's log. Log errors are sticky, so one failure covers the rest
// of the run.
func (s *Server) walAppendRun(cs *connState, shard int32, rej []fleet.RunReject) error {
	for i := range cs.walScratch {
		rejected := false
		for _, r := range rej {
			if r.Index == i {
				rejected = true
				break
			}
		}
		if rejected {
			continue
		}
		if err := s.walAppend(cs, shard, &cs.walScratch[i]); err != nil {
			return err
		}
	}
	return nil
}

// appendResponses encodes a burst's responses in frame-arrival order,
// ready for one coalesced write, and clears the slots and control
// responses so their references do not outlive the burst.
func (s *Server) appendResponses(wbuf []byte, slots []frameSlot, ctrl [][]byte) []byte {
	for i := range slots {
		sl := &slots[i]
		switch sl.kind {
		case slotDone:
			wbuf = s.ingestResult(wbuf, sl.seq, sl.err, sl.stream)
		case slotMalformed:
			wbuf = s.nack(wbuf, sl.seq, wire.NackMalformed, sl.detail)
		case slotRedirect:
			wbuf = s.nack(wbuf, sl.seq, wire.NackRedirect, sl.detail)
		case slotControl:
			wbuf = append(wbuf, ctrl[sl.runIdx]...)
		}
		*sl = frameSlot{}
	}
	clear(ctrl)
	return wbuf
}

// ingestResult maps a fleet error onto the protocol response. stream
// is the batch's stream for errors whose answer depends on it (empty
// for flushes).
func (s *Server) ingestResult(wbuf []byte, seq uint64, err error, stream string) []byte {
	switch {
	case err == nil:
		s.acks.Add(1)
		return wire.AppendAckFrame(wbuf, seq)
	case errors.Is(err, fleet.ErrOverloaded):
		return s.nack(wbuf, seq, wire.NackOverload, "ingest queue full")
	case errors.Is(err, fleet.ErrQuarantined):
		return s.nack(wbuf, seq, wire.NackQuarantined, err.Error())
	case errors.Is(err, fleet.ErrNotOwned):
		// The stream's detach fence went up after this batch passed the
		// entry ownership check: ownership is moving right now. Hold on
		// until the ring flips, then send the client to the new owner.
		if s.cfg.Cluster != nil && stream != "" {
			if addr, ok := s.awaitRedirect(stream); ok {
				s.redirects.Add(1)
				return s.nack(wbuf, seq, wire.NackRedirect, addr)
			}
		}
		return s.nack(wbuf, seq, wire.NackInternal, err.Error())
	case errors.Is(err, fleet.ErrDeadline), errors.Is(err, fleet.ErrCanceled):
		if s.draining.Load() {
			return s.nack(wbuf, seq, wire.NackShutdown, "server draining")
		}
		return s.nack(wbuf, seq, wire.NackDeadline, "ingest wait timed out")
	}
	return s.nack(wbuf, seq, wire.NackInternal, err.Error())
}

func (s *Server) nack(wbuf []byte, seq uint64, code uint8, detail string) []byte {
	s.nacks.Add(1)
	return wire.AppendNackFrame(wbuf, seq, code, detail)
}

// respond writes a staged response under the write deadline.
func (s *Server) respond(conn net.Conn, frame []byte) bool {
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	_, err := conn.Write(frame)
	return err == nil
}
