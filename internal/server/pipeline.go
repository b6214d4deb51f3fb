package server

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"phasekit/internal/wal"
)

// maxPendingFrames bounds how many frames a WAL-mode connection may
// have handed to its responder and not yet seen answered. Past it the
// read loop stops reading, and TCP pushes the pressure back to the
// client. The bound counts frames, not bursts: the pipeline's depth in
// frames is what lets one fsync cover many of them, whether they
// arrived as a few large bursts or many lone frames.
const maxPendingFrames = eventBufs

// pendingBurst is one handed-off burst awaiting its group commit: the
// response slots in arrival order, the control responses they index,
// and the highest LSN the burst appended to each shard log (0 for a
// shard it did not touch). Records circulate through the ackPipe's
// free list, so a hand-off allocates nothing in steady state.
type pendingBurst struct {
	slots []frameSlot
	ctrl  [][]byte
	lsn   []wal.LSN
}

// ackPipe carries bursts from a WAL-mode connection's read loop to its
// responder, in arrival order.
type ackPipe struct {
	mu     sync.Mutex
	cond   *sync.Cond      // broadcast on hand-off, release and close
	queue  []*pendingBurst // handed off, not yet taken by the responder
	free   []*pendingBurst
	frames int  // slots handed off and not yet answered
	closed bool // the read loop is done; the responder drains and exits

	// broken is set once a response write fails: the responder stops
	// committing and writing.
	broken atomic.Bool
	// ended is claimed by whichever side first sees the connection end:
	// the read loop on a read error or EOF, the responder on a failed
	// write. Only the claimant counts a dead connection, so one is
	// counted once, and a client that closes after sending is not
	// counted when its pending ACKs cannot be written.
	ended atomic.Bool
}

func newAckPipe() *ackPipe {
	p := &ackPipe{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// handOff moves the connection's admitted and appended burst — its
// response slots, control responses and per-shard LSNs — to the
// responder, leaving cs ready to stage the next burst. It blocks while
// maxPendingFrames frames are already unanswered; a burst larger than
// the bound still goes through once the pipe is empty.
func (p *ackPipe) handOff(cs *connState) {
	n := len(cs.slots)
	if n == 0 {
		return // nothing to answer, and no batch means nothing appended
	}
	p.mu.Lock()
	for p.frames > 0 && p.frames+n > maxPendingFrames {
		p.cond.Wait()
	}
	var pb *pendingBurst
	if k := len(p.free); k > 0 {
		pb = p.free[k-1]
		p.free = p.free[:k-1]
	} else {
		pb = &pendingBurst{lsn: make([]wal.LSN, len(cs.walLSN))}
	}
	pb.slots, cs.slots = cs.slots, pb.slots
	pb.ctrl, cs.ctrl = cs.ctrl, pb.ctrl
	pb.lsn, cs.walLSN = cs.walLSN, pb.lsn
	p.queue = append(p.queue, pb)
	p.frames += n
	p.cond.Broadcast()
	p.mu.Unlock()
}

// take waits for handed-off bursts and returns every one that is
// ready, in arrival order, reusing buf's storage. It returns an empty
// slice once the pipe is closed and drained.
func (p *ackPipe) take(buf []*pendingBurst) []*pendingBurst {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.queue) == 0 && !p.closed {
		p.cond.Wait()
	}
	taken := p.queue
	p.queue = buf[:0]
	return taken
}

// release returns answered bursts to the free list and wakes a read
// loop blocked on the frame bound.
func (p *ackPipe) release(taken []*pendingBurst) {
	p.mu.Lock()
	for _, pb := range taken {
		p.frames -= len(pb.slots)
		pb.slots, pb.ctrl = pb.slots[:0], pb.ctrl[:0]
		clear(pb.lsn)
		p.free = append(p.free, pb)
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// close tells the responder that no more bursts are coming. Idempotent.
func (p *ackPipe) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// respondLoop is a WAL-mode connection's responder. Each pass takes
// every burst handed off so far, group-commits the shard logs they
// appended to, and writes their responses in arrival order with one
// write. While it waits on the fsync, the read loop keeps admitting
// and appending, so the next pass's commit covers everything that
// arrived meanwhile. It returns once the pipe is closed and drained.
func (s *Server) respondLoop(conn net.Conn, p *ackPipe) {
	w := newCommitWindow(len(s.cfg.WAL))
	var taken []*pendingBurst
	var wbuf []byte
	for {
		taken = p.take(taken)
		if len(taken) == 0 {
			return
		}
		if !p.broken.Load() {
			wbuf = s.answer(wbuf[:0], taken, w)
			if len(wbuf) > 0 && !s.respond(conn, wbuf) {
				p.broken.Store(true)
				if p.ended.CompareAndSwap(false, true) {
					s.dead.Add(1)
					s.logf("conn %v: write failed", conn.RemoteAddr())
				}
				conn.Close() // wake the read loop
			}
		}
		p.release(taken)
	}
}

// commitWindow is a responder's reusable per-pass scratch: per shard,
// the LSN to commit through and the commit's outcome.
type commitWindow struct {
	lsn  []wal.LSN
	errs []error
	wg   sync.WaitGroup
}

func newCommitWindow(shards int) *commitWindow {
	return &commitWindow{lsn: make([]wal.LSN, shards), errs: make([]error, shards)}
}

// answer commits the taken bursts and encodes their responses in
// arrival order.
func (s *Server) answer(wbuf []byte, taken []*pendingBurst, w *commitWindow) []byte {
	s.commit(taken, w)
	for _, pb := range taken {
		wbuf = s.appendResponses(wbuf, pb.slots, pb.ctrl)
	}
	return wbuf
}

// commit group-commits every shard log the taken bursts appended
// to, through the highest LSN among them, before any of their ACKs is
// written. Shards commit concurrently — a pass pays one fsync latency,
// not one per dirty shard — and each log single-flights the fsync
// itself, so other connections' responders piggyback on the same
// window. A commit failure flips the shard's still-acked batch slots to
// NACKs: those batches are applied in memory but not durable, so the
// client must not count them as acked. Logs latch their errors, so
// every later batch of that shard is NACKed too.
func (s *Server) commit(taken []*pendingBurst, w *commitWindow) {
	clear(w.lsn)
	clear(w.errs)
	for _, pb := range taken {
		for si, l := range pb.lsn {
			w.lsn[si] = max(w.lsn[si], l)
		}
	}
	inline := -1
	for si, l := range w.lsn {
		switch {
		case l == 0:
		case inline < 0:
			inline = si // committed on this goroutine, after the others start
		default:
			w.wg.Add(1)
			go func() {
				defer w.wg.Done()
				w.errs[si] = s.cfg.WAL[si].Commit(l)
			}()
		}
	}
	if inline >= 0 {
		w.errs[inline] = s.cfg.WAL[inline].Commit(w.lsn[inline])
	}
	w.wg.Wait()
	for si, err := range w.errs {
		if err == nil {
			continue
		}
		err = fmt.Errorf("wal commit: %w", err)
		for _, pb := range taken {
			for i := range pb.slots {
				sl := &pb.slots[i]
				if sl.kind == slotDone && sl.err == nil && sl.stream != "" && int(sl.shard) == si {
					sl.err = err
					s.walFails.Add(1)
				}
			}
		}
	}
}
