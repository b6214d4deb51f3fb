package server

// ACK-pipeline pins for WAL mode: the read loop keeps admitting and
// appending while the responder waits on the group commit, ACKs leave
// only after their commit and in arrival order, a failed commit NACKs
// its window and everything after it, and Shutdown waits for every
// response.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"phasekit/internal/faults"
	"phasekit/internal/fleet"
	"phasekit/internal/trace"
	"phasekit/internal/wal"
	"phasekit/internal/wire"
)

// syncGate is a wal.Hooks.BeforeSync that holds every fsync until the
// gate opens, reporting each fsync that reaches it on entered.
type syncGate struct {
	entered chan struct{}
	gate    chan struct{}
	once    sync.Once
	next    func(string) error // chained hook, if any
}

func newSyncGate(next func(string) error) *syncGate {
	return &syncGate{entered: make(chan struct{}, 64), gate: make(chan struct{}), next: next}
}

func (g *syncGate) BeforeSync(path string) error {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.gate
	if g.next != nil {
		return g.next(path)
	}
	return nil
}

func (g *syncGate) open() { g.once.Do(func() { close(g.gate) }) }

// startWALServer starts a server whose fleet has one group-commit WAL
// per shard under walDir, all sharing hook. The logs close after the
// server drains; the gate (if any) opens before it drains, so cleanup
// never hangs.
func startWALServer(t *testing.T, shards int, hook func(string) error, g *syncGate) (srv *Server, logs []*wal.Log, walDir, addr string) {
	t.Helper()
	walDir = t.TempDir()
	logs = openShardWALs(t, walDir, shards, wal.Hooks{BeforeSync: hook})
	t.Cleanup(func() {
		for _, l := range logs {
			l.Close()
		}
	})
	srv, _, addr = startServer(t, fleet.Config{Shards: shards}, func(c *Config) { c.WAL = logs })
	if g != nil {
		t.Cleanup(g.open)
	}
	return srv, logs, walDir, addr
}

// rawConn dials the server and sends the protocol magic.
func rawConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write([]byte(wire.Magic)); err != nil {
		t.Fatalf("magic: %v", err)
	}
	return conn
}

// batchFrames encodes batches from..to of stream, each wire seq
// doubling as the stream seq, ready for one write.
func batchFrames(stream string, from, to uint64) []byte {
	events := []trace.BranchEvent{{PC: 0x400000, Instrs: 100}, {PC: 0x400040, Instrs: 100}}
	var buf []byte
	for seq := from; seq <= to; seq++ {
		buf = wire.AppendBatchFrame(buf, wire.Batch{Seq: seq, StreamSeq: seq, Stream: stream, Cycles: 300, Events: events})
	}
	return buf
}

// readResponses reads n response frames within the deadline.
func readResponses(t *testing.T, conn net.Conn, n int) []wire.Frame {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var rbuf []byte
	out := make([]wire.Frame, 0, n)
	for len(out) < n {
		payload, err := wire.ReadFrame(conn, rbuf, 0)
		if err != nil {
			t.Fatalf("response %d of %d: %v", len(out)+1, n, err)
		}
		rbuf = payload[:0]
		fr, err := wire.DecodeFrame(payload)
		if err != nil {
			t.Fatalf("decode response: %v", err)
		}
		out = append(out, fr)
	}
	return out
}

// assertNothingReadable fails if a response arrives within a short wait.
func assertNothingReadable(t *testing.T, conn net.Conn, what string) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	var b [1]byte
	n, err := conn.Read(b[:])
	var ne net.Error
	if n > 0 || !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("%s: read %d bytes (err %v), want nothing before the commit", what, n, err)
	}
}

// walStats sums the logs' append and fsync counters.
func walStats(logs []*wal.Log) (appends, syncs uint64) {
	for _, l := range logs {
		a, s := l.Stats()
		appends += a
		syncs += s
	}
	return appends, syncs
}

// TestPipelineAdmitsWhileCommitInFlight: with the first burst's fsync
// held, no ACK is readable, yet later bursts are admitted and appended;
// opening the gate delivers every ACK in seq order.
func TestPipelineAdmitsWhileCommitInFlight(t *testing.T) {
	g := newSyncGate(nil)
	srv, logs, _, addr := startWALServer(t, 1, g.BeforeSync, g)
	conn := rawConn(t, addr)

	if _, err := conn.Write(batchFrames("s", 1, 1)); err != nil {
		t.Fatal(err)
	}
	<-g.entered // the first burst's commit is in flight
	if _, err := conn.Write(batchFrames("s", 2, 5)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "later bursts appended during the fsync", func() bool {
		a, _ := walStats(logs)
		return a == 5
	})
	assertNothingReadable(t, conn, "fsync held")

	g.open()
	for i, fr := range readResponses(t, conn, 5) {
		if fr.Tag != wire.TagAck || fr.Seq != uint64(i+1) {
			t.Fatalf("response %d: tag %#02x seq %d, want ACK seq %d", i, fr.Tag, fr.Seq, i+1)
		}
	}
	// The second fsync covered all four later frames at once.
	if _, syncs := walStats(logs); syncs != 2 {
		t.Errorf("syncs %d, want 2 (one per commit window)", syncs)
	}
	if m := srv.Metrics(); m.Acks != 5 || m.Nacks != 0 {
		t.Errorf("acks %d nacks %d, want 5 and 0", m.Acks, m.Nacks)
	}
}

// TestPipelineCommitFailureNacksWindowAndAfter: the second fsync fails.
// The first window is ACKed; every batch in the failed window and every
// batch sent after it is NACKed, none ACKed.
func TestPipelineCommitFailureNacksWindowAndAfter(t *testing.T) {
	inj := &faults.WAL{ShortSyncNth: []int{2}}
	g := newSyncGate(inj.BeforeSync)
	srv, logs, _, addr := startWALServer(t, 1, g.BeforeSync, g)
	conn := rawConn(t, addr)

	if _, err := conn.Write(batchFrames("s", 1, 1)); err != nil {
		t.Fatal(err)
	}
	<-g.entered
	if _, err := conn.Write(batchFrames("s", 2, 4)); err != nil { // the failing window
		t.Fatal(err)
	}
	waitFor(t, "failing window appended", func() bool {
		a, _ := walStats(logs)
		return a == 4
	})
	g.open()
	resp := readResponses(t, conn, 4)
	if _, err := conn.Write(batchFrames("s", 5, 6)); err != nil { // after the failure
		t.Fatal(err)
	}
	resp = append(resp, readResponses(t, conn, 2)...)

	if _, shorted := inj.Injected(); shorted != 1 {
		t.Fatalf("injected %d short fsyncs, want 1", shorted)
	}
	for i, fr := range resp {
		seq := uint64(i + 1)
		if fr.Seq != seq {
			t.Fatalf("response %d answers seq %d, want %d", i, fr.Seq, seq)
		}
		if seq == 1 {
			if fr.Tag != wire.TagAck {
				t.Fatalf("seq 1 (durable window): tag %#02x, want ACK", fr.Tag)
			}
			continue
		}
		if fr.Tag != wire.TagNack || fr.Code != wire.NackInternal {
			t.Fatalf("seq %d: tag %#02x code %d, want NACK %s", seq, fr.Tag, fr.Code, wire.NackCodeString(wire.NackInternal))
		}
	}
	if m := srv.Metrics(); m.Acks != 1 || m.Nacks != 5 || m.WALFailures != 5 {
		t.Errorf("acks %d nacks %d walFailures %d, want 1, 5, 5", m.Acks, m.Nacks, m.WALFailures)
	}
}

// TestPipelineClientGoneCountsDeadConnOnce: a client that goes away
// with ACKs still pending behind a held fsync is counted once when it
// resets the connection — by the read loop, not again by the
// responder's failed write — and not at all when it closes in order.
func TestPipelineClientGoneCountsDeadConnOnce(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reset bool
		dead  uint64
	}{
		{"reset", true, 1},
		{"close", false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newSyncGate(nil)
			srv, logs, _, addr := startWALServer(t, 1, g.BeforeSync, g)
			conn := rawConn(t, addr)
			if _, err := conn.Write(batchFrames("s", 1, 4)); err != nil {
				t.Fatal(err)
			}
			<-g.entered
			waitFor(t, "every frame appended", func() bool {
				a, _ := walStats(logs)
				return a == 4
			})
			if tc.reset {
				conn.(*net.TCPConn).SetLinger(0) // close with RST
			}
			conn.Close()
			if tc.reset {
				waitFor(t, "the read loop to see the reset", func() bool { return srv.Metrics().DeadConns == 1 })
			} else {
				time.Sleep(20 * time.Millisecond) // let the read loop see EOF
			}
			g.open()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			if got := srv.Metrics().DeadConns; got != tc.dead {
				t.Errorf("DeadConns %d, want %d", got, tc.dead)
			}
		})
	}
}

// TestPipelineShutdownWaitsForResponses: Shutdown with a commit in
// flight returns only after every response is written, and every ACKed
// batch comes back from wal.Replay.
func TestPipelineShutdownWaitsForResponses(t *testing.T) {
	const shards, perStream = 2, 6
	g := newSyncGate(nil)
	srv, logs, walDir, addr := startWALServer(t, shards, g.BeforeSync, g)
	conn := rawConn(t, addr)

	streams := []string{"a", "b", "c", "d"}
	var frames []byte
	type key struct {
		stream string
		seq    uint64
	}
	sent := map[uint64]key{}
	seq := uint64(0)
	for i := 1; i <= perStream; i++ {
		for _, st := range streams {
			seq++
			frames = wire.AppendBatchFrame(frames, wire.Batch{Seq: seq, StreamSeq: uint64(i), Stream: st, Cycles: 300,
				Events: []trace.BranchEvent{{PC: 0x400000 + uint64(i)*64, Instrs: 100}}})
			sent[seq] = key{st, uint64(i)}
		}
	}
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	<-g.entered
	waitFor(t, "every frame appended", func() bool {
		a, _ := walStats(logs)
		return a == seq
	})

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned (%v) while a commit was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	g.open()
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	acked := map[key]bool{}
	for i, fr := range readResponses(t, conn, int(seq)) {
		if fr.Tag != wire.TagAck || fr.Seq != uint64(i+1) {
			t.Fatalf("response %d: tag %#02x seq %d, want ACK seq %d", i, fr.Tag, fr.Seq, i+1)
		}
		acked[sent[fr.Seq]] = true
	}
	for _, l := range logs {
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	replayed := map[key]bool{}
	if _, err := wal.ReplayDirs(walDir, func(rec wal.Record) error {
		replayed[key{rec.Stream, rec.Seq}] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for k := range acked {
		if !replayed[k] {
			t.Errorf("acked batch %s#%d missing from the WAL", k.stream, k.seq)
		}
	}
}

// TestPipelineSyncClientGetsACKs: a synchronous one-frame-at-a-time
// client in WAL mode gets every ACK, and its lone frames are not
// counted as bursts.
func TestPipelineSyncClientGetsACKs(t *testing.T) {
	srv, logs, _, addr := startWALServer(t, 2, nil, nil)
	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	const n = 20
	for i := 0; i < n; i++ {
		if err := c.SendBatch(fmt.Sprintf("s%d", i%3), 1000, intervalEvents(), true); err != nil {
			t.Fatalf("SendBatch %d: %v", i, err)
		}
	}
	m := srv.Metrics()
	if m.Acks != n || m.Nacks != 0 {
		t.Fatalf("acks %d nacks %d, want %d and 0", m.Acks, m.Nacks, n)
	}
	if m.Bursts != 0 || m.BurstFrames != 0 {
		t.Fatalf("lone frames counted as bursts: bursts %d frames %d", m.Bursts, m.BurstFrames)
	}
	if appends, syncs := walStats(logs); appends != n || syncs == 0 {
		t.Fatalf("appends %d syncs %d, want %d appends and at least one sync", appends, syncs, n)
	}
}

// TestPipelineBurstMetricsCountMultiFrame: Bursts and BurstFrames count
// only read passes of two or more frames, as without a WAL, so
// frames-per-burst compares across durability modes.
func TestPipelineBurstMetricsCountMultiFrame(t *testing.T) {
	srv, _, _, addr := startWALServer(t, 1, nil, nil)
	conn := rawConn(t, addr)
	for seq := uint64(1); seq <= 3; seq++ { // lone frames
		if _, err := conn.Write(batchFrames("s", seq, seq)); err != nil {
			t.Fatal(err)
		}
		readResponses(t, conn, 1)
	}
	if m := srv.Metrics(); m.Bursts != 0 || m.BurstFrames != 0 || m.Frames != 3 {
		t.Fatalf("after lone frames: bursts %d burstFrames %d frames %d, want 0, 0, 3", m.Bursts, m.BurstFrames, m.Frames)
	}
	if _, err := conn.Write(batchFrames("s", 4, 7)); err != nil { // one write, one burst
		t.Fatal(err)
	}
	for i, fr := range readResponses(t, conn, 4) {
		if fr.Tag != wire.TagAck || fr.Seq != uint64(i+4) {
			t.Fatalf("burst response %d: tag %#02x seq %d", i, fr.Tag, fr.Seq)
		}
	}
	m := srv.Metrics()
	if m.Bursts == 0 || m.BurstFrames < 2*m.Bursts || m.BurstFrames > 4 || m.Frames != 7 {
		t.Fatalf("after a 4-frame write: bursts %d burstFrames %d frames %d", m.Bursts, m.BurstFrames, m.Frames)
	}
}
