package server

// Network fault-injection tests: the server against slow-loris
// writers, torn frames, mid-frame disconnects, oversized frames,
// malformed payloads (offense → quarantine), overload backpressure,
// and graceful drain. Faults come from internal/faults.NetConn so the
// schedules are deterministic.

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"phasekit/internal/core"
	"phasekit/internal/faults"
	"phasekit/internal/fleet"
	"phasekit/internal/trace"
	"phasekit/internal/wire"
)

func testTrackerConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.IntervalInstrs = 10_000
	cfg.Classifier.Adaptive = false
	return cfg
}

// intervalEvents returns events spanning exactly one interval (100
// events x 100 instructions), so a batch sent with EndInterval=true
// yields exactly one IntervalResult.
func intervalEvents() []trace.BranchEvent {
	events := make([]trace.BranchEvent, 100)
	for i := range events {
		events[i] = trace.BranchEvent{PC: 0x400000 + uint64(i%8)*64, Instrs: 100}
	}
	return events
}

// startServer builds a fleet + server pair listening on loopback and
// returns them with the bound address. Cleanup shuts both down.
func startServer(t *testing.T, fcfg fleet.Config, mut func(*Config)) (*Server, *fleet.Fleet, string) {
	t.Helper()
	if fcfg.Shards == 0 {
		fcfg.Shards = 2
	}
	if fcfg.Tracker.IntervalInstrs == 0 {
		fcfg.Tracker = testTrackerConfig()
	}
	f := fleet.New(fcfg)
	scfg := Config{Fleet: f, Logf: t.Logf}
	if mut != nil {
		mut(&scfg)
	}
	srv, err := New(scfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe("127.0.0.1:0") }()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Addr() == nil {
		select {
		case err := <-serveErr:
			t.Fatalf("ListenAndServe: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("server never bound")
		}
		time.Sleep(time.Millisecond)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-serveErr; err != nil {
			t.Errorf("Serve returned %v", err)
		}
		f.Close()
	})
	return srv, f, srv.Addr().String()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestIngestAndReport(t *testing.T) {
	_, f, addr := startServer(t, fleet.Config{}, nil)
	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	events := intervalEvents()
	for i := 0; i < 5; i++ {
		if err := c.SendBatch("tenant-1", 1000, events, true); err != nil {
			t.Fatalf("SendBatch %d: %v", i, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	r, ok := f.Report("tenant-1")
	if !ok || r.Intervals != 5 {
		t.Fatalf("report: ok=%v intervals=%d, want 5", ok, r.Intervals)
	}
}

func TestBadMagicDropsConnection(t *testing.T) {
	srv, _, addr := startServer(t, fleet.Config{}, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.Write([]byte("GET /\n")) // exactly magic-sized, so the close is a clean FIN
	var b [1]byte
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(b[:]); err != io.EOF {
		t.Fatalf("read after bad magic: %v, want EOF", err)
	}
	waitFor(t, "dead conn count", func() bool { return srv.Metrics().DeadConns == 1 })
}

func TestSlowLorisIsCutOff(t *testing.T) {
	srv, _, addr := startServer(t, fleet.Config{}, func(c *Config) {
		c.ReadTimeout = 100 * time.Millisecond
	})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer raw.Close()
	// The magic goes out whole on the raw conn: trickled at 20ms a byte
	// it could itself outlast the 100ms read window, and the server
	// would cut the connection over a bad magic instead of a slow frame.
	if _, err := raw.Write([]byte(wire.Magic)); err != nil {
		t.Fatalf("magic: %v", err)
	}
	// Trickle the frame one byte every 20ms: bytes keep flowing, but no
	// complete frame ever lands inside a 100ms read window.
	conn := faults.WrapNetConn(raw, faults.NetSchedule{SlowChunk: 1, SlowDelay: 20 * time.Millisecond})
	frame := wire.AppendBatchFrame(nil, wire.Batch{Seq: 1, StreamSeq: 1, Stream: "s", Events: intervalEvents()})
	conn.Write(frame) // the server should cut us off mid-write or on read
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	var b [1]byte
	if _, err := raw.Read(b[:]); err == nil {
		t.Fatal("server answered a slow-loris frame")
	}
	waitFor(t, "dead conn count", func() bool { return srv.Metrics().DeadConns == 1 })
}

func TestTornFrameDropsConnection(t *testing.T) {
	srv, f, addr := startServer(t, fleet.Config{}, nil)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte(wire.Magic)); err != nil {
		t.Fatalf("magic: %v", err)
	}
	// Tear the first frame write: the length prefix promises more bytes
	// than ever arrive, then the connection closes mid-frame.
	conn := faults.WrapNetConn(raw, faults.NetSchedule{TearWriteNth: 1})
	frame := wire.AppendBatchFrame(nil, wire.Batch{Seq: 1, StreamSeq: 1, Stream: "torn", Events: intervalEvents()})
	conn.Write(frame)
	if !conn.Cut() {
		t.Fatal("fault injector did not cut the connection")
	}
	waitFor(t, "dead conn count", func() bool { return srv.Metrics().DeadConns == 1 })
	// The half-received batch must not have reached the fleet.
	if _, ok := f.Report("torn"); ok {
		t.Fatal("torn frame was ingested")
	}
}

func TestMidFrameDisconnectDropsConnection(t *testing.T) {
	srv, _, addr := startServer(t, fleet.Config{}, nil)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer raw.Close()
	frame := wire.AppendBatchFrame([]byte(wire.Magic), wire.Batch{Seq: 1, StreamSeq: 1, Stream: "s", Events: intervalEvents()})
	// Cut after the magic plus half the frame.
	conn := faults.WrapNetConn(raw, faults.NetSchedule{CutAfterBytes: len(wire.Magic) + (len(frame)-len(wire.Magic))/2})
	if _, err := conn.Write(frame); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("write past the cut: %v, want net.ErrClosed", err)
	}
	waitFor(t, "dead conn count", func() bool { return srv.Metrics().DeadConns == 1 })
}

func TestOversizedFrameNackedAndDropped(t *testing.T) {
	srv, _, addr := startServer(t, fleet.Config{}, func(c *Config) {
		c.MaxFrame = 256
	})
	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	// Well over 256 payload bytes. The server sends a courtesy NACK and
	// closes; depending on timing the close's RST can outrun the NACK,
	// so either a malformed NACK or a connection error is acceptable —
	// never an ACK.
	err = c.SendBatch("big", 0, intervalEvents(), true)
	if err == nil {
		t.Fatal("oversized frame was accepted")
	}
	var nerr *wire.NackError
	if errors.As(err, &nerr) && nerr.Code != wire.NackMalformed {
		t.Fatalf("oversized frame: %v, want malformed NACK", err)
	}
	// The connection is gone afterwards: the stream can't be resynced.
	if err := c.SendBatch("big", 0, nil, false); err == nil {
		t.Fatal("send on a dropped connection succeeded")
	}
	waitFor(t, "dead conn count", func() bool { return srv.Metrics().DeadConns == 1 })
}

// corruptBatchFrame returns an intact frame whose batch payload decodes
// the stream name and then fails (event count promises more bytes than
// the payload holds).
func corruptBatchFrame(stream string) []byte {
	frame := wire.AppendBatchFrame(nil, wire.Batch{Seq: 1, StreamSeq: 1, Stream: stream,
		Events: []trace.BranchEvent{{PC: 1, Instrs: 1}}})
	// Event count field: len prefix(4) + section(2) + seq(8) +
	// streamSeq(8) + string(4+len) + cycles(8) + bool(1).
	off := 4 + 2 + 8 + 8 + 4 + len(stream) + 8 + 1
	frame[off] = 0xff
	frame[off+1] = 0xff
	frame[off+2] = 0xff
	return frame
}

func TestMalformedPayloadQuarantinesStream(t *testing.T) {
	srv, f, addr := startServer(t, fleet.Config{
		Quarantine: fleet.QuarantinePolicy{Strikes: 2, Probation: time.Hour},
	}, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(wire.Magic)); err != nil {
		t.Fatalf("magic: %v", err)
	}
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	readResp := func() wire.Frame {
		t.Helper()
		payload, err := wire.ReadFrame(conn, nil, 0)
		if err != nil {
			t.Fatalf("read response: %v", err)
		}
		fr, err := wire.DecodeFrame(payload)
		if err != nil {
			t.Fatalf("decode response: %v", err)
		}
		return fr
	}

	// Two malformed-but-framed batches — a corrupt payload and an
	// unstamped one (stream sequence 0) — NACKed, connection survives,
	// offenses charged to the stream.
	unstamped := wire.AppendBatchFrame(nil, wire.Batch{Seq: 2, Stream: "evil",
		Events: []trace.BranchEvent{{PC: 1, Instrs: 1}}})
	for i, frame := range [][]byte{corruptBatchFrame("evil"), unstamped} {
		if _, err := conn.Write(frame); err != nil {
			t.Fatalf("write malformed frame %d: %v", i, err)
		}
		if fr := readResp(); fr.Tag != wire.TagNack || fr.Code != wire.NackMalformed {
			t.Fatalf("malformed frame %d: %+v, want malformed NACK", i, fr)
		}
	}
	// The stream is now quarantined: even a perfectly valid batch is
	// refused, on the same (surviving) connection.
	if _, err := conn.Write(wire.AppendBatchFrame(nil, wire.Batch{Seq: 3, StreamSeq: 1, Stream: "evil",
		Events: []trace.BranchEvent{{PC: 1, Instrs: 1}}})); err != nil {
		t.Fatalf("write valid frame: %v", err)
	}
	if fr := readResp(); fr.Tag != wire.TagNack || fr.Code != wire.NackQuarantined {
		t.Fatalf("post-quarantine batch: %+v, want quarantined NACK", fr)
	}
	if qerr := f.QuarantineErr("evil"); !errors.Is(qerr, fleet.ErrQuarantined) {
		t.Fatalf("QuarantineErr: %v", qerr)
	}
	// A sibling stream on the same connection is untouched.
	if _, err := conn.Write(wire.AppendBatchFrame(nil, wire.Batch{Seq: 4, StreamSeq: 1, Stream: "good",
		Events: []trace.BranchEvent{{PC: 1, Instrs: 1}}})); err != nil {
		t.Fatalf("write sibling frame: %v", err)
	}
	if fr := readResp(); fr.Tag != wire.TagAck {
		t.Fatalf("sibling batch: %+v, want ACK", fr)
	}
	if m := srv.Metrics(); m.Malformed != 2 {
		t.Fatalf("malformed count: %+v", m)
	}
}

func TestOverloadRejectBecomesNack(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 64)
	_, _, addr := startServer(t, fleet.Config{
		Shards:     1,
		QueueDepth: 1,
		Overload:   fleet.OverloadReject,
		Tracker:    testTrackerConfig(),
		OnInterval: func(string, core.IntervalResult) {
			entered <- struct{}{}
			<-gate
		},
	}, nil)
	defer close(gate)
	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	events := intervalEvents()
	if err := c.SendBatch("s", 0, events, true); err != nil {
		t.Fatalf("batch 1: %v", err) // worker parks in OnInterval
	}
	<-entered
	if err := c.SendBatch("s", 0, events, true); err != nil {
		t.Fatalf("batch 2: %v", err) // fills the queue slot
	}
	err = c.SendBatch("s", 0, events, true)
	var nerr *wire.NackError
	if !errors.As(err, &nerr) || nerr.Code != wire.NackOverload {
		t.Fatalf("batch 3: %v, want overload NACK", err)
	}
}

func TestBlockedIngestTimesOutAsDeadlineNack(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 64)
	_, _, addr := startServer(t, fleet.Config{
		Shards:     1,
		QueueDepth: 1,
		Tracker:    testTrackerConfig(),
		OnInterval: func(string, core.IntervalResult) {
			entered <- struct{}{}
			<-gate
		},
	}, func(c *Config) {
		c.IngestTimeout = 50 * time.Millisecond
	})
	defer close(gate)
	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	events := intervalEvents()
	c.SendBatch("s", 0, events, true)
	<-entered
	c.SendBatch("s", 0, events, true)
	err = c.SendBatch("s", 0, events, true)
	var nerr *wire.NackError
	if !errors.As(err, &nerr) || nerr.Code != wire.NackDeadline {
		t.Fatalf("blocked ingest: %v, want deadline NACK", err)
	}
}

func TestShutdownDrainsAndRefusesNewConns(t *testing.T) {
	srv, f, addr := startServer(t, fleet.Config{}, nil)
	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if err := c.SendBatch("s", 0, intervalEvents(), true); err != nil {
		t.Fatalf("SendBatch: %v", err)
	}
	if !srv.Ready() {
		t.Fatal("server not ready before shutdown")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	var shutErr error
	go func() {
		defer wg.Done()
		shutErr = srv.Shutdown(ctx)
	}()
	wg.Wait()
	if shutErr != nil {
		t.Fatalf("Shutdown: %v", shutErr)
	}
	if srv.Ready() {
		t.Fatal("server still ready after drain")
	}
	// The ingested batch survived the drain.
	if r, ok := f.Report("s"); !ok || r.Intervals != 1 {
		t.Fatalf("report after drain: ok=%v %+v", ok, r)
	}
	// The parked connection was woken and closed.
	waitFor(t, "open conns to reach zero", func() bool { return srv.Metrics().OpenConns == 0 })
	// New connections are refused.
	if _, err := wire.Dial(addr, 500*time.Millisecond); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}
