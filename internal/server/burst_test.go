package server

// Burst-coalescing pins: a pipelined client's frames — staged into
// per-shard runs and answered with one coalesced write — must produce
// exactly the phase sequences and per-frame verdicts of the
// synchronous per-frame path, in the same response order.

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"phasekit/internal/fleet"
	"phasekit/internal/wire"
)

// TestPipelinedBurstGoldenEquivalence sends the e2e batch corpus
// through a Window-64 pipelined client and requires the phase log to
// match an in-process golden run line for line — and that the server
// actually took the burst path while producing it.
func TestPipelinedBurstGoldenEquivalence(t *testing.T) {
	batches := e2eBatches(4, 100)
	tcfg := testTrackerConfig()

	goldenRec := NewPhaseRecorder()
	golden := fleet.New(fleet.Config{Shards: 3, Tracker: tcfg, OnInterval: goldenRec.Record})
	for _, group := range batches {
		for _, b := range group {
			golden.Send(fleet.Batch{Stream: b.Stream, Cycles: b.Cycles, Events: b.Events, EndInterval: b.EndInterval})
		}
	}
	golden.Flush()
	golden.Close()
	want := recorderLines(t, goldenRec)
	sortPhaseLines(want)

	rec := NewPhaseRecorder()
	srv, _, addr := startServer(t, fleet.Config{Shards: 3, Tracker: tcfg, OnInterval: rec.Record}, nil)
	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	c.Window = 64
	for _, group := range batches {
		for _, b := range group {
			if err := c.QueueBatch(b.Stream, b.Cycles, b.Events, b.EndInterval); err != nil {
				t.Fatalf("QueueBatch: %v", err)
			}
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	got := recorderLines(t, rec)
	sortPhaseLines(got)
	if len(got) != len(want) {
		t.Fatalf("phase log: %d lines pipelined, %d in-process", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("phase log line %d: %q pipelined, %q in-process", i, got[i], want[i])
		}
	}

	m := srv.Metrics()
	if m.Bursts == 0 {
		t.Error("pipelined ingest never took the burst path")
	}
	if m.Acks != uint64(len(batches))+1 { // every batch plus the flush
		t.Errorf("acks %d, want %d", m.Acks, len(batches)+1)
	}
	t.Logf("bursts=%d burstFrames=%d of %d frames", m.Bursts, m.BurstFrames, m.Frames)
}

// TestPipelinedBurstQuarantineNacks pins per-batch admission inside a
// coalesced run: a quarantined stream's frames are nacked
// NackQuarantined while interleaved healthy frames on the same
// connection are acked, with nothing from the quarantined stream
// reaching its shard.
func TestPipelinedBurstQuarantineNacks(t *testing.T) {
	srv, f, addr := startServer(t, fleet.Config{
		Shards:     2,
		Quarantine: fleet.QuarantinePolicy{Strikes: 1, Probation: time.Hour},
	}, nil)
	f.Offense("bad", errors.New("poisoned upstream"))

	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	c.Window = 32
	events := intervalEvents()
	sawQuarantineNack := false
	checkNack := func(err error) {
		t.Helper()
		if err == nil {
			return
		}
		var ne *wire.NackError
		if !errors.As(err, &ne) || ne.Code != wire.NackQuarantined {
			t.Fatalf("unexpected pipeline error: %v", err)
		}
		sawQuarantineNack = true
	}
	const pairs = 10
	for i := 0; i < 2*pairs; i++ {
		stream := "good"
		if i%2 == 1 {
			stream = "bad"
		}
		checkNack(c.QueueBatch(stream, 0, events, true))
	}
	checkNack(c.Drain())
	if !sawQuarantineNack {
		t.Fatal("no quarantine nack surfaced to the client")
	}

	f.Flush()
	if _, ok := f.Report("bad"); ok {
		t.Fatal("quarantined stream reached its shard through a coalesced run")
	}
	if r, ok := f.Report("good"); !ok || r.Intervals != pairs {
		t.Fatalf("good stream report %+v ok=%v, want %d intervals", r, ok, pairs)
	}
	m := srv.Metrics()
	if m.Acks != pairs || m.Nacks != pairs {
		t.Fatalf("acks=%d nacks=%d, want %d each", m.Acks, m.Nacks, pairs)
	}
}

// TestBurstOrderedResponses writes a handshake plus four frames — good
// batch, malformed payload, good batch, flush — in a single TCP write
// and requires the responses to come back in frame order with the
// malformed frame's NackMalformed sandwiched between acks.
func TestBurstOrderedResponses(t *testing.T) {
	_, _, addr := startServer(t, fleet.Config{}, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	events := intervalEvents()
	buf := []byte(wire.Magic)
	buf = wire.AppendBatchFrame(buf, wire.Batch{Seq: 1, StreamSeq: 1, Stream: "s", Events: events, EndInterval: true})
	junk := []byte{0x99, 0x01, 0x02} // intact framing, undecodable payload
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(junk)))
	buf = append(buf, junk...)
	buf = wire.AppendBatchFrame(buf, wire.Batch{Seq: 3, StreamSeq: 2, Stream: "s", Events: events, EndInterval: true})
	buf = wire.AppendFlushFrame(buf, 4)
	if _, err := conn.Write(buf); err != nil {
		t.Fatalf("write: %v", err)
	}

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var rbuf []byte
	read := func() wire.Frame {
		t.Helper()
		payload, err := wire.ReadFrame(conn, rbuf, 0)
		if err != nil && err != io.EOF {
			t.Fatalf("read response: %v", err)
		}
		rbuf = payload[:0]
		fr, err := wire.DecodeFrame(payload)
		if err != nil {
			t.Fatalf("decode response: %v", err)
		}
		return fr
	}
	for _, want := range []struct {
		tag  int
		seq  uint64
		code uint8
	}{
		{wire.TagAck, 1, 0},
		{wire.TagNack, 0, wire.NackMalformed}, // undecodable payload has no seq
		{wire.TagAck, 3, 0},
		{wire.TagAck, 4, 0},
	} {
		fr := read()
		if int(fr.Tag) != want.tag || fr.Seq != want.seq || fr.Code != want.code {
			t.Fatalf("response %+v, want tag %#02x seq %d code %d", fr, want.tag, want.seq, want.code)
		}
	}
}
