package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"phasekit/internal/trace"
)

func testBatch() Batch {
	return Batch{
		Seq:         42,
		StreamSeq:   9,
		Stream:      "tenant-7",
		Cycles:      123456,
		EndInterval: true,
		Events: []trace.BranchEvent{
			{PC: 0x400010, Instrs: 100},
			{PC: 0x400020, Instrs: 7},
			{PC: 0xffffffffffffffff, Instrs: 0xffffffff},
		},
	}
}

func roundTrip(t *testing.T, raw []byte) Frame {
	t.Helper()
	payload, err := ReadFrame(bytes.NewReader(raw), nil, 0)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	f, err := DecodeFrame(payload)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	return f
}

func TestBatchFrameRoundTrip(t *testing.T) {
	want := testBatch()
	f := roundTrip(t, AppendBatchFrame(nil, want))
	if f.Tag != TagBatch || f.Seq != want.Seq || f.Batch.StreamSeq != want.StreamSeq {
		t.Fatalf("tag/seq/streamSeq: %#02x/%d/%d", f.Tag, f.Seq, f.Batch.StreamSeq)
	}
	got := f.Batch
	if got.Stream != want.Stream || got.Cycles != want.Cycles || got.EndInterval != want.EndInterval {
		t.Fatalf("batch header: %+v, want %+v", got, want)
	}
	if len(got.Events) != len(want.Events) {
		t.Fatalf("%d events, want %d", len(got.Events), len(want.Events))
	}
	for i := range got.Events {
		if got.Events[i] != want.Events[i] {
			t.Fatalf("event %d: %+v, want %+v", i, got.Events[i], want.Events[i])
		}
	}
}

func TestEmptyBatchRoundTrip(t *testing.T) {
	f := roundTrip(t, AppendBatchFrame(nil, Batch{Seq: 1, StreamSeq: 1, Stream: "s"}))
	if len(f.Batch.Events) != 0 || f.Batch.EndInterval {
		t.Fatalf("empty batch decoded as %+v", f.Batch)
	}
}

func TestControlFrameRoundTrips(t *testing.T) {
	if f := roundTrip(t, AppendFlushFrame(nil, 9)); f.Tag != TagFlush || f.Seq != 9 {
		t.Fatalf("flush: %+v", f)
	}
	if f := roundTrip(t, AppendAckFrame(nil, 10)); f.Tag != TagAck || f.Seq != 10 {
		t.Fatalf("ack: %+v", f)
	}
	f := roundTrip(t, AppendNackFrame(nil, 11, NackOverload, "queue full"))
	if f.Tag != TagNack || f.Seq != 11 || f.Code != NackOverload || f.Detail != "queue full" {
		t.Fatalf("nack: %+v", f)
	}
}

func TestMultipleFramesOneStream(t *testing.T) {
	raw := AppendBatchFrame(nil, testBatch())
	raw = AppendFlushFrame(raw, 43)
	raw = AppendAckFrame(raw, 44)
	r := bytes.NewReader(raw)
	var buf []byte
	var tags []byte
	for {
		payload, err := ReadFrame(r, buf, 0)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		f, err := DecodeFrame(payload)
		if err != nil {
			t.Fatalf("DecodeFrame: %v", err)
		}
		tags = append(tags, f.Tag)
		buf = payload[:0]
	}
	if string(tags) != string([]byte{TagBatch, TagFlush, TagAck}) {
		t.Fatalf("tags: %#v", tags)
	}
}

func TestReadFrameTooLarge(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 1<<30)
	_, err := ReadFrame(bytes.NewReader(hdr[:]), nil, 0)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: %v", err)
	}
	// A small limit rejects frames the default would accept.
	raw := AppendBatchFrame(nil, testBatch())
	if _, err := ReadFrame(bytes.NewReader(raw), nil, 8); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("limit 8: %v", err)
	}
}

func TestReadFrameTruncation(t *testing.T) {
	raw := AppendBatchFrame(nil, testBatch())
	// Clean EOF only at a frame boundary.
	if _, err := ReadFrame(bytes.NewReader(nil), nil, 0); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
	for _, cut := range []int{1, 3, 4, 5, len(raw) - 1} {
		_, err := ReadFrame(bytes.NewReader(raw[:cut]), nil, 0)
		if err == nil || err == io.EOF {
			t.Fatalf("cut at %d: %v, want truncation error", cut, err)
		}
		if cut >= 4 && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestDecodeMalformedPreservesStream(t *testing.T) {
	// Corrupt the event count of a valid batch so it promises more
	// events than the payload holds: decode must fail as ErrMalformed
	// but still report the stream for offense attribution.
	b := testBatch()
	raw := AppendBatchFrame(nil, b)
	payload := raw[4:]
	// Find the count field: section(2) + seq(8) + streamSeq(8) +
	// string(4+len) + cycles(8) + bool(1).
	off := 2 + 8 + 8 + 4 + len(b.Stream) + 8 + 1
	binary.LittleEndian.PutUint32(payload[off:], 1<<30)
	f, err := DecodeFrame(payload)
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("corrupted count: %v, want ErrMalformed", err)
	}
	if f.Batch.Stream != b.Stream {
		t.Fatalf("stream lost on malformed payload: %q", f.Batch.Stream)
	}
}

func TestDecodeRejectsUnknownTagAndTrailer(t *testing.T) {
	// 0x37 and 0x38 (the wire snapshot handoff), 0x39–0x3C (heartbeats
	// and quorum probes) and 0x3D are retired tags: both decode paths
	// must refuse them like any unassigned one.
	for _, tag := range []byte{0x7f, 0x37, 0x38, 0x39, 0x3A, 0x3B, 0x3C, 0x3D} {
		if _, err := DecodeFrame([]byte{tag, 1, 0, 0}); !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), "unknown tag") {
			t.Fatalf("tag %#02x: %v, want ErrMalformed unknown tag", tag, err)
		}
		if _, err := DecodeFrameView([]byte{tag, 1, 0, 0}, nil); !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), "unknown tag") {
			t.Fatalf("tag %#02x (view): %v, want ErrMalformed unknown tag", tag, err)
		}
	}
	raw := AppendAckFrame(nil, 5)
	payload := append(raw[4:], 0xee) // trailing junk after a valid ack
	if _, err := DecodeFrame(payload); !errors.Is(err, ErrMalformed) {
		t.Fatalf("trailing bytes: %v", err)
	}
	if _, err := DecodeFrame(nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("nil payload: %v", err)
	}
}

// TestDecodeRejectsRetiredLayouts pins that every payload kind has one
// layout: a v1 batch (no stream sequence), a whole frame of a retired
// kind (the last heartbeat ack layout, tag 0x3A) and a current-layout
// batch whose stream sequence is 0 are all malformed, through both
// decoders — and the batch refusals still name the stream, so the
// server can charge it the offense.
func TestDecodeRejectsRetiredLayouts(t *testing.T) {
	v1Batch := []byte{TagBatch, 1}
	v1Batch = binary.LittleEndian.AppendUint64(v1Batch, 7) // seq
	v1Batch = binary.LittleEndian.AppendUint32(v1Batch, 1) // stream
	v1Batch = append(v1Batch, 's')
	v1Batch = binary.LittleEndian.AppendUint64(v1Batch, 0) // cycles
	v1Batch = append(v1Batch, 0)                           // endInterval
	v1Batch = binary.LittleEndian.AppendUint32(v1Batch, 0) // no events

	pingAck := []byte{0x3A, 2}
	pingAck = binary.LittleEndian.AppendUint64(pingAck, 8) // seq
	pingAck = binary.LittleEndian.AppendUint32(pingAck, 2) // id
	pingAck = append(pingAck, 'n', '1')
	pingAck = binary.LittleEndian.AppendUint32(pingAck, 0)      // addr
	pingAck = binary.LittleEndian.AppendUint64(pingAck, 3)      // epoch
	pingAck = append(pingAck, 1)                                // member
	pingAck = binary.LittleEndian.AppendUint64(pingAck, 0xfeed) // ring hash

	unstamped := AppendBatchFrame(nil, Batch{Seq: 9, Stream: "s"})[lenSize:]

	for _, tc := range []struct {
		name    string
		payload []byte
		stream  string // the stream the refusal must still name
	}{
		{"v1 batch", v1Batch, ""},
		{"retired ping-ack", pingAck, ""},
		{"unstamped batch", unstamped, "s"},
	} {
		f, err := DecodeFrame(tc.payload)
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s: DecodeFrame: %v, want ErrMalformed", tc.name, err)
		}
		if f.Batch.Stream != tc.stream {
			t.Fatalf("%s: DecodeFrame stream %q, want %q", tc.name, f.Batch.Stream, tc.stream)
		}
		v, err := DecodeFrameView(tc.payload, nil)
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s: DecodeFrameView: %v, want ErrMalformed", tc.name, err)
		}
		if string(v.Stream) != tc.stream {
			t.Fatalf("%s: DecodeFrameView stream %q, want %q", tc.name, v.Stream, tc.stream)
		}
	}
}

func TestNackCodeStrings(t *testing.T) {
	cases := []struct {
		code uint8
		want string
	}{
		{NackMalformed, "malformed"},
		{NackOverload, "overload"},
		{NackQuarantined, "quarantined"},
		{NackDeadline, "deadline"},
		{NackShutdown, "shutdown"},
		{NackInternal, "internal"},
		{NackRedirect, "redirect"},
		{NackStaleEpoch, "stale-epoch"},
		{0, "code-0"},
		{99, "code-99"},
	}
	for _, c := range cases {
		if got := NackCodeString(c.code); got != c.want {
			t.Errorf("NackCodeString(%d) = %q, want %q", c.code, got, c.want)
		}
	}
}

func TestControlFrameFieldRoundTrips(t *testing.T) {
	node := NodeInfo{ID: "n2", Addr: "10.0.0.2:9127"}
	if f := roundTrip(t, AppendJoinFrame(nil, 5, node)); f.Tag != TagJoin || f.Seq != 5 || f.Node != node {
		t.Fatalf("join: %+v", f)
	}
	ring := RingInfo{Epoch: 7, Nodes: []NodeInfo{
		{ID: "n1", Addr: "10.0.0.1:9127"},
		{ID: "n2", Addr: "10.0.0.2:9127"},
		{ID: "n3", Addr: "10.0.0.3:9127"},
	}}
	f := roundTrip(t, AppendAssignFrame(nil, 6, ring))
	if f.Tag != TagAssign || f.Seq != 6 || f.Ring.Epoch != ring.Epoch || len(f.Ring.Nodes) != 3 {
		t.Fatalf("assign: %+v", f)
	}
	for i, n := range f.Ring.Nodes {
		if n != ring.Nodes[i] {
			t.Fatalf("assign node %d: %+v, want %+v", i, n, ring.Nodes[i])
		}
	}
}

func TestNackErrorFormatting(t *testing.T) {
	err := &NackError{Seq: 3, Code: NackQuarantined, Detail: "stream evil"}
	if !strings.Contains(err.Error(), "quarantined") || !strings.Contains(err.Error(), "stream evil") {
		t.Fatalf("NackError: %s", err)
	}
	if NackCodeString(200) != "code-200" {
		t.Fatalf("unknown code: %s", NackCodeString(200))
	}
}
