package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"phasekit/internal/trace"
)

// FuzzWireFrame throws arbitrary bytes at the frame reader and payload
// decoder with a small max-frame guard. The invariants: no panic, no
// allocation beyond the guard (the returned payload is bounded), and
// every accepted batch re-encodes to a decodable frame.
func FuzzWireFrame(f *testing.F) {
	f.Add(AppendBatchFrame(nil, Batch{Seq: 1, StreamSeq: 1, Stream: "s", Cycles: 9, EndInterval: true,
		Events: []trace.BranchEvent{{PC: 0x400000, Instrs: 50}}}))
	f.Add(AppendFlushFrame(nil, 2))
	f.Add(AppendAckFrame(nil, 3))
	f.Add(AppendNackFrame(nil, 4, NackOverload, "full"))
	f.Add(AppendJoinFrame(nil, 5, NodeInfo{ID: "n2", Addr: "10.0.0.2:9127"}))
	f.Add(AppendAssignFrame(nil, 6, RingInfo{Epoch: 3, Nodes: []NodeInfo{
		{ID: "n1", Addr: "10.0.0.1:9127"}, {ID: "n2", Addr: "10.0.0.2:9127"}}}))
	// Retired handoff layouts (tags 0x37 and 0x38): refused as unknown.
	f.Add([]byte{4, 0, 0, 0, 0x37, 1, 0, 0})
	f.Add([]byte{4, 0, 0, 0, 0x38, 1, 0, 0})
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{4, 0, 0, 0, TagBatch, 1, 0, 0})
	f.Add([]byte{4, 0, 0, 0, TagAssign, 1, 0, 0})
	// A retired heartbeat frame (tag 0x39, once PING): refused as unknown.
	f.Add([]byte{4, 0, 0, 0, 0x39, 1, 0, 0})

	const maxFrame = 1 << 12
	f.Fuzz(func(t *testing.T, raw []byte) {
		r := bytes.NewReader(raw)
		var buf []byte
		for {
			payload, err := ReadFrame(r, buf, maxFrame)
			if err != nil {
				if errors.Is(err, ErrFrameTooLarge) || errors.Is(err, io.ErrUnexpectedEOF) || err == io.EOF {
					return
				}
				t.Fatalf("ReadFrame: unexpected error class %v", err)
			}
			if len(payload) > maxFrame {
				t.Fatalf("payload %d bytes exceeds the %d-byte guard", len(payload), maxFrame)
			}
			fr, err := DecodeFrame(payload)
			if err != nil {
				if !errors.Is(err, ErrMalformed) {
					t.Fatalf("DecodeFrame: unexpected error class %v", err)
				}
				buf = payload[:0]
				continue // malformed payloads are resyncable
			}
			// The decoded event slice can never outgrow what the payload
			// could possibly hold.
			if fr.Tag == TagBatch && len(fr.Batch.Events)*eventSize > len(payload) {
				t.Fatalf("decoded %d events from a %d-byte payload", len(fr.Batch.Events), len(payload))
			}
			// Anything we accept must survive a re-encode/decode cycle.
			var re []byte
			switch fr.Tag {
			case TagBatch:
				re = AppendBatchFrame(nil, fr.Batch)
			case TagFlush:
				re = AppendFlushFrame(nil, fr.Seq)
			case TagAck:
				re = AppendAckFrame(nil, fr.Seq)
			case TagNack:
				re = AppendNackFrame(nil, fr.Seq, fr.Code, fr.Detail)
			case TagJoin:
				re = AppendJoinFrame(nil, fr.Seq, fr.Node)
			case TagAssign:
				re = AppendAssignFrame(nil, fr.Seq, fr.Ring)
			}
			payload2, err := ReadFrame(bytes.NewReader(re), nil, 0)
			if err != nil {
				t.Fatalf("re-read: %v", err)
			}
			fr2, err := DecodeFrame(payload2)
			if err != nil {
				t.Fatalf("re-decode: %v", err)
			}
			if fr2.Tag != fr.Tag || fr2.Seq != fr.Seq {
				t.Fatalf("round trip changed frame: %+v -> %+v", fr, fr2)
			}
			buf = payload[:0]
		}
	})
}
