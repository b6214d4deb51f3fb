// Package wire is the length-prefixed binary ingest protocol spoken
// between phasekit clients and the phasekitd server (internal/server).
//
// The protocol is deliberately minimal: a connection opens with a
// 6-byte magic, then carries a sequence of frames in each direction.
// Every frame is
//
//	length  uint32 little-endian  (payload bytes, excluding itself)
//	payload length bytes
//
// and every payload reuses the internal/state codec conventions: a
// two-byte section header (tag, version) followed by fixed-width
// little-endian fields with count-prefixed repeats. Frame payloads:
//
//	Batch v2: seq u64, streamSeq u64, stream string, cycles u64,
//	          endInterval bool,
//	          events u32 count + (pc u64, instrs u32) each
//	          (streamSeq >= 1: an unstamped batch is malformed)
//	Flush v1: seq u64
//	Ack   v1: seq u64
//	Nack  v1: seq u64, code u8, detail string
//
// Cluster control frames share the same framing (see internal/cluster
// for the protocol they implement):
//
//	Join   v1: seq u64, id string, addr string
//	Assign v1: seq u64, epoch u64,
//	           nodes u32 count + (id string, addr string) each
//
// The length prefix is bounded by a max-frame guard before any
// allocation, and the payload decoder (state.Decoder) bounds every
// count against the bytes actually present, so arbitrary input can
// neither panic the decoder nor allocate beyond the frame it arrived
// in. Decode failures are resynchronizable: framing is intact (the
// length prefix was valid), so a server can NACK the frame and keep
// reading.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"phasekit/internal/state"
	"phasekit/internal/trace"
)

// Magic opens every client connection. The server rejects connections
// that do not start with it, so port scanners and stray HTTP requests
// fail fast instead of being interpreted as garbage frames.
const Magic = "PHKW1\n"

// DefaultMaxFrame bounds the payload length the reader will accept
// (and allocate) for one frame. A batch of ~40k events fits; anything
// larger is a framing error or an attack.
const DefaultMaxFrame = 1 << 20

// lenSize is the frame length prefix size.
const lenSize = 4

// FramePrefix is the on-wire size of the frame length prefix, exported
// so transports can peek a buffered stream for a complete frame
// without decoding it.
const FramePrefix = lenSize

// Frame payload tags (section headers, state codec convention).
const (
	TagBatch = 0x31
	TagFlush = 0x32
	TagAck   = 0x33
	TagNack  = 0x34
	// Cluster control frames: a node announcing itself (Join, answered
	// by an Assign carrying the new ring) and an epoch-numbered
	// membership push (Assign, answered by Ack or NackStaleEpoch).
	// Streams move between nodes through the shared store, not the
	// wire, so 0x37 and 0x38 are retired; so are 0x39–0x3C, the
	// heartbeat and quorum-probe frames, since liveness is decided by
	// lease records in that store too.
	TagJoin   = 0x35
	TagAssign = 0x36
)

// Versions of each payload layout this package encodes and decodes.
// Each payload kind has exactly one layout: a section at any other
// version is malformed.
const (
	// batchVersion 2 added the client's per-stream sequence number
	// right after the connection seq, so the connection-seq patching
	// done on redirect/replay never touches it.
	batchVersion = 2
	ctrlVersion  = 1
)

// Nack codes: why the server refused a frame.
const (
	// NackMalformed: the payload failed to decode (framing was intact).
	NackMalformed = 1
	// NackOverload: the fleet's ingest queue was full under the Reject
	// overload policy.
	NackOverload = 2
	// NackQuarantined: the stream is quarantined; retry after probation.
	NackQuarantined = 3
	// NackDeadline: the ctx-bounded ingest wait timed out (Block
	// overload policy under sustained backpressure).
	NackDeadline = 4
	// NackShutdown: the server is draining; reconnect elsewhere/later.
	NackShutdown = 5
	// NackInternal: an unexpected server-side failure.
	NackInternal = 6
	// NackRedirect: this node does not own the frame's stream; Detail
	// carries the owner's ingest address. Clients re-home the stream
	// there and re-send the refused frame (wire.Client does this
	// transparently once redirect following is enabled).
	NackRedirect = 7
	// NackStaleEpoch: an Assign carried a ring epoch older than the receiver's — the sender is a fenced
	// stale writer and must refresh its ring before retrying.
	NackStaleEpoch = 8
)

// NackCodeString names a Nack code for logs and errors.
func NackCodeString(code uint8) string {
	switch code {
	case NackMalformed:
		return "malformed"
	case NackOverload:
		return "overload"
	case NackQuarantined:
		return "quarantined"
	case NackDeadline:
		return "deadline"
	case NackShutdown:
		return "shutdown"
	case NackInternal:
		return "internal"
	case NackRedirect:
		return "redirect"
	case NackStaleEpoch:
		return "stale-epoch"
	}
	return fmt.Sprintf("code-%d", code)
}

// Typed protocol failure classes.
var (
	// ErrFrameTooLarge marks a frame whose length prefix exceeds the
	// max-frame guard. Connection-fatal: the stream cannot be resynced.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrMalformed marks a payload that failed to decode. The framing
	// itself was intact, so the connection can continue.
	ErrMalformed = errors.New("wire: malformed frame payload")
	// ErrBadMagic marks a connection that did not open with Magic.
	ErrBadMagic = errors.New("wire: bad connection magic")
)

// Batch is the decoded form of a batch frame.
type Batch struct {
	Seq uint64
	// StreamSeq is the client's per-stream monotonic sequence number,
	// starting at 1. Unlike Seq (per-connection, reassigned on replay
	// and redirect), it identifies the batch itself: the server drops a
	// batch whose StreamSeq it has already applied, turning the
	// reconnect policy's at-least-once replay into exactly-once apply.
	// A batch frame without one (StreamSeq 0) fails to decode.
	StreamSeq   uint64
	Stream      string
	Cycles      uint64
	EndInterval bool
	Events      []trace.BranchEvent
}

// NodeInfo identifies one cluster member: a stable ID and the ingest
// address peers and redirected clients dial.
type NodeInfo struct {
	ID   string
	Addr string
}

// RingInfo is the wire form of an epoch-numbered assignment table: the
// full membership at one epoch. internal/cluster converts it to and
// from its Ring.
type RingInfo struct {
	Epoch uint64
	Nodes []NodeInfo
}

// Frame is one decoded payload. Tag selects which fields are
// meaningful: Batch for TagBatch; Seq for TagFlush/TagAck/TagNack;
// Code and Detail for TagNack; Node for TagJoin; Ring for TagAssign.
type Frame struct {
	Tag    byte
	Batch  Batch
	Seq    uint64
	Code   uint8
	Detail string

	Node NodeInfo
	Ring RingInfo
}

// FrameView is the zero-copy decoded form of a frame payload: Stream
// and Detail are views into the payload buffer (valid only while it
// is), and Events is decoded into a caller-owned slice. DecodeFrame
// remains the copying reference path; the golden tests in
// internal/server pin the two byte-identical.
type FrameView struct {
	Tag         byte
	Seq         uint64
	StreamSeq   uint64
	Stream      []byte
	Cycles      uint64
	EndInterval bool
	Events      []trace.BranchEvent
	Code        uint8
	Detail      []byte

	// Control-frame fields. Node and Ring are decoded as owned values —
	// control frames are rare, so the allocation does not matter.
	Node NodeInfo
	Ring RingInfo
}

// eventSize is the encoded size of one branch event (pc u64 + instrs
// u32); used to bound the event count against the payload.
const eventSize = 12

// appendFrame wraps an encoded payload (built by enc starting at
// dst[len(dst)+lenSize:]) with its length prefix. It reserves the
// prefix, runs enc, then patches the length in.
func appendFrame(dst []byte, enc func(e *state.Encoder)) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	e := state.AppendTo(dst)
	enc(e)
	out := e.Bytes()
	binary.LittleEndian.PutUint32(out[start:], uint32(len(out)-start-lenSize))
	return out
}

// AppendBatchFrame appends a framed batch to dst.
func AppendBatchFrame(dst []byte, b Batch) []byte {
	return appendFrame(dst, func(e *state.Encoder) {
		e.Section(TagBatch, batchVersion)
		e.U64(b.Seq)
		e.U64(b.StreamSeq)
		e.String(b.Stream)
		e.U64(b.Cycles)
		e.Bool(b.EndInterval)
		e.U32(uint32(len(b.Events)))
		for _, ev := range b.Events {
			e.U64(ev.PC)
			e.U32(ev.Instrs)
		}
	})
}

// AppendFlushFrame appends a framed flush request to dst.
func AppendFlushFrame(dst []byte, seq uint64) []byte {
	return appendFrame(dst, func(e *state.Encoder) {
		e.Section(TagFlush, ctrlVersion)
		e.U64(seq)
	})
}

// AppendAckFrame appends a framed acknowledgement to dst.
func AppendAckFrame(dst []byte, seq uint64) []byte {
	return appendFrame(dst, func(e *state.Encoder) {
		e.Section(TagAck, ctrlVersion)
		e.U64(seq)
	})
}

// AppendNackFrame appends a framed negative acknowledgement to dst.
func AppendNackFrame(dst []byte, seq uint64, code uint8, detail string) []byte {
	return appendFrame(dst, func(e *state.Encoder) {
		e.Section(TagNack, ctrlVersion)
		e.U64(seq)
		e.U8(code)
		e.String(detail)
	})
}

// AppendJoinFrame appends a framed join announcement to dst.
func AppendJoinFrame(dst []byte, seq uint64, node NodeInfo) []byte {
	return appendFrame(dst, func(e *state.Encoder) {
		e.Section(TagJoin, ctrlVersion)
		e.U64(seq)
		e.String(node.ID)
		e.String(node.Addr)
	})
}

// AppendAssignFrame appends a framed assignment-table push to dst.
func AppendAssignFrame(dst []byte, seq uint64, ring RingInfo) []byte {
	return appendFrame(dst, func(e *state.Encoder) {
		e.Section(TagAssign, ctrlVersion)
		e.U64(seq)
		e.U64(ring.Epoch)
		e.U32(uint32(len(ring.Nodes)))
		for _, n := range ring.Nodes {
			e.String(n.ID)
			e.String(n.Addr)
		}
	})
}

// ReadFrame reads one frame from r, reusing buf when it is large
// enough, and returns the raw payload. maxFrame bounds the length
// prefix before any allocation (0 means DefaultMaxFrame). io.EOF is
// returned untouched at a clean frame boundary so callers can
// distinguish an orderly close from truncation (io.ErrUnexpectedEOF).
func ReadFrame(r io.Reader, buf []byte, maxFrame int) ([]byte, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	var hdr [lenSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if int64(n) > int64(maxFrame) {
		return nil, fmt.Errorf("%w: %d bytes (limit %d)", ErrFrameTooLarge, n, maxFrame)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("wire: truncated frame: %w", err)
	}
	return buf, nil
}

// DecodeFrame decodes one frame payload. On a malformed batch payload
// the returned Frame still carries the stream name when it decoded
// before the failure, so servers can attribute the offense to the
// stream that sent it. Every decode failure wraps ErrMalformed.
func DecodeFrame(payload []byte) (Frame, error) {
	if len(payload) < 2 {
		return Frame{}, fmt.Errorf("%w: %d-byte payload", ErrMalformed, len(payload))
	}
	f := Frame{Tag: payload[0]}
	d := state.NewDecoder(payload)
	switch f.Tag {
	case TagBatch:
		if v := d.Section(TagBatch, batchVersion); v != 0 && v != batchVersion {
			return f, oldVersion(TagBatch, v, batchVersion)
		}
		f.Batch.Seq = d.U64()
		f.Batch.StreamSeq = d.U64()
		f.Batch.Stream = d.String()
		f.Batch.Cycles = d.U64()
		f.Batch.EndInterval = d.Bool()
		n := d.Count(eventSize)
		if n > 0 && d.Err() == nil {
			f.Batch.Events = make([]trace.BranchEvent, n)
			for i := range f.Batch.Events {
				f.Batch.Events[i] = trace.BranchEvent{PC: d.U64(), Instrs: d.U32()}
			}
		}
		f.Seq = f.Batch.Seq
	case TagFlush, TagAck:
		d.Section(f.Tag, ctrlVersion)
		f.Seq = d.U64()
	case TagNack:
		d.Section(TagNack, ctrlVersion)
		f.Seq = d.U64()
		f.Code = d.U8()
		f.Detail = d.String()
	case TagJoin:
		d.Section(TagJoin, ctrlVersion)
		f.Seq = d.U64()
		f.Node.ID = d.String()
		f.Node.Addr = d.String()
	case TagAssign:
		d.Section(TagAssign, ctrlVersion)
		f.Seq = d.U64()
		f.Ring.Epoch = d.U64()
		// Two length-prefixed strings per node: at least 8 bytes each.
		n := d.Count(8)
		if n > 0 && d.Err() == nil {
			f.Ring.Nodes = make([]NodeInfo, n)
			for i := range f.Ring.Nodes {
				f.Ring.Nodes[i] = NodeInfo{ID: d.String(), Addr: d.String()}
			}
		}
	default:
		return f, fmt.Errorf("%w: unknown tag %#02x", ErrMalformed, f.Tag)
	}
	if err := d.Finish(); err != nil {
		return f, fmt.Errorf("%w: %w", ErrMalformed, err)
	}
	if f.Tag == TagBatch && f.Batch.StreamSeq == 0 {
		return f, errUnstamped
	}
	return f, nil
}

// DecodeFrameView decodes one frame payload with zero allocations:
// string fields come back as views into payload, and batch events are
// decoded into events (grown only when capacity is short, so a reused
// buffer reaches steady state after one batch). The returned view
// aliases both payload and events and is valid only until either is
// reused. Decode semantics — including which fields survive a
// malformed batch so the server can attribute the offense — are
// identical to DecodeFrame.
func DecodeFrameView(payload []byte, events []trace.BranchEvent) (FrameView, error) {
	if len(payload) < 2 {
		return FrameView{}, fmt.Errorf("%w: %d-byte payload", ErrMalformed, len(payload))
	}
	f := FrameView{Tag: payload[0]}
	d := state.NewDecoder(payload)
	switch f.Tag {
	case TagBatch:
		if v := d.Section(TagBatch, batchVersion); v != 0 && v != batchVersion {
			return f, oldVersion(TagBatch, v, batchVersion)
		}
		f.Seq = d.U64()
		f.StreamSeq = d.U64()
		f.Stream = d.Bytes()
		f.Cycles = d.U64()
		f.EndInterval = d.Bool()
		n := d.Count(eventSize)
		if n > 0 && d.Err() == nil {
			if cap(events) < n {
				events = make([]trace.BranchEvent, n)
			}
			f.Events = events[:n]
			for i := range f.Events {
				f.Events[i] = trace.BranchEvent{PC: d.U64(), Instrs: d.U32()}
			}
		}
	case TagFlush, TagAck:
		d.Section(f.Tag, ctrlVersion)
		f.Seq = d.U64()
	case TagNack:
		d.Section(TagNack, ctrlVersion)
		f.Seq = d.U64()
		f.Code = d.U8()
		f.Detail = d.Bytes()
	case TagJoin:
		d.Section(TagJoin, ctrlVersion)
		f.Seq = d.U64()
		f.Node.ID = d.String()
		f.Node.Addr = d.String()
	case TagAssign:
		d.Section(TagAssign, ctrlVersion)
		f.Seq = d.U64()
		f.Ring.Epoch = d.U64()
		n := d.Count(8)
		if n > 0 && d.Err() == nil {
			f.Ring.Nodes = make([]NodeInfo, n)
			for i := range f.Ring.Nodes {
				f.Ring.Nodes[i] = NodeInfo{ID: d.String(), Addr: d.String()}
			}
		}
	default:
		return f, fmt.Errorf("%w: unknown tag %#02x", ErrMalformed, f.Tag)
	}
	if err := d.Finish(); err != nil {
		return f, fmt.Errorf("%w: %w", ErrMalformed, err)
	}
	if f.Tag == TagBatch && f.StreamSeq == 0 {
		return f, errUnstamped
	}
	return f, nil
}

// errUnstamped refuses a batch frame without a stream sequence: the
// server's duplicate check needs one on every wire batch, so exactly-
// once apply has no exception. The stream name survives in the decoded
// frame, so the server still charges the offense to it.
var errUnstamped = fmt.Errorf("%w: batch without a stream sequence", ErrMalformed)

// oldVersion refuses a section at a layout version other than the one
// this package speaks.
func oldVersion(tag, v, want byte) error {
	return fmt.Errorf("%w: section %#02x version %d, want %d", ErrMalformed, tag, v, want)
}
