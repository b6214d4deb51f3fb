package fleet

import (
	"fmt"

	"phasekit/internal/state"
)

// tagSeqEnvelope frames a tracker snapshot together with the stream's
// last applied batch sequence (streamEntry.seq). Every snapshot the
// fleet writes — eviction, checkpoint, detach handoff — is wrapped so
// the dedup watermark survives wherever the snapshot travels: the
// store, a handoff frame, a crash replay. Snapshots read
// back are unwrapped here; bare legacy snapshots (first byte is the
// tracker tag, not this one) pass through with seq 0, which means
// "no watermark: apply everything".
const tagSeqEnvelope = 0xF5

const seqEnvelopeVersion = 1

// appendSeqEnvelope wraps snap and seq into dst.
func appendSeqEnvelope(dst []byte, seq uint64, snap []byte) []byte {
	e := state.AppendTo(dst)
	e.Section(tagSeqEnvelope, seqEnvelopeVersion)
	e.U64(seq)
	e.Blob(snap)
	return e.Bytes()
}

// openSeqEnvelope splits an enveloped snapshot into its seq watermark
// and the inner tracker snapshot (a view into raw, not a copy). A
// payload that does not start with the envelope tag is a legacy bare
// snapshot: returned unchanged with seq 0.
func openSeqEnvelope(raw []byte) (seq uint64, snap []byte, err error) {
	if len(raw) == 0 || raw[0] != tagSeqEnvelope {
		return 0, raw, nil
	}
	d := state.NewDecoder(raw)
	d.Section(tagSeqEnvelope, seqEnvelopeVersion)
	seq = d.U64()
	snap = d.Bytes()
	if err := d.Finish(); err != nil {
		return 0, nil, fmt.Errorf("%w: seq envelope: %w", ErrSnapshotCorrupt, err)
	}
	return seq, snap, nil
}
