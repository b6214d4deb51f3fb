package fleet

import (
	"fmt"

	"phasekit/internal/state"
)

// tagSeqEnvelope frames a tracker snapshot together with the stream's
// last applied batch sequence (streamEntry.seq). Every snapshot the
// fleet writes — eviction, checkpoint, detach — is wrapped so the
// dedup watermark survives wherever the snapshot travels: the store, a
// migration to another node, a crash replay. Snapshots read back are
// unwrapped here, and one without the envelope is corrupt.
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
// and the inner tracker snapshot (a view into raw, not a copy). Any
// other payload, a bare tracker snapshot included, is
// ErrSnapshotCorrupt.
func openSeqEnvelope(raw []byte) (seq uint64, snap []byte, err error) {
	d := state.NewDecoder(raw)
	d.Section(tagSeqEnvelope, seqEnvelopeVersion)
	seq = d.U64()
	snap = d.Bytes()
	if err := d.Finish(); err != nil {
		return 0, nil, fmt.Errorf("%w: seq envelope: %w", ErrSnapshotCorrupt, err)
	}
	return seq, snap, nil
}
