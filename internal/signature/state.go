package signature

import (
	"fmt"

	"phasekit/internal/state"
)

// TagAccumulator identifies an Accumulator section in a state payload.
const TagAccumulator = byte(0xA1)

const accumulatorVersion = 1

// Snapshot encodes the accumulator's complete state: dimensionality,
// raw counters, and the accumulated total. The hash mask is derived
// from the dimensionality and is not serialized.
func (a *Accumulator) Snapshot(enc *state.Encoder) {
	enc.Section(TagAccumulator, accumulatorVersion)
	enc.U64s(a.counters)
	enc.U64(a.total)
}

// Restore replaces the accumulator's state with a decoded snapshot. The
// snapshot's dimensionality must match the accumulator's; a restored
// accumulator behaves bit-identically to the one snapshotted. Counters
// decode straight into the accumulator's own array; on error it may
// hold part of the payload, and the next successful Restore overwrites
// all of it.
func (a *Accumulator) Restore(dec *state.Decoder) error {
	dec.Section(TagAccumulator, accumulatorVersion)
	counters := dec.AppendU64s(a.counters[:0])
	total := dec.U64()
	if err := dec.Err(); err != nil {
		return err
	}
	if len(counters) != len(a.counters) {
		return fmt.Errorf("signature: snapshot has %d counters, accumulator has %d", len(counters), len(a.counters))
	}
	a.total = total
	return nil
}
