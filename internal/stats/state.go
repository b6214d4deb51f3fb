package stats

import (
	"fmt"

	"phasekit/internal/state"
)

// EncodeMoments writes the fields Variance, StdDev and CoV read: the
// sample count, mean and sum of squared deviations. Min, Max and Sum
// are not carried, so they are meaningless on a summary restored by
// DecodeMoments, even after further Adds.
func (r *Running) EncodeMoments(enc *state.Encoder) {
	enc.Int(r.n)
	enc.F64(r.mean)
	enc.F64(r.m2)
}

// DecodeMoments replaces r with moments written by EncodeMoments.
// Later Adds continue bit-identically to the summary that was encoded.
func (r *Running) DecodeMoments(dec *state.Decoder) error {
	n := dec.Int()
	mean := dec.F64()
	m2 := dec.F64()
	if err := dec.Err(); err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("%w: running summary count %d", state.ErrCorrupt, n)
	}
	*r = Running{n: n, mean: mean, m2: m2}
	return nil
}

// Encode writes every field of the summary.
func (r *Running) Encode(enc *state.Encoder) {
	r.EncodeMoments(enc)
	enc.F64(r.min)
	enc.F64(r.max)
	enc.F64(r.sum)
}

// Decode replaces r with a summary written by Encode.
func (r *Running) Decode(dec *state.Decoder) error {
	var m Running
	if err := m.DecodeMoments(dec); err != nil {
		return err
	}
	m.min = dec.F64()
	m.max = dec.F64()
	m.sum = dec.F64()
	if err := dec.Err(); err != nil {
		return err
	}
	*r = m
	return nil
}
