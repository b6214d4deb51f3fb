package stats

import (
	"fmt"

	"phasekit/internal/state"
)

// MomentsSize is the encoded size of a summary's moments: the sample
// count, mean and sum of squared deviations, 8 bytes each.
const MomentsSize = 24

// summarySize is the encoded size of a whole summary: its moments,
// then min, max and sum.
const summarySize = MomentsSize + 24

// EncodeMoments writes the fields Variance, StdDev and CoV read: the
// sample count, mean and sum of squared deviations. Min, Max and Sum
// are not carried, so they are meaningless on a summary restored by
// DecodeMoments, even after further Adds.
func (r *Running) EncodeMoments(enc *state.Encoder) { r.PutMoments(enc.Rec(MomentsSize)) }

// PutMoments writes the moments EncodeMoments writes into the first
// MomentsSize bytes of rec, so a table of summaries encodes as one
// block of records.
func (r *Running) PutMoments(rec state.Rec) {
	rec.PutInt(0, r.n)
	rec.PutF64(8, r.mean)
	rec.PutF64(16, r.m2)
}

// DecodeMoments replaces r with moments written by EncodeMoments.
// Later Adds continue bit-identically to the summary that was encoded.
func (r *Running) DecodeMoments(dec *state.Decoder) error {
	rec, err := dec.Rec(MomentsSize)
	if err != nil {
		return err
	}
	return r.ReadMoments(rec)
}

// ReadMoments replaces r with the moments PutMoments wrote into rec,
// refusing a negative count.
func (r *Running) ReadMoments(rec state.Rec) error {
	n := rec.Int(0)
	if n < 0 {
		return fmt.Errorf("%w: running summary count %d", state.ErrCorrupt, n)
	}
	*r = Running{n: n, mean: rec.F64(8), m2: rec.F64(16)}
	return nil
}

// Encode writes every field of the summary.
func (r *Running) Encode(enc *state.Encoder) {
	rec := enc.Rec(summarySize)
	r.PutMoments(rec)
	rec.PutF64(MomentsSize, r.min)
	rec.PutF64(MomentsSize+8, r.max)
	rec.PutF64(MomentsSize+16, r.sum)
}

// Decode replaces r with a summary written by Encode.
func (r *Running) Decode(dec *state.Decoder) error {
	rec, err := dec.Rec(summarySize)
	if err != nil {
		return err
	}
	var m Running
	if err := m.ReadMoments(rec); err != nil {
		return err
	}
	m.min = rec.F64(MomentsSize)
	m.max = rec.F64(MomentsSize + 8)
	m.sum = rec.F64(MomentsSize + 16)
	*r = m
	return nil
}
