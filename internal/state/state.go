// Package state is the shared binary codec behind every layer's
// Snapshot/Restore: a small append-only encoder and a bounds-checked,
// sticky-error decoder over one flat byte slice.
//
// Wire format conventions (versioned per section, little-endian):
//
//   - Every component writes a two-byte section header — a tag byte
//     identifying the component and a version byte starting at 1 — and
//     then its fields. Decoders reject unknown tags and versions newer
//     than they understand, so a payload is never misinterpreted as a
//     different component or a future layout.
//   - Integers are fixed-width little-endian. Signed values travel as
//     two's-complement uint64. Floats travel as IEEE-754 bits, so a
//     decode reproduces the encoded value exactly (bit-determinism).
//   - Strings, byte slices, and all repeated fields carry a uint32
//     element-count prefix. The decoder bounds every count against the
//     bytes actually remaining, so a corrupt length cannot cause an
//     oversized allocation, and truncated payloads fail cleanly.
//
// Decoding never panics: every read is bounds-checked, the first
// failure latches into the decoder's sticky error, and all subsequent
// reads return zero values. Callers check Err (or Finish, which also
// rejects trailing garbage) once at the end of a decode.
package state

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrCorrupt is wrapped by every decode failure: truncation, a bad
// section tag, an unsupported version, or an impossible length prefix.
var ErrCorrupt = errors.New("state: corrupt or truncated payload")

// Encoder appends a payload to a byte buffer. The zero value is ready
// to use; AppendTo reuses a caller-provided buffer.
type Encoder struct {
	buf []byte
}

// AppendTo returns an encoder that appends to buf (which may be nil).
func AppendTo(buf []byte) *Encoder { return &Encoder{buf: buf} }

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// Section writes a component header: tag and version.
func (e *Encoder) Section(tag, version byte) { e.buf = append(e.buf, tag, version) }

// U8 writes one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool writes a bool as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U16 writes a little-endian uint16.
func (e *Encoder) U16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }

// U32 writes a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 writes a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// Int writes an int as two's-complement uint64.
func (e *Encoder) Int(v int) { e.U64(uint64(int64(v))) }

// Uvarint writes an unsigned LEB128 varint (1–10 bytes). Small values
// dominate delta-encoded streams, so hot repeated fields (the WAL's
// branch events) shrink 4–6× versus fixed-width encoding.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Svarint writes a signed value zigzag-mapped onto a Uvarint, so small
// magnitudes of either sign stay one byte.
func (e *Encoder) Svarint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// F64 writes a float64 as its IEEE-754 bits.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// String writes a length-prefixed string.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob writes a length-prefixed byte field — the encode counterpart of
// Decoder.Bytes, for payloads that embed opaque byte strings (snapshot
// blobs in fenced or sequence envelopes) without a string conversion.
func (e *Encoder) Blob(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Raw appends b verbatim, with no length prefix: for splicing in a
// section encoded earlier, which the reader matches with Consume.
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// U16s writes a length-prefixed []uint16.
func (e *Encoder) U16s(v []uint16) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.U16(x)
	}
}

// U64s writes a length-prefixed []uint64.
func (e *Encoder) U64s(v []uint64) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.U64(x)
	}
}

// Ints writes a length-prefixed []int.
func (e *Encoder) Ints(v []int) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.Int(x)
	}
}

// F64s writes a length-prefixed []float64.
func (e *Encoder) F64s(v []float64) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.F64(x)
	}
}

// Decoder reads a payload produced by Encoder. The first failure
// latches into a sticky error; subsequent reads return zero values, so
// decode code reads straight through and checks Err (or Finish) once.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over data.
func NewDecoder(data []byte) *Decoder { return &Decoder{buf: data} }

// Err returns the sticky decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Len returns the number of undecoded bytes remaining.
func (d *Decoder) Len() int { return len(d.buf) - d.off }

// Finish returns the sticky error, or an error if undecoded bytes
// remain (a payload must be consumed exactly).
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.Len() != 0 {
		d.failf("%d trailing bytes", d.Len())
	}
	return d.err
}

// failf latches the first decode failure.
func (d *Decoder) failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s (offset %d)", ErrCorrupt, fmt.Sprintf(format, args...), d.off)
	}
}

// take returns the next n bytes, or nil after latching a truncation
// error.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.Len() < n {
		d.failf("need %d bytes, have %d", n, d.Len())
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Section reads a component header, failing unless the tag matches and
// the version is in [1, maxVersion]. It returns the version so future
// readers can branch on layout revisions.
func (d *Decoder) Section(tag, maxVersion byte) byte {
	b := d.take(2)
	if b == nil {
		return 0
	}
	if b[0] != tag {
		d.failf("section tag %#02x, want %#02x", b[0], tag)
		return 0
	}
	if b[1] == 0 || b[1] > maxVersion {
		d.failf("section %#02x version %d unsupported (max %d)", tag, b[1], maxVersion)
		return 0
	}
	return b[1]
}

// Consume advances past prefix if the undecoded bytes start with it
// and reports whether they did; otherwise nothing is read. It is the
// decode counterpart of Encoder.Raw.
func (d *Decoder) Consume(prefix []byte) bool {
	if d.err != nil || !bytes.HasPrefix(d.buf[d.off:], prefix) {
		return false
	}
	d.off += len(prefix)
	return true
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a bool, failing on any byte other than 0 or 1 so a
// re-encode of decoded state is byte-identical to its source.
func (d *Decoder) Bool() bool {
	v := d.U8()
	if d.err == nil && v > 1 {
		d.failf("bool byte %d", v)
	}
	return v == 1
}

// U16 reads a little-endian uint16.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int reads a two's-complement int.
func (d *Decoder) Int() int { return int(int64(d.U64())) }

// Uvarint reads an unsigned LEB128 varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.failf("truncated or overlong uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Svarint reads a zigzag-mapped signed varint.
func (d *Decoder) Svarint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.failf("truncated or overlong svarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// F64 reads a float64 from its IEEE-754 bits.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Count reads a uint32 element count and bounds it against the bytes
// remaining at elemSize bytes per element. Callers decoding repeated
// fields with compound element layouts (e.g. the wire protocol's event
// records) use it so a corrupt count can never drive an allocation
// larger than the payload that carried it.
func (d *Decoder) Count(elemSize int) int { return d.count(elemSize) }

// count reads a uint32 element count and bounds it against the bytes
// remaining at elemSize bytes per element, so corrupt lengths can never
// drive an oversized allocation.
func (d *Decoder) count(elemSize int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if n > d.Len()/elemSize {
		d.failf("count %d exceeds %d remaining bytes / %d", n, d.Len(), elemSize)
		return 0
	}
	return n
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.count(1)
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Bytes reads a length-prefixed string field as a view into the
// decoder's buffer — no copy, no allocation. The view aliases the
// payload the decoder was built over and is only valid while that
// buffer is; callers that outlive the payload must copy. It is the
// zero-allocation counterpart of String for hot decode paths (the
// ingest server's per-frame stream names).
func (d *Decoder) Bytes() []byte {
	return d.take(d.count(1))
}

// AppendU16s reads a length-prefixed []uint16 and appends it to dst,
// so a restore can decode into storage the receiver already owns.
func (d *Decoder) AppendU16s(dst []uint16) []uint16 {
	n := d.count(2)
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, d.U16())
	}
	return dst
}

// AppendU64s reads a length-prefixed []uint64 and appends it to dst.
func (d *Decoder) AppendU64s(dst []uint64) []uint64 {
	n := d.count(8)
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, d.U64())
	}
	return dst
}

// AppendInts reads a length-prefixed []int and appends it to dst.
func (d *Decoder) AppendInts(dst []int) []int {
	n := d.count(8)
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, d.Int())
	}
	return dst
}

// Reuse returns s emptied, ready to be refilled with n elements by
// append. It keeps s's backing array when that array holds n elements
// without being more than about twice as large, and otherwise returns
// a fresh array of capacity n: restoring into pooled storage then
// allocates nothing in the steady state, yet a buffer that once held a
// much larger payload is not pinned for good. n must already be
// bounded against the payload (see Count).
func Reuse[T any](s []T, n int) []T {
	if c := cap(s); c >= n && c <= 2*n+8 {
		return s[:0]
	}
	return make([]T, 0, n)
}
