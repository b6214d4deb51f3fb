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
//
// Tables of fixed-width records travel as blocks: Decoder.Block checks
// a whole run of records against the payload once and returns a view
// of it, and Encoder.Block reserves a run's bytes to be filled in
// place. Each record's fields are read and written at fixed offsets,
// with no per-field check that can fail and no cursor to carry from
// one field to the next. A block is only a way of reading and writing
// the records: its bytes are exactly those of the same fields written
// one at a time by the Encoder's field writers.
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

// Block extends the payload by n records of size bytes each and
// returns them, to be filled in place. The caller must write every
// field of every record: the reserved bytes are not cleared first.
func (e *Encoder) Block(n, size int) Block {
	k, l := n*size, len(e.buf)
	if cap(e.buf)-l < k {
		e.buf = slices.Grow(e.buf, k)
	}
	e.buf = e.buf[:l+k]
	return Block(e.buf[l:])
}

// Rec extends the payload by one size-byte record and returns it, to
// be filled in place like a one-record Block.
func (e *Encoder) Rec(size int) Rec { return Rec(e.Block(1, size)) }

// Block is a run of fixed-width records: reserved by Encoder.Block, or
// a view that Decoder.Block has bounds-checked as a whole.
type Block []byte

// Rec returns record i of a block of size-byte records.
func (b Block) Rec(i, size int) Rec { return Rec(b[i*size:][:size]) }

// Rec is one fixed-width record of a block. Its accessors read and
// write a field at a byte offset within the record, little-endian as
// the Encoder writes it; none can fail on a record of a checked block.
type Rec []byte

// U8 reads the byte at off.
func (r Rec) U8(off int) uint8 { return r[off] }

// U32 reads the uint32 at off.
func (r Rec) U32(off int) uint32 { return binary.LittleEndian.Uint32(r[off:]) }

// U64 reads the uint64 at off.
func (r Rec) U64(off int) uint64 { return binary.LittleEndian.Uint64(r[off:]) }

// Int reads the two's-complement int at off.
func (r Rec) Int(off int) int { return int(int64(r.U64(off))) }

// F64 reads the float64 at off from its IEEE-754 bits.
func (r Rec) F64(off int) float64 { return math.Float64frombits(r.U64(off)) }

// PutU8 writes v at off.
func (r Rec) PutU8(off int, v uint8) { r[off] = v }

// PutU32 writes v at off.
func (r Rec) PutU32(off int, v uint32) { binary.LittleEndian.PutUint32(r[off:], v) }

// PutU64 writes v at off.
func (r Rec) PutU64(off int, v uint64) { binary.LittleEndian.PutUint64(r[off:], v) }

// PutInt writes v at off as two's-complement uint64.
func (r Rec) PutInt(off int, v int) { r.PutU64(off, uint64(int64(v))) }

// PutF64 writes v at off as its IEEE-754 bits.
func (r Rec) PutF64(off int, v float64) { r.PutU64(off, math.Float64bits(v)) }

// U16s writes a length-prefixed []uint16.
func (e *Encoder) U16s(v []uint16) {
	e.U32(uint32(len(v)))
	b := e.Block(len(v), 2)
	for _, x := range v {
		binary.LittleEndian.PutUint16(b, x)
		b = b[2:]
	}
}

// U64s writes a length-prefixed []uint64.
func (e *Encoder) U64s(v []uint64) {
	e.U32(uint32(len(v)))
	b := e.Block(len(v), 8)
	for _, x := range v {
		binary.LittleEndian.PutUint64(b, x)
		b = b[8:]
	}
}

// Ints writes a length-prefixed []int.
func (e *Encoder) Ints(v []int) {
	e.U32(uint32(len(v)))
	b := e.Block(len(v), 8)
	for _, x := range v {
		binary.LittleEndian.PutUint64(b, uint64(int64(x)))
		b = b[8:]
	}
}

// F64s writes a length-prefixed []float64.
func (e *Encoder) F64s(v []float64) {
	e.U32(uint32(len(v)))
	b := e.Block(len(v), 8)
	for _, x := range v {
		binary.LittleEndian.PutUint64(b, math.Float64bits(x))
		b = b[8:]
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
// error. The failure is reported out of line (short), leaving one
// comparison on the success path.
func (d *Decoder) take(n int) []byte {
	if d.err == nil && uint(n) <= uint(len(d.buf)-d.off) {
		b := d.buf[d.off : d.off+n]
		d.off += n
		return b
	}
	d.short(n)
	return nil
}

// short latches a read of n bytes that the payload cannot satisfy
// (unless an earlier failure is already latched).
//
//go:noinline
func (d *Decoder) short(n int) {
	d.failf("need %d bytes, have %d", n, d.Len())
}

// Block checks once that the payload holds n records of size bytes
// each and returns a view of them, advancing past the run. A run that
// does not fit, or a negative n, latches ErrCorrupt at the run's
// offset; after any failure Block returns the sticky error and an
// empty block, so a corrupt count never sizes storage or reaches a
// record read.
func (d *Decoder) Block(n, size int) (Block, error) {
	// Record widths are small, so k cannot overflow once n is at most a
	// uint32 count; a larger or negative n fails that test first.
	if k := n * size; d.err == nil && uint(n) <= math.MaxUint32 && k <= d.Len() {
		b := d.buf[d.off : d.off+k : d.off+k]
		d.off += k
		return Block(b), nil
	}
	d.blockShort(n, size)
	return nil, d.err
}

// Rec reads one size-byte record, checked like a one-record Block.
func (d *Decoder) Rec(size int) (Rec, error) {
	b, err := d.Block(1, size)
	return Rec(b), err
}

// blockShort latches a run of n size-byte records that the payload
// cannot hold.
//
//go:noinline
func (d *Decoder) blockShort(n, size int) {
	d.failf("block of %d records x %d bytes exceeds %d remaining bytes", n, size, d.Len())
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
// so a restore can decode into storage the receiver already owns. On
// failure dst is returned unchanged.
func (d *Decoder) AppendU16s(dst []uint16) []uint16 {
	n := d.count(2)
	b, err := d.Block(n, 2)
	if err != nil {
		return dst
	}
	dst = slices.Grow(dst, n)
	for range n {
		dst = append(dst, binary.LittleEndian.Uint16(b))
		b = b[2:]
	}
	return dst
}

// AppendU64s reads a length-prefixed []uint64 and appends it to dst.
func (d *Decoder) AppendU64s(dst []uint64) []uint64 {
	n := d.count(8)
	b, err := d.Block(n, 8)
	if err != nil {
		return dst
	}
	dst = slices.Grow(dst, n)
	for range n {
		dst = append(dst, binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	return dst
}

// AppendInts reads a length-prefixed []int and appends it to dst.
func (d *Decoder) AppendInts(dst []int) []int {
	n := d.count(8)
	b, err := d.Block(n, 8)
	if err != nil {
		return dst
	}
	dst = slices.Grow(dst, n)
	for range n {
		dst = append(dst, int(int64(binary.LittleEndian.Uint64(b))))
		b = b[8:]
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
