package state

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"phasekit/internal/rng"
)

// encodeSample writes one value of every codec type.
func encodeSample() []byte {
	enc := AppendTo(nil)
	enc.Section(0xAB, 2)
	enc.U8(7)
	enc.Bool(true)
	enc.Bool(false)
	enc.U16(0xBEEF)
	enc.U32(0xDEADBEEF)
	enc.U64(1<<63 | 12345)
	enc.Int(-42)
	enc.F64(math.Pi)
	enc.F64(math.Inf(-1))
	enc.String("hello, wörld")
	enc.String("")
	enc.U16s([]uint16{1, 2, 65535})
	enc.U64s([]uint64{0, math.MaxUint64})
	enc.Ints([]int{-1, 0, 1 << 40})
	return enc.Bytes()
}

func decodeSample(t *testing.T, data []byte) {
	t.Helper()
	dec := NewDecoder(data)
	if v := dec.Section(0xAB, 2); v != 2 {
		t.Errorf("section version = %d, want 2", v)
	}
	if got := dec.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if !dec.Bool() || dec.Bool() {
		t.Error("bools did not round-trip")
	}
	if got := dec.U16(); got != 0xBEEF {
		t.Errorf("U16 = %#x", got)
	}
	if got := dec.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x", got)
	}
	if got := dec.U64(); got != 1<<63|12345 {
		t.Errorf("U64 = %d", got)
	}
	if got := dec.Int(); got != -42 {
		t.Errorf("Int = %d", got)
	}
	if got := dec.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := dec.F64(); !math.IsInf(got, -1) {
		t.Errorf("F64 inf = %v", got)
	}
	if got := dec.String(); got != "hello, wörld" {
		t.Errorf("String = %q", got)
	}
	if got := dec.String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	if got := dec.AppendU16s(nil); len(got) != 3 || got[2] != 65535 {
		t.Errorf("U16s = %v", got)
	}
	if got := dec.AppendU64s(nil); len(got) != 2 || got[1] != math.MaxUint64 {
		t.Errorf("U64s = %v", got)
	}
	if got := dec.AppendInts(nil); len(got) != 3 || got[0] != -1 || got[2] != 1<<40 {
		t.Errorf("Ints = %v", got)
	}
	if err := dec.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	decodeSample(t, encodeSample())
}

// TestDecoderTruncation verifies every strict prefix of a payload fails
// with ErrCorrupt instead of succeeding or panicking.
func TestDecoderTruncation(t *testing.T) {
	data := encodeSample()
	for n := 0; n < len(data); n++ {
		dec := NewDecoder(data[:n])
		dec.Section(0xAB, 2)
		dec.U8()
		dec.Bool()
		dec.Bool()
		dec.U16()
		dec.U32()
		dec.U64()
		dec.Int()
		dec.F64()
		dec.F64()
		_ = dec.String()
		_ = dec.String()
		dec.AppendU16s(nil)
		dec.AppendU64s(nil)
		dec.AppendInts(nil)
		if err := dec.Finish(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("prefix %d/%d: err = %v, want ErrCorrupt", n, len(data), err)
		}
	}
}

func TestDecoderStickyError(t *testing.T) {
	dec := NewDecoder([]byte{0x01})
	dec.U64() // fails: needs 8 bytes
	first := dec.Err()
	if first == nil {
		t.Fatal("short U64 did not latch an error")
	}
	dec.U32()
	_ = dec.String()
	if dec.Err() != first {
		t.Error("later reads replaced the first error")
	}
	if got := dec.U64(); got != 0 {
		t.Errorf("read after error = %d, want 0", got)
	}
}

func TestDecoderRejectsTrailingBytes(t *testing.T) {
	enc := AppendTo(nil)
	enc.U8(1)
	dec := NewDecoder(append(enc.Bytes(), 0x00))
	dec.U8()
	if err := dec.Finish(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing byte: err = %v, want ErrCorrupt", err)
	}
}

func TestDecoderSectionMismatch(t *testing.T) {
	enc := AppendTo(nil)
	enc.Section(0x10, 1)
	wrongTag := NewDecoder(enc.Bytes())
	wrongTag.Section(0x20, 1)
	if !errors.Is(wrongTag.Err(), ErrCorrupt) {
		t.Error("wrong tag accepted")
	}
	futureVersion := NewDecoder(enc.Bytes())
	futureVersion.Section(0x10, 0) // decoder only understands... nothing
	if !errors.Is(futureVersion.Err(), ErrCorrupt) {
		t.Error("future version accepted")
	}
	enc2 := AppendTo(nil)
	enc2.Section(0x10, 3)
	tooNew := NewDecoder(enc2.Bytes())
	tooNew.Section(0x10, 2)
	if !errors.Is(tooNew.Err(), ErrCorrupt) {
		t.Error("version 3 accepted by a max-2 reader")
	}
}

// TestDecoderBadBool verifies the canonical-encoding rule: a bool byte
// other than 0/1 is corrupt (it would break byte-identical re-encodes).
func TestDecoderBadBool(t *testing.T) {
	dec := NewDecoder([]byte{0x02})
	dec.Bool()
	if !errors.Is(dec.Err(), ErrCorrupt) {
		t.Error("bool byte 2 accepted")
	}
}

// TestDecoderHugeCount verifies a corrupt length prefix fails instead
// of driving an oversized allocation.
func TestDecoderHugeCount(t *testing.T) {
	enc := AppendTo(nil)
	enc.U32(math.MaxUint32) // claims 4 billion elements, provides none
	for name, read := range map[string]func(*Decoder){
		"string": func(d *Decoder) { _ = d.String() },
		"u16s":   func(d *Decoder) { d.AppendU16s(nil) },
		"u64s":   func(d *Decoder) { d.AppendU64s(nil) },
		"ints":   func(d *Decoder) { d.AppendInts(nil) },
	} {
		dec := NewDecoder(enc.Bytes())
		read(dec)
		if !errors.Is(dec.Err(), ErrCorrupt) {
			t.Errorf("%s: huge count accepted", name)
		}
	}
}

func TestEncoderAppendTo(t *testing.T) {
	prefix := []byte{0xAA, 0xBB}
	enc := AppendTo(prefix)
	enc.U16(0x1234)
	got := enc.Bytes()
	if len(got) != 4 || got[0] != 0xAA || got[1] != 0xBB {
		t.Errorf("AppendTo did not preserve prefix: %x", got)
	}
}

func TestEmptySlicesDecodeNil(t *testing.T) {
	enc := AppendTo(nil)
	enc.U64s(nil)
	enc.Ints([]int{})
	dec := NewDecoder(enc.Bytes())
	if got := dec.AppendU64s(nil); got != nil {
		t.Errorf("empty U64s = %v, want nil", got)
	}
	if got := dec.AppendInts(nil); got != nil {
		t.Errorf("empty Ints = %v, want nil", got)
	}
	if err := dec.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendReadersDecodeInPlace: the slice readers append into the
// caller's storage, so a restore that hands them a reused slice decodes
// without allocating.
func TestAppendReadersDecodeInPlace(t *testing.T) {
	enc := AppendTo(nil)
	enc.U16s([]uint16{7, 8})
	enc.U64s([]uint64{1, 2, 3})
	dec := NewDecoder(enc.Bytes())
	u16 := make([]uint16, 1, 4)
	if got := dec.AppendU16s(u16); len(got) != 3 || &got[0] != &u16[0] || got[1] != 7 || got[2] != 8 {
		t.Errorf("AppendU16s = %v, want [0 7 8] in the caller's array", got)
	}
	u64 := make([]uint64, 0, 3)
	if got := dec.AppendU64s(u64); len(got) != 3 || &got[0] != &u64[:1][0] || got[2] != 3 {
		t.Errorf("AppendU64s = %v, want [1 2 3] in the caller's array", got)
	}
	if err := dec.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestReuseBoundsRetainedCapacity: Reuse keeps a backing array that
// fits the payload without being more than about twice its size, and
// replaces one that is too small or far too large.
func TestReuseBoundsRetainedCapacity(t *testing.T) {
	fits := make([]int, 5, 16)
	if got := Reuse(fits, 8); len(got) != 0 || cap(got) != 16 || &got[:1][0] != &fits[0] {
		t.Errorf("Reuse(cap 16, 8): len %d cap %d, want the same array emptied", len(got), cap(got))
	}
	if got := Reuse(make([]int, 0, 4), 8); cap(got) < 8 {
		t.Errorf("Reuse(cap 4, 8): cap %d, want >= 8", cap(got))
	}
	if got := Reuse(make([]int, 0, 400), 20); cap(got) != 20 {
		t.Errorf("Reuse(cap 400, 20): cap %d, want a fresh array of 20", cap(got))
	}
	if got := Reuse([]int(nil), 0); got != nil {
		t.Errorf("Reuse(nil, 0) = %v, want nil", got)
	}
}

// TestBlockTruncationLatchesAtBlockOffset: a run of records that the
// payload holds only part of fails as a whole, at the offset where the
// run starts, reads nothing, and stays failed for every later read.
func TestBlockTruncationLatchesAtBlockOffset(t *testing.T) {
	enc := AppendTo(nil)
	enc.U32(3)
	for i := range 3 {
		enc.U64(uint64(i))
		enc.U32(uint32(i))
	}
	full := enc.Bytes()
	for cut := 4; cut < len(full); cut++ {
		dec := NewDecoder(full[:cut])
		n := int(dec.U32())
		blk, err := dec.Block(n, 12)
		if !errors.Is(err, ErrCorrupt) || blk != nil {
			t.Fatalf("cut %d: Block = %d bytes, %v; want no block and ErrCorrupt", cut, len(blk), err)
		}
		if !strings.Contains(err.Error(), "(offset 4)") {
			t.Fatalf("cut %d: %v, want the failure at the block's offset 4", cut, err)
		}
		if dec.Len() != cut-4 {
			t.Fatalf("cut %d: a failed block consumed %d bytes", cut, cut-4-dec.Len())
		}
		if _, again := dec.Block(0, 12); again != err {
			t.Fatalf("cut %d: a later empty block returned %v, want the sticky %v", cut, again, err)
		}
		if got := dec.U8(); got != 0 || dec.Err() != err {
			t.Fatalf("cut %d: read after the failure = %d, err %v", cut, got, dec.Err())
		}
	}
	dec := NewDecoder(full)
	blk, err := dec.Block(int(dec.U32()), 12)
	if err != nil || len(blk) != 36 {
		t.Fatalf("whole payload: Block = %d bytes, %v", len(blk), err)
	}
	if r := blk.Rec(2, 12); r.U64(0) != 2 || r.U32(8) != 2 {
		t.Errorf("record 2 = (%d, %d), want (2, 2)", r.U64(0), r.U32(8))
	}
	if err := dec.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestBlockCountNeverSizesStorage: a count larger than the payload
// could hold fails before any storage is sized, for Block itself and
// for every counted-slice reader built on it.
func TestBlockCountNeverSizesStorage(t *testing.T) {
	for _, n := range []int{-1, 2, 1 << 40, math.MaxInt / 2} {
		dec := NewDecoder(make([]byte, 15))
		if blk, err := dec.Block(n, 8); !errors.Is(err, ErrCorrupt) || blk != nil {
			t.Errorf("Block(%d, 8) over 15 bytes = %d bytes, %v; want ErrCorrupt", n, len(blk), err)
		}
	}
	enc := AppendTo(nil)
	enc.U32(math.MaxUint32)
	enc.U64(0)
	for name, read := range map[string]func(*Decoder) int{
		"u16s": func(d *Decoder) int { return cap(d.AppendU16s(nil)) },
		"u64s": func(d *Decoder) int { return cap(d.AppendU64s(nil)) },
		"ints": func(d *Decoder) int { return cap(d.AppendInts(nil)) },
	} {
		dec := NewDecoder(enc.Bytes())
		if c := read(dec); c != 0 || !errors.Is(dec.Err(), ErrCorrupt) {
			t.Errorf("%s: huge count sized %d elements, err %v", name, c, dec.Err())
		}
	}
}

// TestBlockMatchesFieldWriters is the differential check behind the
// block rule: records filled in a reserved block are byte-identical to
// the same values written field by field, and read back unchanged.
func TestBlockMatchesFieldWriters(t *testing.T) {
	type record struct {
		u8  uint8
		u32 uint32
		u64 uint64
		i   int
		f   float64
	}
	const size = 1 + 4 + 8 + 8 + 8
	x := rng.NewXoshiro256(0xb10c)
	for round := range 50 {
		recs := make([]record, round)
		for i := range recs {
			recs[i] = record{
				u8: uint8(x.Uint64()), u32: uint32(x.Uint64()),
				u64: x.Uint64(), i: int(int64(x.Uint64())), f: math.Float64frombits(x.Uint64()),
			}
		}
		fields := AppendTo([]byte{0xEE})
		for _, r := range recs {
			fields.U8(r.u8)
			fields.U32(r.u32)
			fields.U64(r.u64)
			fields.Int(r.i)
			fields.F64(r.f)
		}
		// Fill a reused, dirty buffer, as the fleet does.
		blocks := AppendTo(bytes.Repeat([]byte{0xEE}, 1+size*round)[:1])
		blk := blocks.Block(len(recs), size)
		for i, r := range recs {
			rec := blk.Rec(i, size)
			rec.PutU8(0, r.u8)
			rec.PutU32(1, r.u32)
			rec.PutU64(5, r.u64)
			rec.PutInt(13, r.i)
			rec.PutF64(21, r.f)
		}
		if !bytes.Equal(blocks.Bytes(), fields.Bytes()) {
			t.Fatalf("round %d: block bytes differ from field-by-field bytes", round)
		}
		dec := NewDecoder(fields.Bytes()[1:])
		got, err := dec.Block(len(recs), size)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range recs {
			rec := got.Rec(i, size)
			r := record{rec.U8(0), rec.U32(1), rec.U64(5), rec.Int(13), rec.F64(21)}
			if math.Float64bits(r.f) != math.Float64bits(want.f) || r.u8 != want.u8 ||
				r.u32 != want.u32 || r.u64 != want.u64 || r.i != want.i {
				t.Fatalf("round %d record %d: read %+v, wrote %+v", round, i, r, want)
			}
		}
		if err := dec.Finish(); err != nil {
			t.Fatal(err)
		}
	}
}
