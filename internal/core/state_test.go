package core

// Tests for the versioned snapshot/restore path: byte-identical
// round-trips, bit-identical resume, and corrupt-payload rejection.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"phasekit/internal/classifier"
	"phasekit/internal/rng"
	"phasekit/internal/state"
)

// stateEvent is one recorded branch for replayable state tests.
type stateEvent struct {
	pc     uint64
	instrs uint32
	cycles uint64
}

// stateEvents deterministically generates a branch stream that cycles
// through a few code regions (so real phases form, get promoted past
// the Min Counter, split adaptively, and recur) with region-dependent
// cycle costs (so CPI feedback is exercised).
func stateEvents(n int) []stateEvent {
	x := rng.NewXoshiro256(0x57a7e)
	events := make([]stateEvent, n)
	region := uint64(1)
	for i := range events {
		if i%2500 == 0 {
			region = 1 + x.Uint64()%4
		}
		instrs := 50 + uint32(x.Uint64()%100)
		events[i] = stateEvent{
			pc:     region*0x100000 + (x.Uint64()%48)*64,
			instrs: instrs,
			cycles: uint64(instrs) * region,
		}
	}
	return events
}

// feed replays events[from:to] into tr, returning the interval results
// produced.
func feed(tr *Tracker, events []stateEvent, from, to int) []IntervalResult {
	var out []IntervalResult
	for _, ev := range events[from:to] {
		tr.Cycles(ev.cycles)
		if res, ok := tr.Branch(ev.pc, ev.instrs); ok {
			out = append(out, *res)
		}
	}
	return out
}

// richTracker returns a tracker with well-exercised state (multiple
// phases, promotions, predictions) plus the event stream that built it.
func richTracker(t testing.TB) (*Tracker, []stateEvent) {
	t.Helper()
	cfg := testConfig()
	tr := NewTracker("state", cfg)
	events := stateEvents(30_000)
	feed(tr, events, 0, len(events))
	return tr, events
}

// TestSnapshotRoundTripBytes pins the canonical-encoding contract:
// snapshot -> restore -> snapshot is byte-identical.
func TestSnapshotRoundTripBytes(t *testing.T) {
	tr, _ := richTracker(t)
	snap := tr.Snapshot()
	restored := NewTracker("other-name", testConfig())
	if err := restored.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	again := restored.Snapshot()
	if !bytes.Equal(snap, again) {
		t.Fatalf("re-encoded snapshot differs: %d vs %d bytes", len(snap), len(again))
	}
	if !reflect.DeepEqual(tr.Report(), restored.Report()) {
		t.Fatal("restored report differs from source report")
	}
}

// TestResumeBitIdentical is the golden resume test: for every interval
// boundary k, running to k, snapshotting, restoring into a fresh
// tracker, and replaying the remaining input must produce interval
// results and a final report bit-identical to the uninterrupted run.
func TestResumeBitIdentical(t *testing.T) {
	cfg := testConfig()
	events := stateEvents(30_000)

	// Uninterrupted golden run, recording the event index just after
	// each interval boundary.
	golden := NewTracker("resume", cfg)
	var results []IntervalResult
	var boundary []int // boundary[k] = #events consumed when result k appeared
	for i, ev := range events {
		golden.Cycles(ev.cycles)
		if res, ok := golden.Branch(ev.pc, ev.instrs); ok {
			results = append(results, *res)
			boundary = append(boundary, i+1)
		}
	}
	goldenReport := golden.Report()
	if len(results) < 10 {
		t.Fatalf("only %d intervals; stream too short to exercise resume", len(results))
	}

	for k := 0; k < len(results); k++ {
		head := NewTracker("resume", cfg)
		got := feed(head, events, 0, boundary[k])
		if len(got) != k+1 {
			t.Fatalf("k=%d: head run produced %d intervals, want %d", k, len(got), k+1)
		}
		snap := head.Snapshot()

		tail := NewTracker("resume", cfg)
		if err := tail.Restore(snap); err != nil {
			t.Fatalf("k=%d: Restore: %v", k, err)
		}
		rest := feed(tail, events, boundary[k], len(events))
		if want := results[k+1:]; !reflect.DeepEqual(rest, append([]IntervalResult(nil), want...)) {
			t.Fatalf("k=%d: resumed interval results diverge from uninterrupted run", k)
		}
		if !reflect.DeepEqual(tail.Report(), goldenReport) {
			t.Fatalf("k=%d: resumed report diverges from uninterrupted run", k)
		}
	}
}

// TestRestoreMidInterval verifies a snapshot taken between interval
// boundaries (with a partial interval accumulated) resumes exactly.
func TestRestoreMidInterval(t *testing.T) {
	cfg := testConfig()
	events := stateEvents(20_000)
	cut := 10_137 // deliberately not an interval boundary

	golden := NewTracker("mid", cfg)
	all := feed(golden, events, 0, len(events))

	head := NewTracker("mid", cfg)
	got := feed(head, events, 0, cut)
	tail := NewTracker("mid", cfg)
	if err := tail.Restore(head.Snapshot()); err != nil {
		t.Fatal(err)
	}
	got = append(got, feed(tail, events, cut, len(events))...)
	if !reflect.DeepEqual(got, all) {
		t.Fatal("mid-interval resume diverges from uninterrupted run")
	}
	if !reflect.DeepEqual(tail.Report(), golden.Report()) {
		t.Fatal("mid-interval resumed report diverges")
	}
}

// TestRestoreLeavesTrackerUntouchedOnError verifies a failed restore is
// atomic: the tracker keeps producing its original results.
func TestRestoreLeavesTrackerUntouchedOnError(t *testing.T) {
	tr, _ := richTracker(t)
	want := tr.Report()
	snap := tr.Snapshot()
	if err := tr.Restore(snap[:len(snap)-3]); err == nil {
		t.Fatal("truncated restore succeeded")
	}
	if !reflect.DeepEqual(tr.Report(), want) {
		t.Fatal("failed restore mutated the tracker")
	}
}

// TestRestoreRejectsCorrupt table-tests the decode error paths: bad
// magic, truncation at every length, and mismatched configuration all
// return errors — and none of them may panic.
func TestRestoreRejectsCorrupt(t *testing.T) {
	tr, _ := richTracker(t)
	snap := tr.Snapshot()

	t.Run("magic", func(t *testing.T) {
		for _, data := range [][]byte{nil, {}, []byte("PKS"), []byte("XKST"), append([]byte("QKST"), snap[4:]...)} {
			if err := NewTracker("x", testConfig()).Restore(data); err == nil {
				t.Errorf("bad magic %q accepted", data)
			}
		}
	})

	t.Run("truncated", func(t *testing.T) {
		for n := 0; n < len(snap); n++ {
			err := NewTracker("x", testConfig()).Restore(snap[:n])
			if err == nil {
				t.Fatalf("prefix of %d/%d bytes accepted", n, len(snap))
			}
			if n >= 4 && !errors.Is(err, state.ErrCorrupt) {
				t.Fatalf("prefix %d: error %v does not wrap ErrCorrupt", n, err)
			}
		}
	})

	t.Run("trailing", func(t *testing.T) {
		if err := NewTracker("x", testConfig()).Restore(append(append([]byte(nil), snap...), 0)); err == nil {
			t.Error("trailing byte accepted")
		}
	})

	t.Run("bitflips", func(t *testing.T) {
		// Flipping a bit may still yield a decodable payload (e.g. in a
		// counter value) — the contract is that decoding never panics
		// and the tracker stays usable either way.
		data := append([]byte(nil), snap...)
		for i := range data {
			data[i] ^= 1 << uint(i%8)
			target := NewTracker("x", testConfig())
			_ = target.Restore(data)
			target.Branch(0x400000, 50)
			data[i] ^= 1 << uint(i%8)
		}
	})

	t.Run("next-id-past-summaries", func(t *testing.T) {
		// The classifier section starts with its tag, version, dims
		// and clock; the next phase ID follows. A larger next ID is
		// well-formed but names IDs no summary covers: accepted, it
		// would grow the summaries to it at the next new phase.
		at := bytes.Index(snap, []byte{classifier.TagClassifier, 1, 16, 0, 0, 0, 0, 0, 0, 0})
		if at < 0 {
			t.Fatal("classifier section not found")
		}
		data := append([]byte(nil), snap...)
		id := data[at+2+8+8:]
		binary.LittleEndian.PutUint64(id, binary.LittleEndian.Uint64(id)+1)
		if err := NewTracker("x", testConfig()).Restore(data); !errors.Is(err, state.ErrCorrupt) {
			t.Errorf("next phase ID one past the summaries: err = %v, want ErrCorrupt", err)
		}
		binary.LittleEndian.PutUint64(id, 1<<40)
		if err := RestoreInto(NewTracker("x", testConfig()), data); !errors.Is(err, state.ErrCorrupt) {
			t.Errorf("next phase ID 2^40: err = %v, want ErrCorrupt", err)
		}
	})

	t.Run("config-mismatch", func(t *testing.T) {
		other := testConfig()
		other.Dims = 32
		if err := NewTracker("x", other).Restore(snap); err == nil {
			t.Error("snapshot restored into a different configuration")
		}
	})
}

// TestBranchZeroAllocAfterRestore pins that restoring does not
// reintroduce allocations on the Branch hot path (e.g. via nil scratch
// buffers that would otherwise be lazily grown per call).
func TestBranchZeroAllocAfterRestore(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IntervalInstrs = 1 << 40 // never reached during the measurement
	src := NewTracker("alloc", cfg)
	x := rng.NewXoshiro256(7)
	for i := 0; i < 500; i++ {
		src.Branch(x.Uint64(), 3)
	}
	tr := NewTracker("alloc", cfg)
	if err := tr.Restore(src.Snapshot()); err != nil {
		t.Fatal(err)
	}
	pcs := make([]uint64, 256)
	for i := range pcs {
		pcs[i] = x.Uint64()
	}
	i := 0
	allocs := testing.AllocsPerRun(10000, func() {
		if _, ok := tr.Branch(pcs[i%len(pcs)], 3); ok {
			t.Fatal("interval boundary crossed mid-measurement")
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("restored Tracker.Branch allocated %.1f times per call, want 0", allocs)
	}
}

// FuzzSnapshotRoundTrip fuzzes Restore with arbitrary bytes: it must
// never panic, and any payload it accepts must re-encode byte-identical
// (the canonical-form contract behind incremental checkpoint dedup).
func FuzzSnapshotRoundTrip(f *testing.F) {
	cfg := testConfig()
	seed := NewTracker("fuzz", cfg)
	events := stateEvents(8_000)
	step := len(events) / 4
	for i := 0; i < len(events); i += step {
		feed(seed, events, i, i+step)
		f.Add(seed.Snapshot())
	}
	f.Add([]byte{})
	f.Add([]byte("PKST"))
	f.Add(append([]byte("PKST"), 0xF1, 0x01))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr := NewTracker("fuzz", cfg)
		if err := tr.Restore(data); err != nil {
			return // rejected; all that matters is it did not panic
		}
		if got := tr.Snapshot(); !bytes.Equal(got, data) {
			t.Fatalf("accepted payload re-encodes differently: %d vs %d bytes", len(got), len(data))
		}
		// An accepted payload must leave the tracker fully usable.
		tr.Cycles(100)
		tr.Branch(0x400040, 60)
		tr.Flush()
		tr.Report()
	})
}
