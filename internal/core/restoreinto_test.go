package core

// Tests for RestoreInto, the in-place restore behind the fleet's pooled
// tracker shells, and for retiring the confidence counters of phase IDs
// that can never recur. A shell that last held any other stream —
// larger, smaller, or left half-decoded by a failed restore — must
// continue bit-identically to a fresh tracker restored from the same
// snapshot.

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"phasekit/internal/classifier"
	"phasekit/internal/predictor"
	"phasekit/internal/rng"
	"phasekit/internal/state"
)

// churnEvents generates a branch stream that dwells in one of regions
// code regions for dwell events at a time, visiting them in a seeded
// order. Each region has its own PC footprint and CPI, so with more
// regions than signature-table entries the table keeps evicting phases
// and minting new IDs when they return.
func churnEvents(seed uint64, regions, dwell, n int) []stateEvent {
	x := rng.NewXoshiro256(seed)
	events := make([]stateEvent, n)
	region := uint64(1)
	for i := range events {
		if i%dwell == 0 {
			region = 1 + x.Uint64()%uint64(regions)
		}
		width := 4 + region%29 // PCs in the region's footprint
		instrs := 50 + uint32(x.Uint64()%100)
		events[i] = stateEvent{
			pc:     region*0x100000 + (x.Uint64()%width)*(64+region%7*8),
			instrs: instrs,
			cycles: uint64(instrs) * (1 + region%5),
		}
	}
	return events
}

// churnConfig is testConfig with 10k-instruction intervals (about 100
// events each), so a churn stream mints hundreds of phase IDs quickly.
func churnConfig() Config {
	cfg := testConfig()
	cfg.IntervalInstrs = 10_000
	return cfg
}

// restoreIntoCase is a snapshot plus the events that continue it.
type restoreIntoCase struct {
	snap []byte
	tail []stateEvent
}

// newRestoreIntoCase runs events[:cut] into a tracker and snapshots it
// (mid-interval when cut is not a boundary); events[cut:] continue it.
func newRestoreIntoCase(name string, cfg Config, events []stateEvent, cut int) restoreIntoCase {
	tr := NewTracker(name, cfg)
	feed(tr, events, 0, cut)
	return restoreIntoCase{snap: tr.Snapshot(), tail: events[cut:]}
}

// requireSameTracker fails unless a and b are indistinguishable through
// every observable: snapshot bytes, Report and index diagnostics.
func requireSameTracker(t testing.TB, what string, got, want *Tracker) {
	t.Helper()
	if g, w := got.Snapshot(), want.Snapshot(); !bytes.Equal(g, w) {
		t.Fatalf("%s: snapshot bytes differ (%d vs %d bytes)", what, len(g), len(w))
	}
	// Reports compare in their printed form, where NaN (a fuzzed
	// payload can carry NaN moments) equals itself.
	if g, w := fmt.Sprintf("%#v", got.Report()), fmt.Sprintf("%#v", want.Report()); g != w {
		t.Fatalf("%s: report differs:\n got %s\nwant %s", what, g, w)
	}
	if g, w := got.ClassifierIndexStats(), want.ClassifierIndexStats(); g != w {
		t.Fatalf("%s: index stats differ: got %+v want %+v", what, g, w)
	}
}

// checkRestoreInto restores c into shell in place and into a fresh
// tracker, then requires both to be identical right after the restore,
// along the whole continuation (every IntervalResult), after Flush, and
// in their final snapshot bytes.
func checkRestoreInto(t testing.TB, what string, cfg Config, shell *Tracker, c restoreIntoCase) {
	t.Helper()
	fresh := NewTracker("fresh", cfg)
	if err := fresh.Restore(c.snap); err != nil {
		t.Fatalf("%s: fresh Restore: %v", what, err)
	}
	if err := RestoreInto(shell, c.snap); err != nil {
		t.Fatalf("%s: RestoreInto: %v", what, err)
	}
	requireSameTracker(t, what+" after restore", shell, fresh)
	got := feed(shell, c.tail, 0, len(c.tail))
	want := feed(fresh, c.tail, 0, len(c.tail))
	if len(want) == 0 {
		t.Fatalf("%s: continuation closes no interval", what)
	}
	if !reflect.DeepEqual(got, want) {
		for i := range want {
			if i >= len(got) || !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: continuation diverges at interval %d of %d", what, i, len(want))
			}
		}
		t.Fatalf("%s: continuation closed %d intervals, want %d", what, len(got), len(want))
	}
	gf, gok := shell.Flush()
	wf, wok := fresh.Flush()
	if gok != wok || (gok && !reflect.DeepEqual(*gf, *wf)) {
		t.Fatalf("%s: Flush differs", what)
	}
	requireSameTracker(t, what+" after continuation", shell, fresh)
}

// TestRestoreIntoDirtyShell is the differential test behind the fleet's
// shell pool: restoring into a shell that last held another stream — a
// larger one with more phase IDs and table state, a smaller one, or a
// shell itself rehydrated in place — is indistinguishable from
// restoring into a fresh tracker.
func TestRestoreIntoDirtyShell(t *testing.T) {
	cfg := churnConfig()
	big := churnEvents(0xb16, 120, 1_300, 240_000)
	small := stateEvents(30_000)
	a := newRestoreIntoCase("big", cfg, big, 150_017)
	b := newRestoreIntoCase("small", cfg, small, 12_345)

	// A live shell that tracked the larger stream itself.
	shell := NewTracker("shell", cfg)
	feed(shell, big, 0, len(big))
	checkRestoreInto(t, "big live shell <- small", cfg, shell, b)

	// The shell now holds the small stream; restore the larger one over
	// it (storage must grow), then the small one again (storage that
	// was grown must be refilled exactly).
	checkRestoreInto(t, "small shell <- big", cfg, shell, a)
	checkRestoreInto(t, "big restored shell <- small", cfg, shell, b)

	// A shell restored from a snapshot without running since.
	shell = NewTracker("shell", cfg)
	if err := RestoreInto(shell, a.snap); err != nil {
		t.Fatal(err)
	}
	checkRestoreInto(t, "big idle shell <- small", cfg, shell, b)

	// The same snapshot again after running a little past it: scan
	// state the run left behind (the MRU seed above all) points at rows
	// the restored table also holds, where a stale value would show.
	if err := RestoreInto(shell, b.snap); err != nil {
		t.Fatal(err)
	}
	feed(shell, b.tail, 0, 150)
	checkRestoreInto(t, "shell past small <- small", cfg, shell, b)

	// A snapshot of a tracker that has seen no events at all.
	empty := newRestoreIntoCase("small", cfg, small, 0)
	feed(shell, big, 0, 50_000)
	checkRestoreInto(t, "dirty shell <- empty", cfg, shell, empty)
}

// TestRestoreIntoAfterFailedRestore: a failed in-place restore leaves a
// shell holding part of the payload, and the next successful restore
// must still overwrite every field. Truncations cut the decode at every
// depth, over a shell that held a larger stream (a prefix of the
// smaller snapshot) and over one that held a smaller stream (a prefix
// of the larger snapshot, which grows storage before failing).
func TestRestoreIntoAfterFailedRestore(t *testing.T) {
	cfg := churnConfig()
	big := churnEvents(0xfa11, 100, 1_300, 120_000)
	small := stateEvents(20_000)
	a := newRestoreIntoCase("big", cfg, big, 90_001)
	b := newRestoreIntoCase("small", cfg, small, 10_009)
	short := func(c restoreIntoCase) restoreIntoCase {
		return restoreIntoCase{snap: c.snap, tail: c.tail[:min(len(c.tail), 3_000)]}
	}
	for _, tc := range []struct {
		name           string
		held, bad, dst restoreIntoCase
	}{
		{"big shell, small prefix", a, b, b},
		{"small shell, big prefix", b, a, b},
		{"small shell, big prefix, big", b, a, a},
	} {
		step := len(tc.bad.snap)/97 + 1
		for cut := 0; cut < len(tc.bad.snap); cut += step {
			shell := NewTracker("shell", cfg)
			if err := RestoreInto(shell, tc.held.snap); err != nil {
				t.Fatal(err)
			}
			feed(shell, tc.held.tail, 0, 2_000)
			if err := RestoreInto(shell, tc.bad.snap[:cut]); err == nil {
				t.Fatalf("%s: %d-byte prefix accepted", tc.name, cut)
			}
			checkRestoreInto(t, tc.name, cfg, shell, short(tc.dst))
		}
	}
	// Bit flips can fail late in the decode, after most tables are
	// already overwritten, or be accepted; either way the shell must
	// come back exact.
	shell := NewTracker("shell", cfg)
	flipped := append([]byte(nil), a.snap...)
	for i := 0; i < len(flipped); i += len(flipped)/61 + 1 {
		flipped[i] ^= 0x40
		_ = RestoreInto(shell, flipped)
		flipped[i] ^= 0x40
		checkRestoreInto(t, "after bit flip", cfg, shell, short(b))
	}
}

// TestLastValueCountersBounded pins dead-ID retirement: once a phase's
// signature-table entry is evicted its ID is never emitted again, so
// the last-value predictor keeps at most one counter per live entry
// plus the transition phase, however many IDs a churning stream mints.
// Retirement must also be invisible to the accounting: the Figure 7
// buckets in the Report must file every interval exactly as the
// prediction issued for it said (source, confidence, outcomes). FIFO
// replacement evicts the entry the previous interval matched, the case
// where retiring before the predictor has trained that interval would
// account a confident prediction as an unconfident one.
func TestLastValueCountersBounded(t *testing.T) {
	for _, fifo := range []bool{false, true} {
		cfg := churnConfig()
		cfg.Classifier.ReplacementFIFO = fifo
		events := churnEvents(0xc0de, 150, 1_300, 700_000)
		tr := NewTracker("churn", cfg)
		evicted := make(map[int]bool)
		var want predictor.NextPhaseStats
		var prev predictor.Prediction
		peak, results := 0, 0
		for _, ev := range events {
			tr.Cycles(ev.cycles)
			res, ok := tr.Branch(ev.pc, ev.instrs)
			if !ok {
				continue
			}
			if evicted[res.PhaseID] {
				t.Fatalf("fifo=%v: interval %d emitted phase %d after its entry was evicted", fifo, res.Index, res.PhaseID)
			}
			if cls := res.Classification; cls.Evicted && cls.EvictedID != classifier.TransitionPhase {
				evicted[cls.EvictedID] = true
			}
			if results > 0 {
				fileIssued(&want, prev, res)
			}
			prev = res.NextPhase
			results++
			peak = max(peak, lastValueCounters(t, tr))
		}
		if got := tr.Report().NextPhase; got != want {
			t.Fatalf("fifo=%v: next-phase accounting %+v, want %+v as issued", fifo, got, want)
		}
		ids := tr.Report().PhaseIDs
		if ids < 300 || len(evicted) < 200 {
			t.Fatalf("fifo=%v: churn minted %d phase IDs and evicted %d; the bound is not exercised", fifo, ids, len(evicted))
		}
		if bound := cfg.Classifier.TableEntries + 1; peak > bound {
			t.Fatalf("fifo=%v: last-value held %d counters after %d phase IDs, want <= %d", fifo, peak, ids, bound)
		}
	}
}

// fileIssued files the prediction issued for an interval into the
// Figure 7 bucket the interval's result puts it in. A new signature
// resets its phase's counter before the interval is accounted (§5.1),
// so a last-value prediction of that phase counts as unconfident.
func fileIssued(s *predictor.NextPhaseStats, p predictor.Prediction, res *IntervalResult) {
	s.Intervals++
	actual := res.PhaseID
	correct := slices.Contains(p.Outcomes, actual)
	if res.Classification.NewSignature && p.Source == predictor.SourceLastValue && p.Phase == actual {
		p.Confident = false
	}
	switch {
	case p.Source == predictor.SourceTable && correct:
		s.TableCorrect++
	case p.Source == predictor.SourceTable:
		s.TableIncorrect++
	case correct && p.Confident:
		s.LVConfCorrect++
	case correct:
		s.LVUnconfCorrect++
	case p.Confident:
		s.LVConfIncorrect++
	default:
		s.LVUnconfIncorrect++
	}
}

// lastValueCounters reads the number of last-value confidence counters
// a tracker holds from its next-phase predictor's snapshot section.
func lastValueCounters(t *testing.T, tr *Tracker) int {
	t.Helper()
	enc := state.AppendTo(nil)
	tr.eng.np.Snapshot(enc)
	dec := state.NewDecoder(enc.Bytes())
	dec.Section(predictor.TagNextPhase, 1)
	dec.Section(predictor.TagLastValue, 1)
	dec.Bool() // seen
	dec.Int()  // current phase
	n := dec.Count(16)
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	return n
}

// FuzzRestoreIntoDirtyShell restores arbitrary bytes in place over a
// shell that held another stream. Whatever the payload, RestoreInto
// must accept exactly what a fresh Restore accepts and, when it does,
// produce an identical tracker; and a failed attempt must leave the
// shell reusable for a valid snapshot.
func FuzzRestoreIntoDirtyShell(f *testing.F) {
	cfg := churnConfig()
	big := churnEvents(0xf00d, 80, 1_300, 60_000)
	small := stateEvents(12_000)
	held := newRestoreIntoCase("big", cfg, big, 50_003)
	next := newRestoreIntoCase("small", cfg, small, 7_001)
	next.tail = next.tail[:3_000]
	for _, cut := range []int{3_000, 9_999, 12_000} {
		f.Add(newRestoreIntoCase("seed", cfg, small, cut).snap)
	}
	f.Add(held.snap)
	f.Add(held.snap[:len(held.snap)/2])
	f.Add([]byte("PKST"))

	f.Fuzz(func(t *testing.T, data []byte) {
		shell := NewTracker("shell", cfg)
		if err := RestoreInto(shell, held.snap); err != nil {
			t.Fatal(err)
		}
		err := RestoreInto(shell, data)
		fresh := NewTracker("fresh", cfg)
		ferr := fresh.Restore(data)
		if (err == nil) != (ferr == nil) {
			t.Fatalf("RestoreInto error %v, fresh Restore error %v", err, ferr)
		}
		if err == nil {
			requireSameTracker(t, "accepted payload", shell, fresh)
		}
		checkRestoreInto(t, "after fuzzed payload", cfg, shell, next)
	})
}
