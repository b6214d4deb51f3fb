package core

// Tests for the O(phases) report state: the online summaries reproduce
// the batch formulas over the full interval history bit for bit,
// Report is a pure read, snapshots stop growing once the phase set is
// stable, and payloads in the retired per-interval layout are refused.

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"phasekit/internal/classifier"
	"phasekit/internal/state"
	"phasekit/internal/stats"
)

// TestReportSummariesMatchBatchFormulas recomputes every history-derived
// Report field from the recorded interval stream with the batch
// functions in internal/stats and requires exact equality.
func TestReportSummariesMatchBatchFormulas(t *testing.T) {
	tr := NewTracker("batch", testConfig())
	results := feed(tr, stateEvents(30_000), 0, 30_000)
	byPhase := map[int][]float64{}
	var cpis []float64
	var ids []int
	for _, r := range results {
		byPhase[r.PhaseID] = append(byPhase[r.PhaseID], r.CPI)
		cpis = append(cpis, r.CPI)
		ids = append(ids, r.PhaseID)
	}
	if len(byPhase) < 3 || byPhase[classifier.TransitionPhase] == nil {
		t.Fatalf("stream formed %d phases (transition phase seen: %v); too few to exercise the summaries",
			len(byPhase), byPhase[classifier.TransitionPhase] != nil)
	}
	rep := tr.Report()
	if want := stats.PhaseCoV(byPhase, classifier.TransitionPhase); rep.PhaseCoV != want {
		t.Errorf("PhaseCoV = %v, batch formula %v", rep.PhaseCoV, want)
	}
	if want := stats.CoV(cpis); rep.WholeCoV != want {
		t.Errorf("WholeCoV = %v, batch formula over interval order %v", rep.WholeCoV, want)
	}
	runs := stats.RunLengths(ids)
	stable := stats.LengthStats(runs, func(v int) bool { return v != classifier.TransitionPhase })
	transition := stats.LengthStats(runs, func(v int) bool { return v == classifier.TransitionPhase })
	if !reflect.DeepEqual(rep.StableRuns, stable) {
		t.Errorf("StableRuns = %+v, batch formula %+v", rep.StableRuns, stable)
	}
	if !reflect.DeepEqual(rep.TransitionRuns, transition) {
		t.Errorf("TransitionRuns = %+v, batch formula %+v", rep.TransitionRuns, transition)
	}
}

// TestReportMidRunIsPure calls Report after every interval of one
// tracker and never on a twin: the phase streams and the final Reports
// must be identical, so closing the open run for a Report never leaks
// into engine state.
func TestReportMidRunIsPure(t *testing.T) {
	events := stateEvents(30_000)
	probed := NewTracker("pure", testConfig())
	quiet := NewTracker("pure", testConfig())
	var got []IntervalResult
	for _, ev := range events {
		probed.Cycles(ev.cycles)
		if res, ok := probed.Branch(ev.pc, ev.instrs); ok {
			got = append(got, *res)
			probed.Report()
		}
	}
	want := feed(quiet, events, 0, len(events))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("calling Report mid-run changed the interval results")
	}
	if !reflect.DeepEqual(probed.Report(), quiet.Report()) {
		t.Fatal("calling Report mid-run changed the final Report")
	}
}

// cyclingTracker feeds n intervals that cycle over three fixed code
// regions with fixed CPIs and run lengths, so the phase set (and every
// table) stops growing after the first few cycles.
func cyclingTracker(tr *Tracker, from, n int) {
	regions := []struct {
		base   uint64
		cpi    uint64
		length int
	}{{0x100000, 1, 6}, {0x200000, 3, 4}, {0x300000, 2, 20}}
	period := 0
	for _, r := range regions {
		period += r.length
	}
	for k := from; k < from+n; k++ {
		pos := k % period
		r := regions[0]
		for _, r = range regions {
			if pos < r.length {
				break
			}
			pos -= r.length
		}
		for b := uint64(0); b < 8; b++ {
			tr.Cycles(125 * r.cpi)
			tr.Branch(r.base+b*64, 125)
		}
	}
}

// TestSnapshotSizeBounded pins that a checkpoint is O(phases + tables),
// not O(intervals): a stream cycling over a fixed phase set snapshots
// to the same length at 1k and at 20k intervals.
func TestSnapshotSizeBounded(t *testing.T) {
	tr := NewTracker("bounded", patternConfig())
	cyclingTracker(tr, 0, 1_000)
	early := len(tr.Snapshot())
	cyclingTracker(tr, 1_000, 19_000)
	if n := tr.Report().Intervals; n != 20_000 {
		t.Fatalf("tracked %d intervals, want 20000", n)
	}
	if late := len(tr.Snapshot()); late != early {
		t.Fatalf("snapshot grew from %d bytes at 1k intervals to %d at 20k", early, late)
	}
}

// v1Snapshot encodes tr in the retired v1 engine layout, which carried
// every interval's CPI (grouped by phase) and phase ID verbatim.
func v1Snapshot(tr *Tracker, results []IntervalResult) []byte {
	var samples [][]float64
	ids := make([]int, 0, len(results))
	for _, r := range results {
		for r.PhaseID >= len(samples) {
			samples = append(samples, nil)
		}
		samples[r.PhaseID] = append(samples[r.PhaseID], r.CPI)
		ids = append(ids, r.PhaseID)
	}
	e := tr.eng
	enc := state.AppendTo([]byte(stateMagic))
	enc.Section(TagTracker, trackerVersion)
	enc.String(tr.name)
	encodeConfig(enc, e.cfg)
	enc.Section(TagEngine, 1)
	enc.Int(e.index)
	enc.Int(e.collect.Intervals)
	enc.Int(e.collect.TransitionIntervals)
	enc.U32(uint32(len(samples)))
	for _, xs := range samples {
		enc.F64s(xs)
	}
	enc.Ints(ids)
	e.cls.Snapshot(enc)
	e.np.Snapshot(enc)
	e.chg.Snapshot(enc)
	e.length.Snapshot(enc)
	tr.acc.Snapshot(enc)
	enc.U64(tr.instrs)
	enc.U64(tr.cycles)
	return enc.Bytes()
}

// TestRestoreRefusesV1Engine: a payload in the v1 engine layout is
// refused as corrupt by the engine's own version check (the fleet maps
// that to ErrSnapshotCorrupt and quarantines the stream), never
// misparsed as v2, and the restoring tracker is left untouched.
func TestRestoreRefusesV1Engine(t *testing.T) {
	cfg := testConfig()
	for _, n := range []int{0, 2_000, 30_000} {
		src := NewTracker("v1", cfg)
		results := feed(src, stateEvents(n), 0, n)
		target := NewTracker("v1", cfg)
		want := target.Report()
		err := target.Restore(v1Snapshot(src, results))
		if !errors.Is(err, state.ErrCorrupt) {
			t.Fatalf("%d events: v1 payload restore error = %v, want ErrCorrupt", n, err)
		}
		if !strings.Contains(err.Error(), "engine section v1") {
			t.Fatalf("%d events: v1 payload refused for another reason: %v", n, err)
		}
		if !reflect.DeepEqual(target.Report(), want) {
			t.Fatalf("%d events: refused restore mutated the tracker", n)
		}
	}
}
