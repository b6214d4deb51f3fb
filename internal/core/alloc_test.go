package core

// Allocation-bound tests for the hot paths: Tracker.Branch must not
// allocate at all between interval boundaries, and Evaluate's total
// allocations must stay within a small fixed budget per interval
// (signature buffers and accumulators are reused; only report state and
// per-phase-change predictor training allocate).

import (
	"reflect"
	"testing"

	"phasekit/internal/rng"
	"phasekit/internal/trace"
)

// TestTrackerBranchZeroAlloc feeds branches that never complete an
// interval: the accumulator add and instruction accounting must be
// allocation free.
func TestTrackerBranchZeroAlloc(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IntervalInstrs = 1 << 40 // never reached during the measurement
	tr := NewTracker("alloc", cfg)
	x := rng.NewXoshiro256(7)
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
		t.Fatalf("Tracker.Branch allocated %.1f times per call off interval boundaries, want 0", allocs)
	}
}

// allocSyntheticRun builds a deterministic trace.Run with revisited phases
// so classification exercises matches, inserts, and phase changes.
func allocSyntheticRun(intervals int) *trace.Run {
	x := rng.NewXoshiro256(99)
	const phases = 4
	bases := make([][]trace.PCWeight, phases)
	for p := range bases {
		ws := make([]trace.PCWeight, 24)
		for i := range ws {
			ws[i] = trace.PCWeight{PC: x.Uint64(), Weight: 1000 + x.Uint64()%4000}
		}
		bases[p] = ws
	}
	run := &trace.Run{Name: "synthetic", IntervalSize: 100_000}
	for k := 0; k < intervals; k++ {
		p := (k / 7) % phases // dwell in each phase for 7 intervals
		ws := make([]trace.PCWeight, len(bases[p]))
		copy(ws, bases[p])
		ws[k%len(ws)].Weight += x.Uint64() % 500
		var instrs uint64
		for _, w := range ws {
			instrs += w.Weight
		}
		run.Intervals = append(run.Intervals, trace.IntervalProfile{
			Index:        k,
			Weights:      ws,
			Instructions: instrs,
			Cycles:       instrs + instrs*uint64(p)/4,
			Segment:      p,
		})
	}
	return run
}

// TestEvaluateAllocBound bounds Evaluate's allocations per interval.
// Report state is O(phases), so only per-change predictor training and
// table growth legitimately allocate; a regression to per-interval
// signature, accumulator or report-history allocation (3+ allocations
// per interval before the overhaul) blows through the budget.
func TestEvaluateAllocBound(t *testing.T) {
	const intervals = 400
	run := allocSyntheticRun(intervals)
	cfg := DefaultConfig()
	cfg.IntervalInstrs = run.IntervalSize

	Evaluate(run, cfg) // warm any lazy global state
	allocs := testing.AllocsPerRun(5, func() {
		Evaluate(run, cfg)
	})
	perInterval := allocs / intervals
	t.Logf("Evaluate: %.2f allocations per interval", perInterval)
	if perInterval > 1.0 {
		t.Fatalf("Evaluate allocated %.0f times for %d intervals (%.2f/interval), want <= 1/interval",
			allocs, intervals, perInterval)
	}
}

// TestEvaluateBucketsMatchesEvaluate pins the bit-identity contract the
// sweep cache relies on: replaying from a BucketTable must reproduce
// Evaluate's report exactly.
func TestEvaluateBucketsMatchesEvaluate(t *testing.T) {
	run := allocSyntheticRun(200)
	for _, dims := range []int{8, 16, 32} {
		cfg := DefaultConfig()
		cfg.IntervalInstrs = run.IntervalSize
		cfg.Dims = dims
		want := Evaluate(run, cfg)
		bt := BuildBuckets(run, dims)
		got := EvaluateBuckets(run, bt, cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("dims %d: EvaluateBuckets report differs from Evaluate:\n got %+v\nwant %+v", dims, got, want)
		}
	}
}
