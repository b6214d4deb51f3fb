package predictor

// Differential tests for the change table: the incrementally
// maintained prediction set must always equal one computed from
// scratch — a full sort of the entry's outcome counts for Top-N, the
// last outcome or the most-recent-first unique list for the others —
// including after a Restore, which leaves each set to be built when
// its way is first read.

import (
	"slices"
	"sort"
	"testing"

	"phasekit/internal/rng"
	"phasekit/internal/state"
)

// topNSets is the number of hashes driven per table: one per set of a
// 32-entry 4-way table, so no entry is ever evicted and the reference
// model stays authoritative.
const topNSets = 8

// referenceTopN fully sorts counts (count descending, phase ascending)
// and returns the first n phases.
func referenceTopN(counts map[int]uint32, n int) []int {
	phases := make([]int, 0, len(counts))
	for p := range counts {
		phases = append(phases, p)
	}
	sort.Slice(phases, func(i, j int) bool {
		ci, cj := counts[phases[i]], counts[phases[j]]
		if ci != cj {
			return ci > cj
		}
		return phases[i] < phases[j]
	})
	return phases[:min(n, len(phases))]
}

// refWay is the reference model of one trained way: every outcome it
// has seen, oldest first, plus their counts.
type refWay struct {
	seen   []int
	counts map[int]uint32
}

func (r *refWay) record(outcome int) {
	r.seen = append(r.seen, outcome)
	if r.counts == nil {
		r.counts = map[int]uint32{}
	}
	r.counts[outcome]++
}

// want returns the way's expected prediction set, best first.
func (r *refWay) want(cfg ChangeTableConfig) []int {
	switch cfg.Track {
	case TrackSingle:
		return r.seen[len(r.seen)-1:]
	case TrackLast4:
		var out []int
		for i := len(r.seen) - 1; i >= 0 && len(out) < 4; i-- {
			if !slices.Contains(out, r.seen[i]) {
				out = append(out, r.seen[i])
			}
		}
		return out
	default:
		return referenceTopN(r.counts, cfg.TopN)
	}
}

// checkTableStream trains a change table on the outcome stream ops
// (each byte picks a hash and an outcome) and compares the trained
// entry's prediction against the reference model after every
// RecordChange. Every restoreEvery changes the table is snapshotted and
// restored into a second, dirty table (the previous round's), whose
// previously returned outcome sets must survive the Restore unchanged.
// Every other hash is then probed on the restored table and must match
// the source table; training continues on the restored table, so the
// unprobed ways build their sets inside RecordChange instead.
func checkTableStream(t *testing.T, cfg ChangeTableConfig, phases int, ops []byte, restoreEvery int) {
	t.Helper()
	tb, shell := NewChangeTable(cfg), NewChangeTable(cfg)
	ref := make([]refWay, topNSets)
	check := func(step int, hash uint64) {
		t.Helper()
		want := ref[hash].want(cfg)
		got := tb.Lookup(hash).Outcomes
		if !slices.Equal(got, want) {
			t.Fatalf("step %d hash %d (%v, TopN %d): outcomes %v, reference %v (seen %v)",
				step, hash, cfg.Track, cfg.TopN, got, want, ref[hash].seen)
		}
	}
	for step, b := range ops {
		hash := uint64(b) % topNSets
		outcome := int(b/topNSets) % phases
		tb.RecordChange(hash, outcome)
		ref[hash].record(outcome)
		check(step, hash)
		if restoreEvery <= 0 || (step+1)%restoreEvery != 0 {
			continue
		}
		var held, heldCopy [topNSets][]int
		for h := range held {
			held[h] = shell.Lookup(uint64(h)).Outcomes
			heldCopy[h] = slices.Clone(held[h])
		}
		enc := state.AppendTo(nil)
		tb.Snapshot(enc)
		if err := shell.Restore(state.NewDecoder(enc.Bytes())); err != nil {
			t.Fatalf("step %d: Restore: %v", step, err)
		}
		for h := range held {
			if !slices.Equal(held[h], heldCopy[h]) {
				t.Fatalf("step %d hash %d: outcomes %v returned before Restore now read %v", step, h, heldCopy[h], held[h])
			}
		}
		for h := uint64(step / restoreEvery % 2); h < topNSets; h += 2 {
			got, want := shell.Lookup(h), tb.Lookup(h)
			if got.Hit != want.Hit || got.Confident != want.Confident || !slices.Equal(got.Outcomes, want.Outcomes) {
				t.Fatalf("step %d hash %d: restored lookup %+v, source %+v", step, h, got, want)
			}
		}
		tb, shell = shell, tb
	}
}

// checkTopNStream runs checkTableStream on a Top-N table.
func checkTopNStream(t *testing.T, topN, phases int, ops []byte, restoreEvery int) {
	t.Helper()
	cfg := DefaultChangeTableConfig(Markov, 1)
	cfg.Track = TrackTopN
	cfg.TopN = topN
	checkTableStream(t, cfg, phases, ops, restoreEvery)
}

// TestTopNMatchesFullSort drives random outcome streams with skewed
// phase popularity (so counts tie, overtake and fall out of the top N)
// across several TopN widths.
func TestTopNMatchesFullSort(t *testing.T) {
	x := rng.NewXoshiro256(0x7075)
	for _, topN := range []int{1, 2, 4, 7} {
		for _, phases := range []int{3, 9, 31} {
			ops := make([]byte, 4000)
			for i := range ops {
				// Squaring a uniform draw skews outcomes toward low
				// phases while every phase still occurs.
				u := x.Uint64() % 32
				ops[i] = byte(x.Uint64()%topNSets) + byte(u*u/32)*topNSets
			}
			checkTopNStream(t, topN, phases, ops, 97)
		}
	}
}

// FuzzTopNDifferential feeds arbitrary outcome streams: the first byte
// picks TopN and the phase count, the rest are (hash, outcome) bytes.
// Each stream also drives a TrackSingle and a TrackLast4 table, whose
// restored sets are built lazily the same way.
func FuzzTopNDifferential(f *testing.F) {
	f.Add([]byte{0x13, 1, 9, 17, 9, 1, 1, 25, 33, 17, 17})
	f.Add([]byte{0x30, 0, 8, 16, 24, 32, 40, 48, 56, 64, 72, 0, 8, 16})
	f.Add([]byte{0xff, 200, 201, 202, 203, 200, 200, 8, 16, 24, 24, 24})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		topN := 1 + int(data[0]&7)
		phases := 1 + int(data[0]>>3)
		checkTopNStream(t, topN, phases, data[1:], 13)
		for _, track := range []TrackKind{TrackSingle, TrackLast4} {
			cfg := DefaultChangeTableConfig(Markov, 1)
			cfg.Track = track
			checkTableStream(t, cfg, phases, data[1:], 13)
		}
	})
}

// TestRestoredSetsMatchSource drives the Single and Last-4 tables
// through the same skewed streams as TestTopNMatchesFullSort.
func TestRestoredSetsMatchSource(t *testing.T) {
	x := rng.NewXoshiro256(0x1a2e)
	for _, track := range []TrackKind{TrackSingle, TrackLast4} {
		for _, phases := range []int{3, 9, 31} {
			ops := make([]byte, 4000)
			for i := range ops {
				u := x.Uint64() % 32
				ops[i] = byte(x.Uint64()%topNSets) + byte(u*u/32)*topNSets
			}
			cfg := DefaultChangeTableConfig(Markov, 1)
			cfg.Track = track
			checkTableStream(t, cfg, phases, ops, 97)
		}
	}
}
