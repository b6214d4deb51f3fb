package predictor

// Differential tests for the Top-N change table: the incrementally
// maintained prediction set (and the selection Restore rebuilds it
// with) must always equal a full sort of the entry's outcome counts.

import (
	"slices"
	"sort"
	"testing"

	"phasekit/internal/rng"
	"phasekit/internal/state"
)

// topNSets is the number of hashes driven per table: one per set of a
// 32-entry 4-way table, so no entry is ever evicted and the reference
// counts stay authoritative.
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

// checkTopNStream trains a Top-N table on the outcome stream ops (each
// byte picks a hash and an outcome) and compares every trained entry's
// prediction against referenceTopN after every RecordChange. Every
// restoreEvery changes the table is snapshotted and restored into a
// fresh table, and all entries are compared again.
func checkTopNStream(t *testing.T, topN, phases int, ops []byte, restoreEvery int) {
	t.Helper()
	cfg := DefaultChangeTableConfig(Markov, 1)
	cfg.Track = TrackTopN
	cfg.TopN = topN
	tb := NewChangeTable(cfg)
	ref := make([]map[int]uint32, topNSets)
	for i := range ref {
		ref[i] = map[int]uint32{}
	}
	check := func(step int, hash uint64) {
		t.Helper()
		want := referenceTopN(ref[hash], topN)
		got := tb.Lookup(hash).Outcomes
		if !slices.Equal(got, want) {
			t.Fatalf("step %d hash %d (TopN %d): outcomes %v, full sort %v (counts %v)", step, hash, topN, got, want, ref[hash])
		}
	}
	for step, b := range ops {
		hash := uint64(b) % topNSets
		outcome := int(b/topNSets) % phases
		tb.RecordChange(hash, outcome)
		ref[hash][outcome]++
		check(step, hash)
		if restoreEvery > 0 && (step+1)%restoreEvery == 0 {
			enc := state.AppendTo(nil)
			tb.Snapshot(enc)
			fresh := NewChangeTable(cfg)
			if err := fresh.Restore(state.NewDecoder(enc.Bytes())); err != nil {
				t.Fatalf("step %d: Restore: %v", step, err)
			}
			tb = fresh
			for h := uint64(0); h < topNSets; h++ {
				if len(ref[h]) > 0 {
					check(step, h)
				}
			}
		}
	}
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
	})
}
