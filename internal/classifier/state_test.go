package classifier

import (
	"errors"
	"runtime"
	"testing"

	"phasekit/internal/state"
)

// hugeDimsPayload hand-builds a classifier section that claims n
// entries of dims 2^20 but carries no signature slab: a 64-byte entry
// record each, then an empty slab.
func hugeDimsPayload(n int) []byte {
	enc := state.AppendTo(nil)
	enc.Section(TagClassifier, classifierVersion)
	enc.Int(1 << 20) // dims
	enc.U64(0)       // clock
	enc.Int(n + 1)   // nextID
	for i := 0; i < 8; i++ {
		enc.Int(0) // stats
	}
	enc.U32(uint32(n))
	for i := 0; i < n; i++ {
		enc.Int(i + 1) // phaseID
		enc.Int(0)     // minCount
		enc.F64(0.25)  // threshold
		enc.U64(0)     // lastUse
		enc.U64(0)     // insertedAt
		enc.Int(0)     // cpiCount
		enc.F64(0)     // cpiMean
		enc.Int(0)     // devStreak
	}
	enc.U16s(nil)
	return enc.Bytes()
}

// TestRestoreHugeDimsNoSlab: a corrupt dimensionality must be refused
// against the bytes that remain before it sizes the signature slab, so
// a 2 KB payload claiming 32 entries x 2^20 dims (a 64 MiB slab) fails
// with ErrCorrupt without allocating anything like that, under a
// bounded table and an unbounded one alike.
func TestRestoreHugeDimsNoSlab(t *testing.T) {
	for _, entries := range []int{32, 0} {
		cfg := baseCfg()
		cfg.TableEntries = entries
		c := New(cfg)
		payload := hugeDimsPayload(32)
		if err := c.Restore(state.NewDecoder(payload)); !errors.Is(err, state.ErrCorrupt) {
			t.Fatalf("TableEntries=%d: err = %v, want ErrCorrupt", entries, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 4; i++ {
			_ = c.Restore(state.NewDecoder(payload))
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("TableEntries=%d: 4 corrupt restores allocated %d bytes, want < 1 MiB", entries, got)
		}
	}
}
