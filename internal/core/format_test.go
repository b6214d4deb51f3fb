package core

// The snapshot format pin: committed payloads under testdata/ fix the
// wire layout. A round-trip test alone would pass even if encode and
// decode changed the layout together; these fail on any layout change,
// which must then come with a new section version.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"phasekit/internal/predictor"
)

var updateFormat = flag.Bool("update", false, "rewrite the pinned snapshot payloads under testdata/")

// formatCases are the pinned trackers: richTracker's default
// configuration (single-outcome RLE-2 next-phase table, Top-4 change
// outcomes, length predictor) and a churning stream whose next-phase
// table tracks Last-4 outcomes, so every table kind's records appear
// in a pinned payload.
func formatCases(t *testing.T) map[string]*Tracker {
	rich, _ := richTracker(t)
	cfg := churnConfig()
	change := predictor.DefaultChangeTableConfig(predictor.RLE, 2)
	change.Track = predictor.TrackLast4
	cfg.Predictor.Change = &change
	last4 := NewTracker("last4", cfg)
	feed(last4, churnEvents(0xf0a7, 40, 900, 40_000), 0, 40_000)
	return map[string]*Tracker{"rich": rich, "last4": last4}
}

// TestSnapshotFormatPinned checks that each pinned tracker snapshots to
// its committed bytes, and that restoring the committed bytes into a
// fresh tracker re-snapshots to them exactly. Run with -update to
// rewrite the files after a deliberate, versioned layout change.
func TestSnapshotFormatPinned(t *testing.T) {
	for name, tr := range formatCases(t) {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", "snapshot_"+name+".bin")
			got := tr.Snapshot()
			if *updateFormat {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("snapshot (%d B) differs from %s (%d B) at byte %d", len(got), path, len(want), firstDiff(got, want))
			}
			fresh := NewTracker("fresh", tr.eng.cfg)
			if err := fresh.Restore(want); err != nil {
				t.Fatalf("restore %s: %v", path, err)
			}
			if again := fresh.Snapshot(); !bytes.Equal(again, want) {
				t.Errorf("restore+snapshot of %s differs at byte %d", path, firstDiff(again, want))
			}
		})
	}
}

// firstDiff returns the index of the first byte at which a and b
// differ (the shorter length if one is a prefix of the other).
func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
