package fleet

// FuzzFileStoreRecoveryScan drives the FileStore recovery scan over
// fuzzer-composed directories mixing valid snapshots, orphaned temp
// files, corrupt snapshots, CreateExclusive markers, and foreign files.
// The invariants: markers are never listed, never loadable as stream
// state, and never quarantined; valid snapshots survive the scan and
// load back byte-identically; orphans and corrupt snapshots are
// quarantined exactly, never silently dropped from the stats.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func FuzzFileStoreRecoveryScan(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4})
	f.Add([]byte{4, 4, 4, 0, 0, 1, 1, 2, 2, 3, 3})
	f.Add([]byte{})
	f.Add([]byte{255, 128, 64, 32, 16, 8, 4, 2, 1, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 48 {
			script = script[:48]
		}
		dir := t.TempDir()
		setup, err := NewFileStore(dir)
		if err != nil {
			t.Fatalf("setup store: %v", err)
		}
		valid := map[string][]byte{} // stream -> payload that must survive
		marks := map[string][]byte{} // marker name -> contents that must survive
		corrupt := map[string]bool{} // snapshots that must be quarantined
		orphans := 0                 // .tmp-* files that must be quarantined
		for i, b := range script {
			name := fmt.Sprintf("s-%d", b%7) // small namespace forces collisions
			switch b % 5 {
			case 0: // valid snapshot (overwrites any earlier corrupt file)
				payload := []byte(fmt.Sprintf("payload-%d-%d", i, b))
				if err := setup.Save(name, payload); err != nil {
					t.Fatalf("Save %q: %v", name, err)
				}
				valid[name] = payload
				delete(corrupt, name)
			case 1: // corrupt snapshot: shorter than the CRC trailer, so
				// the verdict is deterministic however often the same
				// name is re-corrupted
				path := filepath.Join(dir, escapeStream(name)+".pkst")
				if err := os.WriteFile(path, []byte{0xde, 0xad}, 0o644); err != nil {
					t.Fatalf("corrupting %q: %v", name, err)
				}
				corrupt[name] = true
				delete(valid, name)
			case 2: // orphaned temp file (crash between write and rename)
				if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf(".tmp-%d", i)), []byte("torn"), 0o644); err != nil {
					t.Fatalf("orphan: %v", err)
				}
				orphans++
			case 3: // CreateExclusive marker; first writer's contents stick
				data := []byte(fmt.Sprintf("winner-%d", i))
				if _, created, err := setup.CreateExclusive(name, data); err != nil {
					t.Fatalf("CreateExclusive %q: %v", name, err)
				} else if created {
					marks[name] = data
				}
			case 4: // foreign file: not ours, must be left alone
				if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("notes-%d.txt", i)), []byte("foreign"), 0o644); err != nil {
					t.Fatalf("foreign: %v", err)
				}
			}
		}

		st, err := NewFileStore(dir)
		if err != nil {
			t.Fatalf("NewFileStore: %v", err)
		}
		rs := st.Recovered()
		if rs.Orphans != orphans {
			t.Fatalf("quarantined %d orphans, planted %d", rs.Orphans, orphans)
		}
		if rs.Corrupt != len(corrupt) {
			t.Fatalf("quarantined %d corrupt snapshots, planted %d", rs.Corrupt, len(corrupt))
		}

		listed, err := st.List()
		if err != nil {
			t.Fatalf("List: %v", err)
		}
		seen := map[string]bool{}
		for _, s := range listed {
			seen[s] = true
		}
		for name, payload := range valid {
			if !seen[name] {
				t.Fatalf("valid snapshot %q missing from List %v", name, listed)
			}
			got, ok, err := st.Load(nil, name)
			if err != nil || !ok {
				t.Fatalf("Load %q = ok=%v err=%v after clean scan", name, ok, err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("Load %q = %q, saved %q", name, got, payload)
			}
			delete(seen, name)
		}
		for name := range seen {
			// Anything listed beyond the valid set can only be a marker,
			// quarantined snapshot, or foreign file leaking through.
			t.Fatalf("List leaked %q (markers and quarantined files must stay out of the inventory)", name)
		}

		// Markers: still on disk, contents intact, never stream state.
		for name, data := range marks {
			prev, created, err := st.CreateExclusive(name, []byte("usurper"))
			if err != nil {
				t.Fatalf("re-CreateExclusive %q: %v", name, err)
			}
			if created || !bytes.Equal(prev, data) {
				t.Fatalf("marker %q: created=%v contents=%q, want surviving %q", name, created, prev, data)
			}
			if _, ok, _ := st.Load(nil, name); ok && valid[name] == nil {
				t.Fatalf("marker %q loadable as stream state", name)
			}
		}
	})
}
