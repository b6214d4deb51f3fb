package fleet

// FuzzFileStoreRecoveryScan drives the FileStore recovery scan over
// fuzzer-composed directories mixing valid snapshots, orphaned temp
// files, corrupt snapshots, CreateExclusive markers, lease records,
// torn lease temp files, and foreign files. The invariants: markers
// and lease records (and a lease write torn before its rename) are
// never listed, never loadable as stream state, and never quarantined;
// a lease reads back its last whole write; valid snapshots survive the
// scan and load back byte-identically; orphans and corrupt snapshots
// are quarantined exactly, never silently dropped from the stats.

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
		valid := map[string][]byte{}  // stream -> payload that must survive
		marks := map[string][]byte{}  // marker name -> contents that must survive
		corrupt := map[string]bool{}  // snapshots that must be quarantined
		leases := map[string][]byte{} // lease name -> last whole write
		torn := map[string]bool{}     // leases with a torn temp file beside them
		orphans := 0                  // .tmp-* files that must be quarantined
		for i, b := range script {
			name := fmt.Sprintf("s-%d", b%7) // small namespace forces collisions
			lease := fmt.Sprintf("lease-%d", b%3)
			switch b % 7 {
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
			case 5: // lease record, overwritten in place
				data := []byte(fmt.Sprintf("renewal-%d", i))
				if err := setup.WriteLease(lease, data); err != nil {
					t.Fatalf("WriteLease %q: %v", lease, err)
				}
				leases[lease] = data
				delete(torn, lease) // the write renamed its temp file away
			case 6: // a lease write torn before its rename
				path := filepath.Join(dir, escapeStream(lease)+".mark.tmp")
				if err := os.WriteFile(path, []byte("rene"), 0o644); err != nil {
					t.Fatalf("torn lease: %v", err)
				}
				torn[lease] = true
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

		// Leases and torn lease temp files: in place, never stream state.
		for _, lease := range []string{"lease-0", "lease-1", "lease-2"} {
			got, ok, err := st.ReadLease(lease)
			if err != nil || ok != (leases[lease] != nil) || !bytes.Equal(got, leases[lease]) {
				t.Fatalf("ReadLease %q = %q, %v, %v; want the last whole write %q", lease, got, ok, err, leases[lease])
			}
			if _, ok, _ := st.Load(nil, lease); ok {
				t.Fatalf("lease %q loadable as stream state", lease)
			}
			if _, err := os.Stat(filepath.Join(dir, escapeStream(lease)+".mark.tmp")); torn[lease] && err != nil {
				t.Fatalf("torn lease temp file of %q moved by the scan: %v", lease, err)
			}
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
