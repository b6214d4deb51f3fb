package fleet

// FileStore durability tests: CRC detection, size-limit enforcement,
// the startup recovery scan, and injected crashes at each step of the
// write path.

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func mustFileStore(t *testing.T, dir string) *FileStore {
	t.Helper()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func quarantined(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, quarantineDir))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func TestFileStoreRoundTrip(t *testing.T) {
	s := mustFileStore(t, t.TempDir())
	// Hostile stream names must not escape the directory or collide.
	for _, stream := range []string{"plain", "../escape", "a/b", "a b?c&d", "."} {
		payload := []byte("snapshot for " + stream)
		if err := s.Save(stream, payload); err != nil {
			t.Fatalf("Save(%q): %v", stream, err)
		}
		got, ok, err := s.Load(nil, stream)
		if err != nil || !ok || string(got) != string(payload) {
			t.Fatalf("Load(%q) = %q, %v, %v", stream, got, ok, err)
		}
	}
	if _, ok, err := s.Load(nil, "never-saved"); ok || err != nil {
		t.Fatalf("Load(missing) = ok=%v err=%v, want not found", ok, err)
	}
}

func TestFileStoreCRCDetection(t *testing.T) {
	for _, mode := range []struct {
		name   string
		damage func(t *testing.T, path string)
	}{
		{"bitflip", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[0] ^= 0x01
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated", func(t *testing.T, path string) {
			if err := os.Truncate(path, 2); err != nil { // shorter than the trailer
				t.Fatal(err)
			}
		}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustFileStore(t, dir)
			if err := s.Save("victim", []byte("some tracker state")); err != nil {
				t.Fatal(err)
			}
			mode.damage(t, s.path("victim"))

			_, ok, err := s.Load(nil, "victim")
			if ok || !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("Load of damaged file = ok=%v err=%v, want ErrSnapshotCorrupt", ok, err)
			}
			// The damaged file was quarantined, not left to poison
			// every subsequent load.
			if q := quarantined(t, dir); len(q) != 1 {
				t.Fatalf("quarantine holds %v, want the damaged file", q)
			}
			if _, ok, err := s.Load(nil, "victim"); ok || err != nil {
				t.Fatalf("Load after quarantine = ok=%v err=%v, want clean not-found", ok, err)
			}
		})
	}
}

func TestFileStoreSizeLimit(t *testing.T) {
	dir := t.TempDir()
	s := mustFileStore(t, dir)
	s.SetSizeLimit(32)

	// Save rejects before writing anything.
	err := s.Save("big", make([]byte, 33))
	if !errors.Is(err, ErrSnapshotTooLarge) {
		t.Fatalf("oversized Save = %v, want ErrSnapshotTooLarge", err)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 0 {
		t.Fatalf("rejected save left files behind: %v", ents)
	}

	// Load rejects via Stat before allocating for the read: a snapshot
	// written under a generous limit fails cleanly under a tight one.
	if err := s.Save("ok", make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	s.SetSizeLimit(8)
	_, ok, err := s.Load(nil, "ok")
	if ok || !errors.Is(err, ErrSnapshotTooLarge) {
		t.Fatalf("oversized Load = ok=%v err=%v, want ErrSnapshotTooLarge", ok, err)
	}
}

func TestFileStoreRecoveryScan(t *testing.T) {
	dir := t.TempDir()
	s := mustFileStore(t, dir)
	if err := s.Save("good", []byte("valid snapshot")); err != nil {
		t.Fatal(err)
	}
	// A crash's debris: an orphaned temp file, a checksum-failing
	// snapshot, a snapshot shorter than its trailer — plus bystanders
	// the scan must leave alone.
	for name, content := range map[string][]byte{
		".tmp-123456":  []byte("half-written payload"),
		"bad.pkst":     []byte("garbage long enough to carry a trailer"),
		"short.pkst":   {0xff, 0x01},
		"unrelated.md": []byte("not a snapshot"),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), content, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := mustFileStore(t, dir)
	stats := s2.Recovered()
	if stats.Scanned != 3 || stats.Orphans != 1 || stats.Corrupt != 2 {
		t.Fatalf("recovery stats = %+v, want {Scanned:3 Orphans:1 Corrupt:2}", stats)
	}
	if got, ok, err := s2.Load(nil, "good"); err != nil || !ok || string(got) != "valid snapshot" {
		t.Fatalf("valid snapshot lost in recovery: %q, %v, %v", got, ok, err)
	}
	if q := quarantined(t, dir); len(q) != 3 {
		t.Fatalf("quarantine holds %v, want the orphan and both corrupt files", q)
	}
	if _, err := os.Stat(filepath.Join(dir, "unrelated.md")); err != nil {
		t.Fatalf("recovery touched an unrelated file: %v", err)
	}
}

// TestFileStoreCrashBeforeRename: a crash after the temp file is synced
// but before the rename leaves the previous snapshot fully intact.
func TestFileStoreCrashBeforeRename(t *testing.T) {
	dir := t.TempDir()
	s := mustFileStore(t, dir)
	if err := s.Save("s", []byte("version 1")); err != nil {
		t.Fatal(err)
	}
	crash := errors.New("injected crash")
	s.SetHooks(FileHooks{BeforeRename: func(_, _ string) error { return crash }})
	if err := s.Save("s", []byte("version 2")); !errors.Is(err, crash) {
		t.Fatalf("Save under injected crash = %v, want the crash", err)
	}
	s.SetHooks(FileHooks{})
	got, ok, err := s.Load(nil, "s")
	if err != nil || !ok || string(got) != "version 1" {
		t.Fatalf("old snapshot damaged by aborted save: %q, %v, %v", got, ok, err)
	}
}

// TestFileStoreCrashBeforeDirSync: a crash after the rename reports
// failure, but the renamed file is checksum-valid — the caller retries
// (rewriting identical bytes), and a reader never sees a torn file.
func TestFileStoreCrashBeforeDirSync(t *testing.T) {
	dir := t.TempDir()
	s := mustFileStore(t, dir)
	if err := s.Save("s", []byte("version 1")); err != nil {
		t.Fatal(err)
	}
	crash := errors.New("injected crash")
	s.SetHooks(FileHooks{BeforeDirSync: func(string) error { return crash }})
	if err := s.Save("s", []byte("version 2")); !errors.Is(err, crash) {
		t.Fatalf("Save under injected crash = %v, want the crash", err)
	}
	s.SetHooks(FileHooks{})
	got, ok, err := s.Load(nil, "s")
	if err != nil || !ok || string(got) != "version 2" {
		t.Fatalf("renamed snapshot not valid after dir-sync crash: %q, %v, %v", got, ok, err)
	}
	// Reopening (the "post-crash restart") finds a clean store.
	s2 := mustFileStore(t, dir)
	if stats := s2.Recovered(); stats.Orphans != 0 || stats.Corrupt != 0 {
		t.Fatalf("restart after dir-sync crash found debris: %+v", stats)
	}
}
