package fleet

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestEscapeStreamRoundTrip(t *testing.T) {
	cases := []string{
		"plain",
		"tenant-7_run",
		"",
		"a/b/c",
		"..",
		"../../etc/passwd",
		".tmp-evil",
		".quarantine",
		"with space",
		"per%cent%2Ftrick",
		"unicode-héllo-世界",
		string([]byte{0, 1, 0xff, '\n'}),
	}
	for _, s := range cases {
		esc := escapeStream(s)
		if strings.ContainsAny(esc, "/\\") || strings.Contains(esc, "..") {
			t.Errorf("escape(%q) = %q still path-hostile", s, esc)
		}
		if esc != "" && esc[0] == '.' {
			t.Errorf("escape(%q) = %q starts with a dot", s, esc)
		}
		back, err := unescapeStream(esc)
		if err != nil || back != s {
			t.Errorf("round trip %q -> %q -> %q (%v)", s, esc, back, err)
		}
	}
	// Injectivity across pairs that collide under naive escaping.
	pairs := [][2]string{{"a/b", "a%2Fb"}, {"a.b", "a%2Eb"}, {"x", "X"}}
	for _, p := range pairs {
		if escapeStream(p[0]) == escapeStream(p[1]) {
			t.Errorf("escape collides: %q vs %q", p[0], p[1])
		}
	}
	if _, err := unescapeStream("bad%G1"); err == nil {
		t.Error("bad hex escape accepted")
	}
	if _, err := unescapeStream("trunc%2"); err == nil {
		t.Error("truncated escape accepted")
	}
}

// TestFileStoreHostileStreamNames is the satellite regression: stream
// IDs a shared cluster store might see from remote clients must save,
// survive a recovery scan, and load back — in particular a stream named
// like an orphan temp file must not be quarantined at reopen.
func TestFileStoreHostileStreamNames(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	streams := []string{
		".tmp-evil",          // collides with the orphan pattern unescaped
		"../escape",          // path traversal
		"a/b",                // separator
		"..",                 // parent dir
		"per%cent",           // escape metacharacter
		"plain",              // control case
		string([]byte{0xff}), // not UTF-8
	}
	for i, name := range streams {
		if err := s.Save(name, []byte{byte(i), 1, 2, 3}); err != nil {
			t.Fatalf("save %q: %v", name, err)
		}
	}
	// Every snapshot landed inside the store dir (no traversal).
	if snaps, _ := filepath.Glob(filepath.Join(dir, "*.pkst")); len(snaps) != len(streams) {
		t.Fatalf("%d snapshot files in dir for %d streams", len(snaps), len(streams))
	}
	// Reopen: the recovery scan must keep all of them.
	s2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := s2.Recovered()
	if rec.Orphans != 0 || rec.Corrupt != 0 || rec.Scanned != len(streams) {
		t.Fatalf("recovery quarantined hostile-but-valid streams: %+v", rec)
	}
	for i, name := range streams {
		snap, ok, err := s2.Load(nil, name)
		if err != nil || !ok || len(snap) != 4 || snap[0] != byte(i) {
			t.Fatalf("load %q after reopen: %q %v %v", name, snap, ok, err)
		}
	}
	// List recovers the original IDs.
	listed, err := s2.List()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, n := range listed {
		seen[n] = true
	}
	for _, name := range streams {
		if !seen[name] {
			t.Fatalf("List missing %q (got %q)", name, listed)
		}
	}
}
