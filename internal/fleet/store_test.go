package fleet

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestMemStoreCopiesOnSave(t *testing.T) {
	s := NewMemStore()
	buf := []byte{1, 2, 3}
	if err := s.Save("a", buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99 // caller reuses its buffer (as shard snapBuf does)
	got, ok, err := s.Load(nil, "a")
	if err != nil || !ok {
		t.Fatalf("Load: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("store aliased the caller's buffer: %v", got)
	}
	if _, ok, _ := s.Load(nil, "missing"); ok {
		t.Fatal("Load found a never-saved stream")
	}
}

func TestFileStore(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(filepath.Join(dir, "nested", "state"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Load(nil, "never"); ok || err != nil {
		t.Fatalf("missing stream: ok=%v err=%v", ok, err)
	}
	// Hostile stream names must not escape the directory or collide.
	names := []string{"plain", "a/b", "../escape", "sp ace", "ütf", ""}
	for i, name := range names {
		if err := s.Save(name, []byte{byte(i)}); err != nil {
			t.Fatalf("Save(%q): %v", name, err)
		}
	}
	for i, name := range names {
		got, ok, err := s.Load(nil, name)
		if err != nil || !ok {
			t.Fatalf("Load(%q): ok=%v err=%v", name, ok, err)
		}
		if !bytes.Equal(got, []byte{byte(i)}) {
			t.Fatalf("Load(%q) = %v, want [%d] (name collision?)", name, got, i)
		}
	}
	// Overwrite replaces.
	if err := s.Save("plain", []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := s.Load(nil, "plain"); !bytes.Equal(got, []byte{0xFF}) {
		t.Fatalf("overwrite not visible: %v", got)
	}
	// Nothing escaped the store directory.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "nested" {
		t.Fatalf("files escaped the store dir: %v", entries)
	}
}

// TestCreateExclusiveOneWinner pins the arbitration primitive the
// cluster layer mints epochs with: across any number of concurrent
// claimants sharing the backing storage, exactly one creates a given
// marker, and every loser reads the winner's contents. Markers live
// outside the snapshot namespace — List never reports them and a
// recovery scan leaves them alone.
func TestCreateExclusiveOneWinner(t *testing.T) {
	dir := t.TempDir()
	type creator interface {
		CreateExclusive(name string, data []byte) ([]byte, bool, error)
	}
	for _, tc := range []struct {
		name string
		open func(t *testing.T) creator
	}{
		{"MemStore", func(t *testing.T) creator { return NewMemStore() }},
		{"FileStore", func(t *testing.T) creator {
			s, err := NewFileStore(filepath.Join(dir, "filestore"))
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.open(t)
			const racers = 8
			created := make([]bool, racers)
			existing := make([][]byte, racers)
			var wg sync.WaitGroup
			for i := 0; i < racers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					var err error
					existing[i], created[i], err = s.CreateExclusive("epoch-2", []byte(fmt.Sprintf("n%d", i)))
					if err != nil {
						t.Errorf("racer %d: %v", i, err)
					}
				}(i)
			}
			wg.Wait()
			winners := 0
			var winner int
			for i, c := range created {
				if c {
					winners++
					winner = i
				}
			}
			if winners != 1 {
				t.Fatalf("winners: %d, want exactly 1", winners)
			}
			want := []byte(fmt.Sprintf("n%d", winner))
			for i := 0; i < racers; i++ {
				if i == winner {
					continue
				}
				if !bytes.Equal(existing[i], want) {
					t.Fatalf("racer %d read %q, want winner's %q", i, existing[i], want)
				}
			}
		})
	}
}

// TestCreateExclusiveMarkersInvisibleToSnapshots: markers must not leak
// into the snapshot inventory or survive as phantom streams across a
// recovery scan.
func TestCreateExclusiveMarkersInvisibleToSnapshots(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, created, err := s.CreateExclusive("epoch-7", []byte("n1")); err != nil || !created {
		t.Fatalf("create: created=%v err=%v", created, err)
	}
	if err := s.Save("real-stream", []byte("snap")); err != nil {
		t.Fatal(err)
	}
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "real-stream" {
		t.Fatalf("List() = %v, want just real-stream", names)
	}
	// Reopen (runs recovery): the marker must still be there and still
	// refuse a second creation.
	s2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	existing, created, err := s2.CreateExclusive("epoch-7", []byte("n2"))
	if err != nil || created || !bytes.Equal(existing, []byte("n1")) {
		t.Fatalf("after reopen: existing=%q created=%v err=%v", existing, created, err)
	}
	if _, ok, _ := s2.Load(nil, "epoch-7"); ok {
		t.Fatal("marker readable as a snapshot")
	}
}

// TestFileStoreLockStreamExcludesOtherHandles: a stream lock taken
// through one FileStore holds off the same stream's lock through a
// second handle on the directory, not other streams' locks, and the
// lock file stays out of the inventory and the recovery scan.
func TestFileStoreLockStreamExcludesOtherHandles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	a, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	unlock, err := a.LockStream("s")
	if err != nil {
		t.Fatal(err)
	}
	other, err := b.LockStream("t")
	if err != nil {
		t.Fatal(err)
	}
	other()
	got := make(chan func(), 1)
	go func() {
		u, err := b.LockStream("s")
		if err != nil {
			t.Error(err)
			u = func() {}
		}
		got <- u
	}()
	select {
	case <-got:
		t.Fatal("second handle took a held stream lock")
	case <-time.After(50 * time.Millisecond):
	}
	unlock()
	(<-got)()

	if err := a.Save("s", []byte("snap")); err != nil {
		t.Fatal(err)
	}
	names, err := a.List()
	if err != nil || len(names) != 1 || names[0] != "s" {
		t.Fatalf("List() = %v, %v, want just s", names, err)
	}
	c, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Recovered(); st.Orphans != 0 || st.Corrupt != 0 {
		t.Fatalf("recovery scan touched lock files: %+v", st)
	}
}
