package cluster

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"phasekit/internal/faults"
	"phasekit/internal/fleet"
)

// TestStateStoreContract holds every StateStore the fleet runs over to
// the copy-out Load contract: a missing stream is ok=false; Load fills
// the caller's buffer, reusing its storage when the snapshot fits; the
// returned bytes never alias the store's memory, so a later Save
// leaves them as they were; and Save and Load of one stream may run
// concurrently. Each also keeps lease records (checkLeases).
func TestStateStoreContract(t *testing.T) {
	cases := []struct {
		name string
		open func(t *testing.T) fleet.StateStore
	}{
		{"MemStore", func(*testing.T) fleet.StateStore { return fleet.NewMemStore() }},
		{"FileStore", func(t *testing.T) fleet.StateStore {
			fs, err := fleet.NewFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return fs
		}},
		{"FencedStore", func(*testing.T) fleet.StateStore { return NewFencedStore(fleet.NewMemStore(), 1) }},
		{"faults.Store", func(*testing.T) fleet.StateStore {
			return faults.Wrap(fleet.NewMemStore(), faults.Schedule{})
		}},
	}
	snapA := bytes.Repeat([]byte("snapshot-a/"), 40)
	snapB := bytes.Repeat([]byte("snapshot-b/"), 40)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.open(t)
			if got, ok, err := s.Load(make([]byte, 8), "missing"); ok || err != nil || got != nil {
				t.Fatalf("missing stream: Load = %q, %v, %v; want nil, false, nil", got, ok, err)
			}
			if err := s.Save("s", snapA); err != nil {
				t.Fatal(err)
			}

			// A roomy dst with stale contents: its storage is reused.
			dst := bytes.Repeat([]byte{0xEE}, 4096)
			got, ok, err := s.Load(dst, "s")
			if err != nil || !ok || !bytes.Equal(got, snapA) {
				t.Fatalf("Load into a dirty 4 KB buffer = %q, %v, %v; want the saved snapshot", got, ok, err)
			}
			if &got[0] != &dst[0] {
				t.Fatal("Load into a buffer large enough did not reuse its storage")
			}
			// A dst too small: the snapshot still comes back whole.
			small, ok, err := s.Load([]byte{1, 2, 3}, "s")
			if err != nil || !ok || !bytes.Equal(small, snapA) {
				t.Fatalf("Load into a 3-byte buffer = %q, %v, %v; want the saved snapshot", small, ok, err)
			}

			// A same-length Save may overwrite the store's copy in place;
			// the loaded bytes must not change with it.
			if err := s.Save("s", snapB); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, snapA) || !bytes.Equal(small, snapA) {
				t.Fatal("a Save changed bytes an earlier Load returned: Load aliases the store")
			}
			if again, _, _ := s.Load(nil, "s"); !bytes.Equal(again, snapB) {
				t.Fatalf("Load after the second Save = %q, want it", again)
			}

			// Concurrent Save and Load of one stream: every load sees one
			// whole snapshot (and -race sees no data race).
			var wg sync.WaitGroup
			errs := make(chan error, 4)
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 10; i++ {
						snap := snapA
						if (w+i)%2 == 1 {
							snap = snapB
						}
						if err := s.Save("s", snap); err != nil {
							errs <- err
							return
						}
					}
				}(w)
			}
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var buf []byte
					for i := 0; i < 20; i++ {
						got, ok, err := s.Load(buf, "s")
						if err != nil || !ok {
							errs <- fmt.Errorf("concurrent Load: ok=%v err=%v", ok, err)
							return
						}
						if !bytes.Equal(got, snapA) && !bytes.Equal(got, snapB) {
							errs <- fmt.Errorf("concurrent Load returned a torn snapshot %q", got)
							return
						}
						buf = got
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			checkLeases(t, s)
		})
	}
}

// checkLeases holds a store to the lease record contract: a missing
// record is ok=false; a write overwrites the record in place, longer or
// shorter, and reads back whole; reads copy out; and a record is never
// listed, never loaded as a stream, and leaves stream state alone.
func checkLeases(t *testing.T, st fleet.StateStore) {
	t.Helper()
	ls, ok := st.(interface {
		WriteLease(name string, data []byte) error
		ReadLease(name string) ([]byte, bool, error)
		List() ([]string, error)
	})
	if !ok {
		t.Fatalf("%T keeps no lease records", st)
	}
	if got, ok, err := ls.ReadLease("lease-n1"); ok || err != nil || got != nil {
		t.Fatalf("missing lease: ReadLease = %q, %v, %v; want nil, false, nil", got, ok, err)
	}
	var first []byte
	for i, rec := range []string{"renewal-1", "renewal-2 is longer", "r3"} {
		if err := ls.WriteLease("lease-n1", []byte(rec)); err != nil {
			t.Fatal(err)
		}
		got, ok, err := ls.ReadLease("lease-n1")
		if err != nil || !ok || string(got) != rec {
			t.Fatalf("ReadLease after write %d = %q, %v, %v; want %q", i, got, ok, err, rec)
		}
		if first == nil {
			first = got
		}
	}
	if string(first) != "renewal-1" {
		t.Fatalf("a later write changed bytes an earlier ReadLease returned: %q", first)
	}
	names, err := ls.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if n != "s" {
			t.Fatalf("List = %v; the lease record leaked into the stream inventory", names)
		}
	}
	if got, ok, err := st.Load(nil, "lease-n1"); ok || err != nil {
		t.Fatalf("Load of the lease name = %q, %v, %v; want no stream", got, ok, err)
	}
	if snap, ok, err := st.Load(nil, "s"); err != nil || !ok || len(snap) == 0 {
		t.Fatalf("stream state after lease writes: ok=%v err=%v", ok, err)
	}
}
