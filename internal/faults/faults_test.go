package faults_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"phasekit/internal/faults"
	"phasekit/internal/fleet"
)

// memStore is a minimal inner store for exercising the wrapper.
type memStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMemStore() *memStore { return &memStore{m: make(map[string][]byte)} }

func (s *memStore) Save(stream string, snap []byte) error {
	cp := make([]byte, len(snap))
	copy(cp, snap)
	s.mu.Lock()
	s.m[stream] = cp
	s.mu.Unlock()
	return nil
}

func (s *memStore) Load(dst []byte, stream string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap, ok := s.m[stream]
	if !ok {
		return nil, false, nil
	}
	return append(dst[:0], snap...), true, nil
}

// failPattern drives n alternating save/load operations and records
// which 1-based operation indices failed.
func failPattern(s *faults.Store, n int) []int {
	var failed []int
	for op := 1; op <= n; op++ {
		var err error
		if op%2 == 1 {
			err = s.Save("s", []byte("payload"))
		} else {
			_, _, err = s.Load(nil, "s")
		}
		if err != nil {
			failed = append(failed, op)
		}
	}
	return failed
}

func TestFailNth(t *testing.T) {
	s := faults.Wrap(newMemStore(), faults.Schedule{FailNth: []int{2, 5, 9}})
	got := failPattern(s, 12)
	want := []int{2, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("failed ops = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("failed ops = %v, want %v", got, want)
		}
	}
	if inj, torn := s.Injected(); inj != 3 || torn != 0 {
		t.Fatalf("Injected() = %d, %d, want 3, 0", inj, torn)
	}
	if saves, loads := s.Ops(); saves != 6 || loads != 6 {
		t.Fatalf("Ops() = %d, %d, want 6, 6", saves, loads)
	}
}

func TestOutageWindow(t *testing.T) {
	s := faults.Wrap(newMemStore(), faults.Schedule{OutageFrom: 5, OutageTo: 9})
	got := failPattern(s, 12)
	want := []int{5, 6, 7, 8}
	if len(got) != len(want) {
		t.Fatalf("failed ops = %v, want %v (half-open window)", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("failed ops = %v, want %v", got, want)
		}
	}
}

func TestSeedDeterminism(t *testing.T) {
	sched := faults.Schedule{Seed: 0xfeed, FailRate: 0.25, Burst: 2}
	a := failPattern(faults.Wrap(newMemStore(), sched), 200)
	b := failPattern(faults.Wrap(newMemStore(), sched), 200)
	if len(a) == 0 {
		t.Fatal("25% fail rate injected nothing in 200 ops")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different fault counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at fault %d: op %d vs %d", i, a[i], b[i])
		}
	}
}

func TestBurstLength(t *testing.T) {
	const n = 400
	s := faults.Wrap(newMemStore(), faults.Schedule{Seed: 3, FailRate: 0.05, Burst: 3})
	failed := failPattern(s, n)
	if len(failed) == 0 {
		t.Fatal("no bursts started")
	}
	isFail := make(map[int]bool, len(failed))
	for _, op := range failed {
		isFail[op] = true
	}
	// Every maximal failure run that completes before the end of the
	// drive must span at least Burst operations (runs can only merge
	// and grow, never shrink).
	run := 0
	for op := 1; op <= n; op++ {
		if isFail[op] {
			run++
			continue
		}
		if run > 0 && run < 3 {
			t.Fatalf("failure run ending at op %d has length %d, want >= burst 3", op-1, run)
		}
		run = 0
	}
}

func TestTornWrite(t *testing.T) {
	inner := newMemStore()
	s := faults.Wrap(inner, faults.Schedule{TornNth: []int{2}})
	if err := s.Save("s", []byte("12345678")); err != nil {
		t.Fatalf("op 1 should pass: %v", err)
	}
	err := s.Save("s", []byte("abcdefgh"))
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("torn write reported %v, want ErrInjected", err)
	}
	// The inner store received the first half of the payload — the torn
	// bytes are really there, waiting for an integrity check to catch.
	snap, ok, _ := inner.Load(nil, "s")
	if !ok || string(snap) != "abcd" {
		t.Fatalf("inner store holds %q after torn write, want %q", snap, "abcd")
	}
	if inj, torn := s.Injected(); inj != 1 || torn != 1 {
		t.Fatalf("Injected() = %d, %d, want 1, 1", inj, torn)
	}
}

func TestLatencyInjection(t *testing.T) {
	var slept []time.Duration
	s := faults.Wrap(newMemStore(), faults.Schedule{Latency: 50 * time.Millisecond, LatencyEvery: 3})
	s.Sleeper = func(d time.Duration) { slept = append(slept, d) }
	failPattern(s, 9)
	if len(slept) != 3 {
		t.Fatalf("%d latency injections over 9 ops with LatencyEvery=3, want 3", len(slept))
	}
	for _, d := range slept {
		if d != 50*time.Millisecond {
			t.Fatalf("injected latency %v, want 50ms", d)
		}
	}
}

func TestFSCrashHooks(t *testing.T) {
	fs := &faults.FS{
		CrashBeforeSync:    []int{1, 3},
		CrashBeforeRename:  []int{2},
		CrashBeforeDirSync: []int{2},
	}
	// Each hook family numbers its own invocations independently.
	steps := []struct {
		call func() error
		fail bool
	}{
		{func() error { return fs.BeforeSync("tmp") }, true},       // sync #1
		{func() error { return fs.BeforeSync("tmp") }, false},      // sync #2
		{func() error { return fs.BeforeSync("tmp") }, true},       // sync #3
		{func() error { return fs.BeforeRename("t", "d") }, false}, // rename #1
		{func() error { return fs.BeforeRename("t", "d") }, true},  // rename #2
		{func() error { return fs.BeforeDirSync("dir") }, false},   // dirsync #1
		{func() error { return fs.BeforeDirSync("dir") }, true},    // dirsync #2
	}
	for i, step := range steps {
		err := step.call()
		if step.fail && !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("step %d: err = %v, want injected crash", i, err)
		}
		if !step.fail && err != nil {
			t.Fatalf("step %d: unexpected crash: %v", i, err)
		}
	}
	if fs.Crashes() != 4 {
		t.Fatalf("Crashes() = %d, want 4", fs.Crashes())
	}
}

// TestStoreCutHeal: a cut handle fails every operation, the cluster
// surface included, while another handle on the same backing store
// keeps working; Heal restores the cut handle. Lease reads and writes
// count as loads and saves.
func TestStoreCutHeal(t *testing.T) {
	mem := fleet.NewMemStore()
	cut := faults.Wrap(mem, faults.Schedule{})
	peer := faults.Wrap(mem, faults.Schedule{})
	cut.Cut()
	if err := cut.Save("s", []byte("x")); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Save on a cut store: %v", err)
	}
	if _, _, err := cut.Load(nil, "s"); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Load on a cut store: %v", err)
	}
	if err := cut.WriteLease("lease-a", []byte("1")); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("WriteLease on a cut store: %v", err)
	}
	if _, _, err := cut.ReadLease("lease-a"); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("ReadLease on a cut store: %v", err)
	}
	if _, _, err := cut.CreateExclusive("epoch-2", []byte("a")); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("CreateExclusive on a cut store: %v", err)
	}
	if _, err := cut.LockStream("s"); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("LockStream on a cut store: %v", err)
	}
	if _, err := cut.List(); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("List on a cut store: %v", err)
	}

	// The peer's handle is not cut: it writes a lease and wins a marker.
	if err := peer.WriteLease("lease-b", []byte("7")); err != nil {
		t.Fatal(err)
	}
	if _, created, err := peer.CreateExclusive("epoch-2", []byte("b")); err != nil || !created {
		t.Fatalf("peer CreateExclusive: created=%v err=%v", created, err)
	}

	cut.Heal()
	if data, ok, err := cut.ReadLease("lease-b"); err != nil || !ok || string(data) != "7" {
		t.Fatalf("ReadLease after Heal = %q, %v, %v", data, ok, err)
	}
	if prev, created, err := cut.CreateExclusive("epoch-2", []byte("a")); err != nil || created || string(prev) != "b" {
		t.Fatalf("CreateExclusive after Heal = %q, %v, %v; want the peer's claim", prev, created, err)
	}
	unlock, err := cut.LockStream("s")
	if err != nil {
		t.Fatal(err)
	}
	unlock()
	if saves, loads := cut.Ops(); saves != 2 || loads != 3 {
		t.Fatalf("Ops = %d saves, %d loads; want 2 and 3 (lease calls included)", saves, loads)
	}
}

// TestClock: Now is frozen between Advances.
func TestClock(t *testing.T) {
	start := time.Unix(1000, 0)
	c := faults.NewClock(start)
	if !c.Now().Equal(start) {
		t.Fatalf("start: %v", c.Now())
	}
	if got := c.Advance(3 * time.Second); !got.Equal(start.Add(3 * time.Second)) {
		t.Fatalf("advance returned %v", got)
	}
	if !c.Now().Equal(start.Add(3 * time.Second)) {
		t.Fatalf("after advance: %v", c.Now())
	}
	before := c.Now()
	if !c.Now().Equal(before) {
		t.Fatal("clock moved without Advance")
	}
}
