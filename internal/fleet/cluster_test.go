package fleet

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"phasekit/internal/core"
)

// TestDetachAdoptPreservesPhaseSequence is the migration-determinism
// core: a stream fed through two fleets with a detach/adopt handoff in
// the middle must emit exactly the phase sequence of an uninterrupted
// single-tracker run.
func TestDetachAdoptPreservesPhaseSequence(t *testing.T) {
	events, cycles := synthStream(7, 8000)
	bs := batches("s", events, cycles)

	tracker := core.NewTracker("s", testConfig())
	var want []int
	for _, b := range bs {
		tracker.Cycles(b.Cycles)
		for _, ev := range b.Events {
			if res, ok := tracker.Branch(ev.PC, ev.Instrs); ok {
				want = append(want, res.PhaseID)
			}
		}
	}
	if res, ok := tracker.Flush(); ok {
		want = append(want, res.PhaseID)
	}

	var mu sync.Mutex
	var got []int
	record := func(stream string, res core.IntervalResult) {
		mu.Lock()
		got = append(got, res.PhaseID)
		mu.Unlock()
	}
	// Migrate at two cut points: node A -> B -> back to A's successor.
	cut1, cut2 := len(bs)/3, 2*len(bs)/3
	ctx := context.Background()

	a := New(Config{Shards: 4, Tracker: testConfig(), OnInterval: record})
	for _, b := range bs[:cut1] {
		a.Send(b)
	}
	snap, err := a.DetachStream(ctx, "s")
	if err != nil {
		t.Fatalf("detach from a: %v", err)
	}
	if len(snap) == 0 {
		t.Fatal("detach returned no snapshot for a fed stream")
	}
	if err := a.Send(bs[cut1]); !errors.Is(err, ErrNotOwned) {
		t.Fatalf("send after detach: %v, want ErrNotOwned", err)
	}
	a.Close()

	b := New(Config{Shards: 2, Tracker: testConfig(), OnInterval: record})
	if err := b.AdoptStream(ctx, "s", snap); err != nil {
		t.Fatalf("adopt on b: %v", err)
	}
	for _, bb := range bs[cut1:cut2] {
		b.Send(bb)
	}
	snap2, err := b.DetachStream(ctx, "s")
	if err != nil {
		t.Fatalf("detach from b: %v", err)
	}
	b.Close()

	c := New(Config{Shards: 1, Tracker: testConfig(), OnInterval: record})
	if err := c.AdoptStream(ctx, "s", snap2); err != nil {
		t.Fatalf("adopt on c: %v", err)
	}
	for _, bb := range bs[cut2:] {
		c.Send(bb)
	}
	c.Flush()
	m := c.Metrics()
	c.Close()

	if len(got) != len(want) {
		t.Fatalf("%d intervals across migration, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("interval %d: phase %d, want %d (migration diverged)", i, got[i], want[i])
		}
	}
	if m.Adopts != 1 || m.DroppedBatches != 0 {
		t.Fatalf("final fleet metrics: %+v", m)
	}
}

func TestDetachNeverSeenStreamFencesOnly(t *testing.T) {
	f := New(Config{Shards: 2, Tracker: testConfig()})
	defer f.Close()
	ctx := context.Background()
	snap, err := f.DetachStream(ctx, "ghost")
	if err != nil || snap != nil {
		t.Fatalf("detach never-seen: %q %v", snap, err)
	}
	if !f.Detached("ghost") {
		t.Fatal("fence missing after detach")
	}
	if err := f.Send(Batch{Stream: "ghost"}); !errors.Is(err, ErrNotOwned) {
		t.Fatalf("send fenced: %v", err)
	}
	if rej, err := f.TrySendRun([]Batch{{Stream: "ghost"}}, nil); err != nil || len(rej) != 1 || !errors.Is(rej[0].Err, ErrNotOwned) {
		t.Fatalf("trysendrun fenced: %v %+v", err, rej)
	}
	if err := f.SendCtx(ctx, Batch{Stream: "ghost"}); !errors.Is(err, ErrNotOwned) {
		t.Fatalf("sendctx fenced: %v", err)
	}
	// Re-detach is idempotent.
	if _, err := f.DetachStream(ctx, "ghost"); err != nil {
		t.Fatalf("re-detach: %v", err)
	}
	// Other streams are unaffected.
	if err := f.Send(Batch{Stream: "alive"}); err != nil {
		t.Fatalf("send other: %v", err)
	}
	// Adopt with nil snap lifts the fence; the stream starts fresh.
	if err := f.AdoptStream(ctx, "ghost", nil); err != nil {
		t.Fatalf("adopt: %v", err)
	}
	if f.Detached("ghost") {
		t.Fatal("fence survived adopt")
	}
	if err := f.Send(Batch{Stream: "ghost"}); err != nil {
		t.Fatalf("send after adopt: %v", err)
	}
}

func TestAdoptFromSharedStore(t *testing.T) {
	// Node-death takeover: the old owner checkpointed to a shared store
	// and vanished; the new owner adopts with a nil snapshot and the
	// stream rehydrates from the store on its next batch.
	events, cycles := synthStream(11, 6000)
	bs := batches("s", events, cycles)
	cut := len(bs) / 2

	tracker := core.NewTracker("s", testConfig())
	var want []int
	for _, b := range bs {
		tracker.Cycles(b.Cycles)
		for _, ev := range b.Events {
			if res, ok := tracker.Branch(ev.PC, ev.Instrs); ok {
				want = append(want, res.PhaseID)
			}
		}
	}
	if res, ok := tracker.Flush(); ok {
		want = append(want, res.PhaseID)
	}

	store := NewMemStore()
	var mu sync.Mutex
	var got []int
	record := func(stream string, res core.IntervalResult) {
		mu.Lock()
		got = append(got, res.PhaseID)
		mu.Unlock()
	}
	a := New(Config{Shards: 2, Tracker: testConfig(), Store: store, OnInterval: record})
	for _, b := range bs[:cut] {
		a.Send(b)
	}
	// The "crash": checkpoint then kill without any handoff.
	if err := a.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	a.Close()

	b := New(Config{Shards: 3, Tracker: testConfig(), Store: store, OnInterval: record})
	if err := b.AdoptStream(context.Background(), "s", nil); err != nil {
		t.Fatalf("adopt: %v", err)
	}
	for _, bb := range bs[cut:] {
		b.Send(bb)
	}
	b.Flush()
	b.Close()

	if len(got) != len(want) {
		t.Fatalf("%d intervals across takeover, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("interval %d: phase %d, want %d (takeover diverged)", i, got[i], want[i])
		}
	}
}

// TestAdoptFromSharedStoreFlushClosesOpenInterval: a stream adopted
// from the shared store mid-interval and flushed before its next batch
// still closes the partial interval its checkpoint carries.
func TestAdoptFromSharedStoreFlushClosesOpenInterval(t *testing.T) {
	events, cycles := synthStream(12, 3000)
	bs := batches("s", events, cycles)
	var want, got []int
	ref := New(Config{Shards: 1, Tracker: testConfig(), OnInterval: func(_ string, res core.IntervalResult) {
		want = append(want, res.PhaseID)
	}})
	for _, b := range bs {
		ref.Send(b)
	}
	ref.Flush()
	ref.Close()

	store := NewMemStore()
	record := func(_ string, res core.IntervalResult) { got = append(got, res.PhaseID) }
	a := New(Config{Shards: 1, Tracker: testConfig(), Store: store, OnInterval: record})
	for _, b := range bs {
		a.Send(b)
	}
	if err := a.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	a.Close()

	b := New(Config{Shards: 1, Tracker: testConfig(), Store: store, OnInterval: record})
	if err := b.AdoptStream(context.Background(), "s", nil); err != nil {
		t.Fatalf("adopt: %v", err)
	}
	b.Flush()
	b.Close()
	if len(got) != len(want) || len(want) == 0 || got[len(got)-1] != want[len(want)-1] {
		t.Fatalf("adopted stream flushed %d intervals (last %v), want %d (last %d)", len(got), got, len(want), want[len(want)-1])
	}
}

// TestReleaseStreamForgetsUntilFirstBatch: releasing a fenced stream
// lifts the fence without claiming the stream — a flush skips it, so a
// checkpoint that may be stale is never closed — and its next batch
// rehydrates it from the store and continues the phase sequence.
func TestReleaseStreamForgetsUntilFirstBatch(t *testing.T) {
	events, cycles := synthStream(13, 3000)
	bs := batches("s", events, cycles)
	var want, got []int
	ref := New(Config{Shards: 1, Tracker: testConfig(), OnInterval: func(_ string, res core.IntervalResult) {
		want = append(want, res.PhaseID)
	}})
	for _, b := range bs {
		ref.Send(b)
	}
	ref.Flush()
	ref.Close()

	store := NewMemStore()
	f := New(Config{Shards: 1, Tracker: testConfig(), Store: store, OnInterval: func(_ string, res core.IntervalResult) {
		got = append(got, res.PhaseID)
	}})
	defer f.Close()
	half := len(bs) / 2
	for _, b := range bs[:half] {
		f.Send(b)
	}
	ctx := context.Background()
	snap, err := f.DetachStream(ctx, "s")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save("s", snap); err != nil {
		t.Fatal(err)
	}
	if d := f.DetachedStreams(); len(d) != 1 || d[0] != "s" {
		t.Fatalf("DetachedStreams = %v, want [s]", d)
	}
	if err := f.ReleaseStream(ctx, "s"); err != nil {
		t.Fatal(err)
	}
	if d, held := f.DetachedStreams(), f.Streams(); len(d) != 0 || len(held) != 0 {
		t.Fatalf("after release: detached %v, streams %v; want neither", d, held)
	}
	closed := len(got)
	f.Flush()
	if len(got) != closed {
		t.Fatalf("flush closed %d intervals of a released stream", len(got)-closed)
	}
	for _, b := range bs[half:] {
		if err := f.Send(b); err != nil {
			t.Fatalf("send after release: %v", err)
		}
	}
	f.Flush()
	if !slices.Equal(got, want) {
		t.Fatalf("released stream's phases %v, want %v", got, want)
	}
}

// TestDetachRacingSendsDropsNothing: a batch that passes the fence
// check while a detach is starting is queued ahead of the detach
// message, never behind it — behind it, the accepted batch would be
// dropped at the stream's latch. Every round races one sender against
// one detach; nothing may be dropped. (Under -race, the unordered
// admission this guards against dropped batches within a few hundred
// rounds.)
func TestDetachRacingSendsDropsNothing(t *testing.T) {
	events, cycles := synthStream(14, 2000)
	bs := batches("s", events, cycles)
	for round := 0; round < 200; round++ {
		f := New(Config{Shards: 1, Tracker: testConfig()})
		start := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			<-start
			for {
				// A long run widens the window between the fence check
				// and the enqueue.
				run := append([]Batch(nil), bs...)
				if rej, err := f.TrySendRun(run, nil); err != nil || len(rej) > 0 {
					return // fenced (or overloaded): the sender stops
				}
			}
		}()
		close(start)
		if _, err := f.DetachStream(context.Background(), "s"); err != nil {
			t.Fatal(err)
		}
		<-done
		f.Close()
		if m := f.Metrics(); m.NotOwnedDrops != 0 || m.DroppedBatches != 0 {
			t.Fatalf("round %d: %d batches accepted then dropped at the detach latch", round, m.NotOwnedDrops)
		}
	}
}

func TestDetachEvictedStreamHandsOffStoredSnapshot(t *testing.T) {
	store := NewMemStore()
	f := New(Config{
		Shards: 1, Tracker: testConfig(),
		Store: store, MaxResident: 1,
	})
	events, cycles := synthStream(3, 2500)
	for _, b := range batches("cold", events, cycles) {
		f.Send(b)
	}
	// Force "cold" out of residency by touching another stream.
	f.Send(Batch{Stream: "hot", Events: events[:10]})
	f.Flush()
	snap, err := f.DetachStream(context.Background(), "cold")
	f.Close()
	if err != nil {
		t.Fatalf("detach evicted: %v", err)
	}
	if len(snap) == 0 {
		t.Fatal("no snapshot for evicted stream")
	}
	// The handed-off snapshot restores (after the seq envelope is
	// stripped, as AdoptStream would).
	_, inner, err := openSeqEnvelope(snap)
	if err != nil {
		t.Fatalf("open seq envelope: %v", err)
	}
	tr := core.NewTracker("x", testConfig())
	if err := tr.Restore(inner); err != nil {
		t.Fatalf("restore handed-off snapshot: %v", err)
	}
}

func TestAdoptConflicts(t *testing.T) {
	f := New(Config{Shards: 1, Tracker: testConfig()})
	defer f.Close()
	ctx := context.Background()
	events, _ := synthStream(5, 100)
	f.Send(Batch{Stream: "live", Events: events})
	bare := core.NewTracker("live", testConfig()).Snapshot()
	good := appendSeqEnvelope(nil, 0, bare)

	// Adopting a live, non-detached stream with a snapshot is a
	// double-ownership bug and must fail.
	if err := f.AdoptStream(ctx, "live", good); err == nil {
		t.Fatal("adopt over live stream succeeded")
	}
	// Nil-snap adopt of a live stream is an ownership no-op.
	if err := f.AdoptStream(ctx, "live", nil); err != nil {
		t.Fatalf("no-op adopt: %v", err)
	}
	// A corrupt snapshot, or a bare tracker snapshot without the seq
	// envelope, refuses adoption and keeps the fence up.
	if _, err := f.DetachStream(ctx, "live"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		snap []byte
	}{
		{"garbage", []byte{0xde, 0xad}},
		{"bare tracker snapshot", bare},
	} {
		if err := f.AdoptStream(ctx, "live", tc.snap); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("%s: adopt: %v, want ErrSnapshotCorrupt", tc.name, err)
		}
		if !f.Detached("live") {
			t.Fatalf("%s: fence dropped despite failed adopt", tc.name)
		}
	}
	if err := f.AdoptStream(ctx, "live", good); err != nil {
		t.Fatalf("recovering adopt: %v", err)
	}
	if f.Detached("live") {
		t.Fatal("fence survived successful adopt")
	}
}

func TestStreamsListingExcludesDetached(t *testing.T) {
	f := New(Config{Shards: 3, Tracker: testConfig()})
	defer f.Close()
	for _, s := range []string{"a", "b", "c"} {
		f.Send(Batch{Stream: s})
	}
	f.Flush() // barrier: all sends applied
	if _, err := f.DetachStream(context.Background(), "b"); err != nil {
		t.Fatal(err)
	}
	names := f.Streams()
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	if !seen["a"] || !seen["c"] || seen["b"] || len(names) != 2 {
		t.Fatalf("streams: %v", names)
	}
}

func TestLateBatchAfterDetachDropsLoudly(t *testing.T) {
	// A batch already sitting in a shard queue when the fence lands is
	// dropped and counted, never applied to a detached entry. Build the
	// race deterministically: enqueue a batch and the detach message
	// back-to-back while the shard is wedged behind a slow batch... the
	// per-shard FIFO means the batch applies first. So instead, fence
	// manually and drive the shard directly.
	f := New(Config{Shards: 1, Tracker: testConfig()})
	defer f.Close()
	ctx := context.Background()
	events, _ := synthStream(9, 200)
	f.Send(Batch{Stream: "s", Events: events[:100]})
	if _, err := f.DetachStream(ctx, "s"); err != nil {
		t.Fatal(err)
	}
	// Simulate the admitted-before-fence straggler by injecting at the
	// shard layer (below the Send fence), as a frame admitted under the
	// old ring would be.
	recycled := false
	f.shards[0].ch <- shardMsg{kind: msgBatch, batch: Batch{
		Stream: "s", Events: events[100:], Recycle: func() { recycled = true },
	}}
	f.Flush() // barrier so the batch is processed
	m := f.Metrics()
	if m.NotOwnedDrops != 1 || m.DroppedBatches != 1 {
		t.Fatalf("straggler not counted: %+v", m)
	}
	if !recycled {
		t.Fatal("dropped straggler's buffer never recycled")
	}
	if err := f.StreamErr("s"); err == nil {
		t.Fatal("dropped data not reflected in StreamErr")
	}
}
