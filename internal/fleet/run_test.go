package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phasekit/internal/core"
	"phasekit/internal/trace"
)

// runStreams synthesizes deterministic per-stream event batches, round-
// robined the way a connection's coalesced frames arrive.
func runBatches(streams, batches, events int) []Batch {
	var out []Batch
	for b := 0; b < batches; b++ {
		for s := 0; s < streams; s++ {
			evs := make([]trace.BranchEvent, events)
			for i := range evs {
				n := uint64(b*events + i)
				evs[i] = trace.BranchEvent{PC: 0x1000 + n%257*4, Instrs: uint32(40 + n%17)}
			}
			out = append(out, Batch{Stream: fmt.Sprintf("s%d", s), Events: evs})
		}
	}
	return out
}

// TestTrySendRunMatchesSend proves coalesced runs are semantically
// invisible: the same batches sent per-batch and sent as per-shard runs
// produce identical per-stream interval sequences and reports.
func TestTrySendRunMatchesSend(t *testing.T) {
	const shards = 4
	bs := runBatches(8, 50, 64)

	type seq struct {
		mu     sync.Mutex
		phases map[string][]int
	}
	collect := func() (*seq, Config) {
		c := &seq{phases: map[string][]int{}}
		return c, Config{
			Shards:     shards,
			QueueDepth: 1024,
			Tracker:    testConfig(),
			OnInterval: func(stream string, res core.IntervalResult) {
				c.mu.Lock()
				c.phases[stream] = append(c.phases[stream], res.PhaseID)
				c.mu.Unlock()
			},
		}
	}

	want, wantCfg := collect()
	f := New(wantCfg)
	for _, b := range bs {
		if err := f.Send(b); err != nil {
			t.Fatal(err)
		}
	}
	f.Flush()
	wantReports := map[string]core.Report{}
	for s := 0; s < 8; s++ {
		name := fmt.Sprintf("s%d", s)
		r, ok := f.Report(name)
		if !ok {
			t.Fatalf("stream %s missing", name)
		}
		wantReports[name] = r
	}
	f.Close()

	got, gotCfg := collect()
	f = New(gotCfg)
	// Group into per-shard runs of up to 16 batches, preserving order
	// within each shard, and hand ownership over run by run.
	runs := make([][]Batch, shards)
	var released atomic.Int64 // release hooks run on the shard goroutines
	flush := func(si int) {
		if len(runs[si]) == 0 {
			return
		}
		run := runs[si]
		rej, err := f.TrySendRun(run, func() { released.Add(1) })
		if err != nil || len(rej) != 0 {
			t.Fatalf("TrySendRun: rejected=%v err=%v", rej, err)
		}
		runs[si] = nil
	}
	for _, b := range bs {
		si := f.StreamShard(b.Stream)
		if sh := f.shardFor(b.Stream); f.shards[si] != sh {
			t.Fatalf("StreamShard(%q)=%d disagrees with shardFor", b.Stream, si)
		}
		runs[si] = append(runs[si], b)
		if len(runs[si]) == 16 {
			flush(si)
		}
	}
	for si := range runs {
		flush(si)
	}
	f.Flush()
	for name, wr := range wantReports {
		gr, ok := f.Report(name)
		if !ok {
			t.Fatalf("stream %s missing in run-coalesced fleet", name)
		}
		if gr.Intervals != wr.Intervals || gr.TransitionIntervals != wr.TransitionIntervals ||
			gr.PhaseIDs != wr.PhaseIDs || gr.Classifier != wr.Classifier {
			t.Fatalf("stream %s report diverged:\nrun:  %+v\nsend: %+v", name, gr, wr)
		}
	}
	f.Close()
	if released.Load() == 0 {
		t.Fatal("run release hooks never fired")
	}
	for name, wp := range want.phases {
		gp := got.phases[name]
		if len(gp) != len(wp) {
			t.Fatalf("stream %s: %d intervals via runs, want %d", name, len(gp), len(wp))
		}
		for i := range wp {
			if gp[i] != wp[i] {
				t.Fatalf("stream %s interval %d: phase %d via runs, want %d", name, i, gp[i], wp[i])
			}
		}
	}
}

// TestTrySendRunQuarantineRejects proves admission stays per-batch: a
// quarantined stream's batches are compacted out and returned with
// their original indices, while co-run healthy streams are applied.
func TestTrySendRunQuarantineRejects(t *testing.T) {
	f := New(Config{
		Shards:     1,
		QueueDepth: 64,
		Tracker:    testConfig(),
		Quarantine: QuarantinePolicy{Strikes: 1, Probation: time.Hour},
	})
	defer f.Close()
	f.Offense("bad", errors.New("malformed"))

	recycled := map[int]bool{}
	mk := func(i int, stream string) Batch {
		return Batch{
			Stream:  stream,
			Events:  []trace.BranchEvent{{PC: 0x40, Instrs: 50}},
			Recycle: func() { recycled[i] = true },
		}
	}
	// Streams hash onto the single shard trivially, so any mix is one run.
	run := []Batch{mk(0, "good"), mk(1, "bad"), mk(2, "good"), mk(3, "bad")}
	rej, err := f.TrySendRun(run, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rej) != 2 || rej[0].Index != 1 || rej[1].Index != 3 {
		t.Fatalf("rejections %+v, want indices 1 and 3", rej)
	}
	for _, r := range rej {
		if !errors.Is(r.Err, ErrQuarantined) {
			t.Fatalf("rejection error %v, want ErrQuarantined", r.Err)
		}
		if r.Batch.Stream != "bad" {
			t.Fatalf("rejected stream %q, want bad", r.Batch.Stream)
		}
	}
	f.Flush()
	if !recycled[0] || !recycled[2] {
		t.Fatal("admitted batches were not recycled by the shard")
	}
	if recycled[1] || recycled[3] {
		t.Fatal("rejected batches recycled by the fleet; the caller owns them")
	}
	if _, ok := f.Report("bad"); ok {
		t.Fatal("quarantined stream reached its shard")
	}

	// Every batch rejected: nothing is enqueued and the caller keeps
	// the slice.
	rej, err = f.TrySendRun([]Batch{mk(4, "bad")}, func() { t.Fatal("release fired for an empty run") })
	if err != nil || len(rej) != 1 {
		t.Fatalf("all-rejected run: rej=%v err=%v", rej, err)
	}
}

// TestTrySendRunOverload proves a full shard queue rejects the whole
// run with ErrOverloaded and leaves the admitted batches caller-owned
// (nothing recycled, nothing enqueued).
func TestTrySendRunOverload(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	f := New(Config{
		Shards:     1,
		QueueDepth: 1,
		Tracker:    testConfig(),
		Overload:   OverloadReject,
		OnInterval: func(string, core.IntervalResult) {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-release
		},
	})
	// Wedge the worker on the interval callback, then fill the
	// depth-1 queue behind it.
	evs := make([]trace.BranchEvent, 200)
	for i := range evs {
		evs[i] = trace.BranchEvent{PC: 0x40, Instrs: 50} // 200*50 = one interval
	}
	if err := f.Send(Batch{Stream: "s", Events: evs}); err != nil {
		t.Fatal(err)
	}
	<-entered
	for {
		if err := f.Send(Batch{Stream: "s", Events: nil}); err != nil {
			break
		}
	}
	run := []Batch{{Stream: "s", Recycle: func() { t.Fatal("recycled on failed enqueue") }}}
	rej, err := f.TrySendRun(run, func() { t.Fatal("released on failed enqueue") })
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err=%v rej=%v, want ErrOverloaded", err, rej)
	}
	close(release)
	f.Close()
}

// TestTrySendRunMixedShardsPanics pins the grouping contract.
func TestTrySendRunMixedShardsPanics(t *testing.T) {
	f := New(Config{Shards: 8, Tracker: testConfig()})
	defer f.Close()
	a, b := "s0", ""
	for i := 1; ; i++ {
		c := fmt.Sprintf("s%d", i)
		if f.StreamShard(c) != f.StreamShard(a) {
			b = c
			break
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mixed-shard run did not panic")
		}
	}()
	f.TrySendRun([]Batch{{Stream: a}, {Stream: b}}, nil)
}
