package fleet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"phasekit/internal/classifier"
	"phasekit/internal/core"
	"phasekit/internal/rng"
	"phasekit/internal/trace"
)

// testConfig returns a tracker configuration small enough that a few
// thousand synthetic events produce many intervals.
func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.IntervalInstrs = 10_000
	return cfg
}

// synthStream deterministically generates n branch events for a stream:
// the PC pool switches between a few code regions so phases form, and
// cycles vary by region so CPI feedback is exercised.
func synthStream(seed uint64, n int) ([]trace.BranchEvent, []uint64) {
	x := rng.NewXoshiro256(seed)
	events := make([]trace.BranchEvent, n)
	cycles := make([]uint64, n)
	region := uint64(0x400000)
	for i := 0; i < n; i++ {
		// Switch between a handful of recurring code regions every
		// ~1200 events (~12 intervals at the test interval length),
		// long enough for the classifier to promote stable phases
		// past the transition-phase min counter.
		if i%1200 == 0 {
			region = 0x400000 + (x.Uint64()%4)*0x100000
		}
		events[i] = trace.BranchEvent{
			PC:     region + (x.Uint64()%64)*64,
			Instrs: 50 + uint32(x.Uint64()%100),
		}
		cycles[i] = uint64(events[i].Instrs) * (1 + region%3)
	}
	return events, cycles
}

// batches slices an event stream into deterministic variable-size
// batches, summing the per-event cycles into each batch's charge.
// Cycle attribution is per batch (a batch's cycles land in the interval
// open when the batch is applied), so the serial reference and the
// Fleet must use the same slicing for bit-exact CPI agreement.
func batches(stream string, events []trace.BranchEvent, cycles []uint64) []Batch {
	var out []Batch
	for i := 0; i < len(events); {
		j := i + 1 + (i/7)%97
		if j > len(events) {
			j = len(events)
		}
		var c uint64
		for k := i; k < j; k++ {
			c += cycles[k]
		}
		out = append(out, Batch{Stream: stream, Cycles: c, Events: events[i:j]})
		i = j
	}
	return out
}

func TestSingleStreamMatchesTracker(t *testing.T) {
	events, cycles := synthStream(42, 8000)
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
	wantReport := tracker.Report()

	for _, shards := range []int{1, 4} {
		var mu sync.Mutex
		var got []int
		f := New(Config{
			Shards:  shards,
			Tracker: testConfig(),
			OnInterval: func(stream string, res core.IntervalResult) {
				mu.Lock()
				got = append(got, res.PhaseID)
				mu.Unlock()
			},
		})
		for _, b := range bs {
			f.Send(b)
		}
		f.Flush()
		report, ok := f.Report("s")
		f.Close()
		if !ok {
			t.Fatalf("shards=%d: stream not found", shards)
		}
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d intervals, want %d", shards, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: interval %d phase %d, want %d", shards, i, got[i], want[i])
			}
		}
		if report.Intervals != wantReport.Intervals ||
			report.TransitionIntervals != wantReport.TransitionIntervals ||
			report.PhaseIDs != wantReport.PhaseIDs {
			t.Fatalf("shards=%d: report (%d,%d,%d) != tracker report (%d,%d,%d)",
				shards, report.Intervals, report.TransitionIntervals, report.PhaseIDs,
				wantReport.Intervals, wantReport.TransitionIntervals, wantReport.PhaseIDs)
		}
	}
}

func TestReportUnknownStream(t *testing.T) {
	f := New(Config{Shards: 2, Tracker: testConfig()})
	defer f.Close()
	if _, ok := f.Report("nope"); ok {
		t.Fatal("Report returned ok for an unseen stream")
	}
}

func TestSnapshotCoversAllStreams(t *testing.T) {
	f := New(Config{Shards: 3, Tracker: testConfig()})
	for s := 0; s < 17; s++ {
		events, _ := synthStream(uint64(s), 600)
		f.Send(Batch{Stream: fmt.Sprintf("stream-%02d", s), Events: events})
	}
	f.Flush()
	snap := f.Snapshot()
	f.Close()
	if len(snap) != 17 {
		t.Fatalf("snapshot has %d streams, want 17", len(snap))
	}
	for name, rep := range snap {
		if rep.Intervals == 0 {
			t.Errorf("stream %s: 0 intervals in snapshot", name)
		}
	}
}

func TestEndIntervalForcesBoundary(t *testing.T) {
	var n atomic.Int64
	f := New(Config{
		Shards:  1,
		Tracker: testConfig(),
		OnInterval: func(string, core.IntervalResult) {
			n.Add(1)
		},
	})
	// 3 events × 100 instrs is far below the 10k interval budget, so
	// only EndInterval can close the interval.
	f.Send(Batch{
		Stream: "s",
		Events: []trace.BranchEvent{
			{PC: 0x400000, Instrs: 100},
			{PC: 0x400040, Instrs: 100},
			{PC: 0x400080, Instrs: 100},
		},
		EndInterval: true,
	})
	f.Flush()
	f.Close()
	if n.Load() != 1 {
		t.Fatalf("%d intervals, want 1", n.Load())
	}
}

func TestValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config should default-validate: %v", err)
	}
	bad := Config{Shards: 2, Tracker: testConfig()}
	bad.Tracker.Dims = 12 // not a power of two
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid tracker config not rejected")
	}
	neg := Config{Shards: -1}
	if err := neg.Validate(); err == nil {
		t.Fatal("negative shard count not rejected")
	}
}

// TestStress hammers a Fleet from many producers while Report, Flush
// and Snapshot run concurrently. Its real assertion is the race
// detector: shard ownership violations or barrier bugs show up as
// races or deadlocks under `go test -race`.
func TestStress(t *testing.T) {
	const (
		streams    = 64
		producers  = 4
		perStream  = 2000
		queueDepth = 8 // small queue so backpressure actually engages
	)
	var intervals atomic.Int64
	f := New(Config{
		Shards:     8,
		QueueDepth: queueDepth,
		Tracker:    testConfig(),
		OnInterval: func(stream string, res core.IntervalResult) {
			if res.PhaseID < 0 {
				t.Errorf("stream %s: negative phase ID %d", stream, res.PhaseID)
			}
			intervals.Add(1)
		},
	})

	var wg sync.WaitGroup
	// Each producer owns an exclusive slice of streams, so per-stream
	// send order is preserved.
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for s := p; s < streams; s += producers {
				name := fmt.Sprintf("stream-%02d", s)
				events, cycles := synthStream(uint64(s), perStream)
				for i := 0; i < len(events); i += 64 {
					j := i + 64
					if j > len(events) {
						j = len(events)
					}
					var c uint64
					for k := i; k < j; k++ {
						c += cycles[k]
					}
					f.Send(Batch{Stream: name, Cycles: c, Events: events[i:j]})
				}
			}
		}(p)
	}

	// Concurrent readers: Report, Flush, and Snapshot while producers
	// are still sending.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(3)
	go func() {
		defer readers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			f.Report(fmt.Sprintf("stream-%02d", i%streams))
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			f.Flush()
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := f.Snapshot()
			for name, rep := range snap {
				if rep.TransitionIntervals > rep.Intervals {
					t.Errorf("stream %s: transition intervals %d > intervals %d",
						name, rep.TransitionIntervals, rep.Intervals)
				}
			}
		}
	}()

	wg.Wait()
	close(stop)
	readers.Wait()
	f.Flush()

	snap := f.Snapshot()
	f.Close()
	if len(snap) != streams {
		t.Fatalf("snapshot has %d streams, want %d", len(snap), streams)
	}
	var sum int64
	for name, rep := range snap {
		if rep.Intervals == 0 {
			t.Errorf("stream %s processed no intervals", name)
		}
		if rep.TransitionIntervals > rep.Intervals {
			t.Errorf("stream %s: transition intervals %d > intervals %d",
				name, rep.TransitionIntervals, rep.Intervals)
		}
		sum += int64(rep.Intervals)
	}
	if sum != intervals.Load() {
		t.Fatalf("per-stream interval counts sum to %d, OnInterval saw %d", sum, intervals.Load())
	}
}

// TestTransitionPhaseIsZero pins the reserved transition phase ID the
// fuzz harness and golden files rely on.
func TestTransitionPhaseIsZero(t *testing.T) {
	if classifier.TransitionPhase != 0 {
		t.Fatalf("TransitionPhase = %d, want 0", classifier.TransitionPhase)
	}
}
