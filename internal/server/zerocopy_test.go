package server

// Zero-copy ingest pins: the server's ingest path (wire decode →
// staged run → fleet enqueue → ack) must not allocate in steady state,
// and the zero-copy view decode must drive the fleet to byte-identical
// phase sequences as the copying reference decode.

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"phasekit/internal/core"
	"phasekit/internal/fleet"
	"phasekit/internal/trace"
	"phasekit/internal/wal"
	"phasekit/internal/wire"
)

// servePass runs one WAL-off read-loop pass over a lone frame's
// payload, as serveConn does — stage the frame, enqueue the staged
// run, encode the response — and returns the response.
func servePass(s *Server, cs *connState, wbuf, payload []byte) []byte {
	s.stageFrame(cs, payload)
	s.enqueueRuns(cs)
	wbuf = s.appendResponses(wbuf, cs.slots, cs.ctrl)
	cs.slots, cs.ctrl = cs.slots[:0], cs.ctrl[:0]
	return wbuf
}

// TestLoneFrameZeroAlloc pins the WAL-off path of a lone frame, which
// is a one-frame pass of the staged path — DecodeFrameView into a
// pooled buffer, stream-name interning, a one-batch TrySendRun, ack
// encoding — at zero allocations per frame once the connection's pools
// have warmed up, and then the whole path with the shard's work
// included (shardMallocsPerFrame). Every frame closes an interval on
// a stable phase, so each boundary's next-phase prediction falls back
// to last value.
func TestLoneFrameZeroAlloc(t *testing.T) {
	f := fleet.New(fleet.Config{Shards: 1, QueueDepth: eventBufs, Tracker: testTrackerConfig()})
	defer f.Close()
	s, err := New(Config{Fleet: f})
	if err != nil {
		t.Fatal(err)
	}

	events := intervalEvents()
	payload := wire.AppendBatchFrame(nil, wire.Batch{
		Seq: 7, StreamSeq: 1, Stream: "alloc-pin", Cycles: 12_000, EndInterval: true, Events: events,
	})[4:] // strip the length prefix: stageFrame takes the payload

	cs := newConnState(f.Shards())
	wbuf := make([]byte, 0, 256)
	var streamSeq uint64
	frame := func() {
		streamSeq++
		restamp(payload, streamSeq)
		if wbuf = servePass(s, cs, wbuf[:0], payload); len(wbuf) == 0 {
			t.Fatal("no response encoded")
		}
	}
	for i := 0; i < 2*eventBufs; i++ {
		frame()
	}
	f.Flush()
	fillPools(s, cs, len(events), 1)
	// Keep the measured burst within the pool: in-flight frames beyond
	// it would grow the pool, which is expected producer-outruns-
	// consumer behaviour, not a per-frame allocation.
	if allocs := testing.AllocsPerRun(eventBufs/2, frame); allocs != 0 {
		t.Fatalf("lone-frame ingest allocates %v per frame in steady state, want 0", allocs)
	}
	const frames = eventBufs / 2
	before, _ := f.Report("alloc-pin")
	perFrame := shardMallocsPerFrame(f, frames, frame)
	after, _ := f.Report("alloc-pin")
	if lv := after.NextPhase.LVConfCorrect - before.NextPhase.LVConfCorrect; lv != frames || after.PhaseIDs != before.PhaseIDs {
		t.Fatalf("%d of %d intervals were a stable phase predicted by last value", lv, frames)
	}
	if perFrame != 0 {
		t.Fatalf("lone frames closing intervals allocate %.3f per frame, shard included, want 0", perFrame)
	}
}

// shardMallocsPerFrame calls frame n times and returns the process's
// heap allocations per call, counted over a window that closes only
// after f.Flush has returned, so it includes the shard's work of
// applying every measured frame, less what an idle Flush allocates.
// testing.AllocsPerRun cannot see that work: in WAL-off mode the shard
// applies a frame after it is acknowledged, outside the measured
// calls, and AllocsPerRun rounds down to whole allocations per call.
func shardMallocsPerFrame(f *fleet.Fleet, n int, frame func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mallocs := func() uint64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.Mallocs
	}
	f.Flush()
	start := mallocs()
	f.Flush()
	idle := mallocs() - start
	start = mallocs()
	for range n {
		frame()
	}
	f.Flush()
	return float64(mallocs()-start-idle) / float64(n)
}

// restamp writes seq as a batch payload's stream sequence, in place
// (it follows the section header and the connection seq), so a reused
// payload is applied each time rather than dropped as a duplicate.
func restamp(payload []byte, seq uint64) {
	binary.LittleEndian.PutUint64(payload[2+8:], seq)
}

// fillPools tops the connection's freelists up to capacity with
// buffers sized for events-long batches and runs of batches. AllocsPerRun measures at
// GOMAXPROCS 1, where the shard goroutine drains only when the loop
// yields, so every measured frame may be in flight at once; a pool
// warmed at full parallelism can be shallower than that.
func fillPools(s *Server, cs *connState, events, batches int) {
	bufs := make([]*eventBuf, cap(cs.free))
	for i := range bufs {
		if bufs[i] = s.getBuf(cs); len(bufs[i].events) < events {
			bufs[i].events = make([]trace.BranchEvent, events)
		}
	}
	for _, b := range bufs {
		b.recycle()
	}
	runs := make([]*runBuf, cap(cs.runFree))
	for i := range runs {
		if runs[i] = cs.getRun(); cap(runs[i].batches) < batches {
			runs[i].batches = make([]fleet.Batch, 0, batches)
		}
	}
	for _, rb := range runs {
		rb.release()
	}
}

// TestLaggingShardZeroAlloc pins the event-buffer cap. Bursts of
// frames are queued as one run each, so a shard that lags its
// connection would hold far more than eventBufs buffers: AllocsPerRun
// measures at GOMAXPROCS 1, where the shard applies nothing until the
// read loop blocks, and the measured passes stage twice eventBufs
// frames. getBuf must then wait for the shard to recycle a buffer
// rather than decode into a fresh one, keeping the WAL-off path at
// zero allocations per frame.
func TestLaggingShardZeroAlloc(t *testing.T) {
	// No frame closes an interval: the shard's work is accumulation
	// alone, so every allocation left to count is the ingest path's.
	cfg := testTrackerConfig()
	cfg.IntervalInstrs = 1 << 40
	f := fleet.New(fleet.Config{Shards: 1, Tracker: cfg})
	defer f.Close()
	s, err := New(Config{Fleet: f})
	if err != nil {
		t.Fatal(err)
	}
	events := intervalEvents()
	payload := wire.AppendBatchFrame(nil, wire.Batch{
		Seq: 7, StreamSeq: 1, Stream: "lagging", Cycles: 12_000, Events: events,
	})[4:]

	const burst = 8
	cs := newConnState(f.Shards())
	wbuf := make([]byte, 0, 256)
	var streamSeq uint64
	pass := func() {
		for i := 0; i < burst; i++ {
			streamSeq++
			restamp(payload, streamSeq)
			s.stageFrame(cs, payload)
		}
		s.enqueueRuns(cs)
		if wbuf = s.appendResponses(wbuf[:0], cs.slots, cs.ctrl); len(wbuf) == 0 {
			t.Fatal("no response encoded")
		}
		for _, sl := range cs.slots {
			if sl.err != nil {
				t.Fatalf("frame refused: %v", sl.err)
			}
		}
		cs.slots, cs.ctrl = cs.slots[:0], cs.ctrl[:0]
	}
	// Warm up lagging too, so the wait path's one-time setup (its
	// timer) is behind us before measuring.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 2*eventBufs/burst; i++ {
		pass()
	}
	f.Flush()
	fillPools(s, cs, len(events), burst)
	if allocs := testing.AllocsPerRun(2*eventBufs/burst, pass); allocs != 0 {
		t.Fatalf("ingest behind a lagging shard allocates %v per %d-frame burst, want 0", allocs, burst)
	}
	if perFrame := shardMallocsPerFrame(f, 2*eventBufs/burst, pass) / burst; perFrame != 0 {
		t.Fatalf("ingest behind a lagging shard allocates %.3f per frame, shard included, want 0", perFrame)
	}
	if n := cs.bufs.Load(); n > eventBufs {
		t.Fatalf("%d event buffers circulate, cap is %d", n, eventBufs)
	}
}

// TestWALIngestPathZeroAlloc pins the WAL-mode path — stage, admit,
// append, hand off to the responder, commit, encode the ACK, recycle
// the pending record — at zero allocations per frame once the
// connection's pools have warmed up, and then with the shard's work of
// applying each interval-closing frame included (shardMallocsPerFrame). With one shard every pass dirties
// a single log, which the responder commits inline; a pass dirtying
// k > 1 shards starts k−1 commit goroutines and allocates for each.
func TestWALIngestPathZeroAlloc(t *testing.T) {
	f := fleet.New(fleet.Config{Shards: 1, QueueDepth: eventBufs, Tracker: testTrackerConfig()})
	defer f.Close()
	l, err := wal.Open(wal.Options{Dir: t.TempDir(), Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s, err := New(Config{Fleet: f, WAL: []*wal.Log{l}})
	if err != nil {
		t.Fatal(err)
	}
	payload := wire.AppendBatchFrame(nil, wire.Batch{
		Seq: 7, StreamSeq: 1, Stream: "alloc-pin", Cycles: 12_000, EndInterval: true, Events: intervalEvents(),
	})[4:]

	cs := newConnState(f.Shards())
	cs.pipe = newAckPipe()
	w := newCommitWindow(1)
	var taken []*pendingBurst
	wbuf := make([]byte, 0, 256)
	var streamSeq uint64
	frame := func() {
		streamSeq++
		restamp(payload, streamSeq)
		s.stageFrame(cs, payload)
		s.enqueueRuns(cs)
		cs.pipe.handOff(cs)
		taken = cs.pipe.take(taken)
		if wbuf = s.answer(wbuf[:0], taken, w); len(wbuf) == 0 {
			t.Fatal("no response encoded")
		}
		cs.pipe.release(taken)
	}
	for i := 0; i < 2*eventBufs; i++ {
		frame()
	}
	f.Flush()
	fillPools(s, cs, len(intervalEvents()), 1)
	if allocs := testing.AllocsPerRun(eventBufs/2, frame); allocs != 0 {
		t.Fatalf("WAL ingest path allocates %v per frame in steady state, want 0", allocs)
	}
	if perFrame := shardMallocsPerFrame(f, eventBufs/2, frame); perFrame != 0 {
		t.Fatalf("WAL ingest path allocates %.3f per frame, shard included, want 0", perFrame)
	}
}

// TestZeroCopyDecodeGolden drives two identical fleets — one through
// the server's ingest path, a frame per pass (DecodeFrameView + pooled
// buffers + TrySendRun), one through the copying reference decode
// (DecodeFrame + Send) — and requires byte-identical per-stream phase
// sequences.
func TestZeroCopyDecodeGolden(t *testing.T) {
	type obs struct {
		mu   sync.Mutex
		seqs map[string][]int
	}
	newObs := func() *obs { return &obs{seqs: make(map[string][]int)} }
	record := func(o *obs) func(stream string, res core.IntervalResult) {
		return func(stream string, res core.IntervalResult) {
			o.mu.Lock()
			o.seqs[stream] = append(o.seqs[stream], res.PhaseID)
			o.mu.Unlock()
		}
	}

	viewObs, refObs := newObs(), newObs()
	viewFleet := fleet.New(fleet.Config{Shards: 2, Tracker: testTrackerConfig(), OnInterval: record(viewObs)})
	defer viewFleet.Close()
	refFleet := fleet.New(fleet.Config{Shards: 2, Tracker: testTrackerConfig(), OnInterval: record(refObs)})
	defer refFleet.Close()

	s, err := New(Config{Fleet: viewFleet})
	if err != nil {
		t.Fatal(err)
	}
	cs := newConnState(viewFleet.Shards())
	wbuf := make([]byte, 0, 256)

	// Several streams with phase-varied event mixes, interleaved so
	// pooled buffers are reused across streams mid-run.
	streams := []string{"alpha", "beta", "gamma"}
	for round := 0; round < 30; round++ {
		for si, stream := range streams {
			events := make([]trace.BranchEvent, 50)
			for i := range events {
				// Shift the PC working set per stream and per phase
				// regime so classifications actually differ.
				base := 0x400000 + uint64(si)<<20 + uint64(round/10)<<12
				events[i] = trace.BranchEvent{PC: base + uint64(i%16)*64, Instrs: 100}
			}
			b := wire.Batch{
				Seq:         uint64(round),
				StreamSeq:   uint64(round + 1),
				Stream:      stream,
				Cycles:      uint64(5_000 + 1_000*si),
				EndInterval: round%5 == 4,
				Events:      events,
			}
			payload := wire.AppendBatchFrame(nil, b)[4:]

			// Zero-copy path: through the server's ingest path.
			if wbuf = servePass(s, cs, wbuf[:0], payload); len(wbuf) == 0 {
				t.Fatal("no response encoded")
			}

			// Reference path: copying decode, blocking send.
			fr, err := wire.DecodeFrame(payload)
			if err != nil {
				t.Fatal(err)
			}
			if err := refFleet.Send(fleet.Batch{
				Stream:      fr.Batch.Stream,
				Cycles:      fr.Batch.Cycles,
				Events:      fr.Batch.Events,
				EndInterval: fr.Batch.EndInterval,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	viewFleet.Flush()
	refFleet.Flush()

	for _, stream := range streams {
		v := fmt.Sprint(viewObs.seqs[stream])
		r := fmt.Sprint(refObs.seqs[stream])
		if v != r {
			t.Errorf("stream %q phase sequence diverged:\nzero-copy: %s\nreference: %s", stream, v, r)
		}
		if len(viewObs.seqs[stream]) == 0 {
			t.Errorf("stream %q produced no intervals; test is vacuous", stream)
		}
	}
}

// TestDecodeFrameViewMatchesDecodeFrame pins the view decoder against
// the copying decoder field-for-field across every frame kind.
func TestDecodeFrameViewMatchesDecodeFrame(t *testing.T) {
	events := intervalEvents()
	payloads := [][]byte{
		wire.AppendBatchFrame(nil, wire.Batch{Seq: 1, StreamSeq: 1, Stream: "s", Cycles: 9, EndInterval: true, Events: events})[4:],
		wire.AppendBatchFrame(nil, wire.Batch{Seq: 2, StreamSeq: 1, Stream: "", Events: nil})[4:],
		wire.AppendBatchFrame(nil, wire.Batch{Seq: 3, Stream: "unstamped", Events: events})[4:],
		wire.AppendFlushFrame(nil, 3)[4:],
		wire.AppendAckFrame(nil, 4)[4:],
		wire.AppendNackFrame(nil, 5, wire.NackOverload, "busy")[4:],
		{0x99, 0x01},    // unknown tag
		{wire.TagBatch}, // truncated
		{},              // empty
	}
	for i, payload := range payloads {
		ref, refErr := wire.DecodeFrame(payload)
		view, viewErr := wire.DecodeFrameView(payload, nil)
		if (refErr == nil) != (viewErr == nil) {
			t.Fatalf("payload %d: error mismatch: ref %v, view %v", i, refErr, viewErr)
		}
		if view.Tag != ref.Tag || view.Seq != ref.Seq || view.Code != ref.Code {
			t.Fatalf("payload %d: header mismatch: ref %+v, view %+v", i, ref, view)
		}
		if string(view.Detail) != ref.Detail {
			t.Fatalf("payload %d: detail mismatch: %q vs %q", i, view.Detail, ref.Detail)
		}
		if ref.Tag == wire.TagBatch && refErr == nil {
			if string(view.Stream) != ref.Batch.Stream ||
				view.Cycles != ref.Batch.Cycles || view.EndInterval != ref.Batch.EndInterval {
				t.Fatalf("payload %d: batch header mismatch: ref %+v, view %+v", i, ref.Batch, view)
			}
			if len(view.Events) != len(ref.Batch.Events) {
				t.Fatalf("payload %d: event count %d vs %d", i, len(view.Events), len(ref.Batch.Events))
			}
			for j := range view.Events {
				if view.Events[j] != ref.Batch.Events[j] {
					t.Fatalf("payload %d event %d: %+v vs %+v", i, j, view.Events[j], ref.Batch.Events[j])
				}
			}
		}
	}
}
