// Benchmarks regenerating every table and figure of the paper's
// evaluation, one per artifact, plus throughput benchmarks for the
// on-line architecture. Each experiment benchmark measures the full
// configuration sweep over all eleven workloads; workload generation is
// cached across iterations and excluded from timing.
//
// The shared runner uses shortened workloads so `go test -bench=.`
// completes in minutes; run cmd/experiments -scale 1.0 for paper-length
// results (recorded in EXPERIMENTS.md).
package phasekit_test

import (
	"context"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"phasekit"
	"phasekit/internal/classifier"
	"phasekit/internal/core"
	"phasekit/internal/fleet"
	"phasekit/internal/harness"
	"phasekit/internal/rng"
	"phasekit/internal/server"
	"phasekit/internal/signature"
	"phasekit/internal/trace"
	"phasekit/internal/uarch"
	"phasekit/internal/wal"
	"phasekit/internal/wire"
	"phasekit/internal/workload"
)

var (
	benchOnce   sync.Once
	benchRunner *harness.Runner
)

// runner returns the shared experiment runner with all workloads
// pre-generated.
func runner(b *testing.B) *harness.Runner {
	b.Helper()
	benchOnce.Do(func() {
		benchRunner = harness.NewRunner(workload.Options{
			Scale:          0.1,
			IntervalInstrs: 2_000_000,
		})
		if err := benchRunner.Prefetch(workload.Names()); err != nil {
			panic(err)
		}
	})
	return benchRunner
}

// benchExperiment measures one experiment end to end (sweep +
// formatting), excluding workload generation.
func benchExperiment(b *testing.B, id string) {
	r := runner(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := r.Experiment(id)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

// BenchmarkTable1Model regenerates Table 1 (the baseline machine
// description).
func BenchmarkTable1Model(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFig2TableSize sweeps signature-table capacity (Figure 2).
func BenchmarkFig2TableSize(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig3Dimensions sweeps accumulator dimensionality (Figure 3).
func BenchmarkFig3Dimensions(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4TransitionPhase evaluates the transition phase study
// (Figure 4).
func BenchmarkFig4TransitionPhase(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5PhaseLengths measures stable/transition run lengths
// (Figure 5).
func BenchmarkFig5PhaseLengths(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6AdaptiveThreshold evaluates dynamic similarity
// thresholds (Figure 6).
func BenchmarkFig6AdaptiveThreshold(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7NextPhase evaluates next-phase prediction (Figure 7).
func BenchmarkFig7NextPhase(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8PhaseChange evaluates phase change prediction (Figure 8).
func BenchmarkFig8PhaseChange(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9PhaseLength evaluates run-length class prediction
// (Figure 9).
func BenchmarkFig9PhaseLength(b *testing.B) { benchExperiment(b, "fig9") }

// Ablation benchmarks for the design decisions called out in DESIGN.md.
func BenchmarkAblationFirstMatch(b *testing.B)  { benchExperiment(b, "ablation-match") }
func BenchmarkAblationStaticBits(b *testing.B)  { benchExperiment(b, "ablation-bits") }
func BenchmarkAblationReplacement(b *testing.B) { benchExperiment(b, "ablation-replace") }
func BenchmarkAblationFiltering(b *testing.B)   { benchExperiment(b, "ablation-filtering") }
func BenchmarkAblationHysteresis(b *testing.B)  { benchExperiment(b, "ablation-hyst") }

// BenchmarkTrackerBranch measures the on-line architecture's
// per-branch cost (Figure 1 steps 1-2 plus amortized interval-end
// classification and prediction).
func BenchmarkTrackerBranch(b *testing.B) {
	cfg := phasekit.DefaultConfig()
	cfg.IntervalInstrs = 1_000_000
	tracker := phasekit.NewTracker("bench", cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tracker.Branch(0x400000+uint64(i%64)*64, 100)
	}
}

// BenchmarkTrackerSerialStreams is the serial baseline for the Fleet
// benchmarks: one goroutine round-robining branch events over 64 bare
// Trackers, the way a non-concurrent front-end would serve 64 streams.
func BenchmarkTrackerSerialStreams(b *testing.B) {
	const streams = 64
	cfg := phasekit.DefaultConfig()
	cfg.IntervalInstrs = 1_000_000
	trackers := make([]*phasekit.Tracker, streams)
	for i := range trackers {
		trackers[i] = phasekit.NewTracker("bench-"+strconv.Itoa(i), cfg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trackers[i%streams].Branch(0x400000+uint64(i%64)*64, 100)
	}
}

// BenchmarkFleet measures aggregate branch-event throughput through the
// concurrent front-end, sweeping stream count and ingestion batch size.
// Each op is one branch event, so ns/op is directly comparable with
// BenchmarkTrackerBranch (the bare single-stream hot path) and
// BenchmarkTrackerSerialStreams (the serial 64-stream baseline).
func BenchmarkFleet(b *testing.B) {
	for _, streams := range []int{1, 8, 64} {
		for _, batch := range []int{1, 64, 1024} {
			b.Run(fmt.Sprintf("streams=%d/batch=%d", streams, batch), func(b *testing.B) {
				benchFleet(b, streams, batch)
			})
		}
	}
}

// benchBuf is one recyclable event buffer for the fleet benchmarks:
// the recycle closure is bound once at pool creation, so the timed
// loop allocates nothing per batch and allocs/op reflects the fleet,
// not the harness.
type benchBuf struct {
	ev      []phasekit.BranchEvent
	recycle func()
}

// newBenchPool returns a filled freelist of count buffers of batchLen
// events. Popping blocks when every buffer is in flight, which bounds
// the producer a few batches ahead of the shards — steady state for a
// well-behaved ingest front-end.
func newBenchPool(count, batchLen int) chan *benchBuf {
	free := make(chan *benchBuf, count)
	for i := 0; i < count; i++ {
		buf := &benchBuf{ev: make([]phasekit.BranchEvent, batchLen)}
		buf.recycle = func() { free <- buf }
		free <- buf
	}
	return free
}

func benchFleet(b *testing.B, streams, batchLen int) {
	cfg := phasekit.DefaultFleetConfig()
	cfg.Tracker.IntervalInstrs = 1_000_000
	f := phasekit.NewFleet(cfg)
	pools := make([]chan *benchBuf, streams)
	for s := range pools {
		pools[s] = newBenchPool(8, batchLen)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	// Distribute b.N exactly: the first rem streams send one extra
	// event, so the total sent equals b.N and ns/op stays honest
	// (rounding every stream up would send up to streams-1 extras).
	base, rem := b.N/streams, b.N%streams
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			per := base
			if s < rem {
				per++
			}
			name := "bench-" + strconv.Itoa(s)
			free := pools[s]
			for sent := 0; sent < per; {
				n := batchLen
				if per-sent < n {
					n = per - sent
				}
				// Pooled buffer: ownership transfers on Send and comes
				// back through Recycle once the shard applied it.
				buf := <-free
				events := buf.ev[:n]
				for i := range events {
					events[i] = phasekit.BranchEvent{
						PC:     0x400000 + uint64((sent+i)%64)*64,
						Instrs: 100,
					}
				}
				f.Send(phasekit.Batch{Stream: name, Events: events, Recycle: buf.recycle})
				sent += n
			}
		}(s)
	}
	wg.Wait()
	f.Flush()
	b.StopTimer()
	f.Close()
}

// stateBenchTracker builds a tracker with well-exercised state (many
// intervals, multiple promoted phases, trained predictors) so the
// snapshot/restore benchmarks measure a realistic payload.
func stateBenchTracker() (*phasekit.Tracker, phasekit.Config) {
	cfg := phasekit.DefaultConfig()
	cfg.IntervalInstrs = 100_000
	tr := phasekit.NewTracker("bench", cfg)
	for i := 0; i < 200_000; i++ {
		region := uint64(1 + (i/20_000)%5)
		tr.Cycles(120)
		tr.Branch(region*0x100000+uint64(i%64)*64, 100)
	}
	return tr, cfg
}

// BenchmarkSnapshot measures serializing a tracker's complete state
// (the per-eviction cost of a Fleet resident limit). The buffer is
// reused, as Fleet shards do.
func BenchmarkSnapshot(b *testing.B) {
	tr, _ := stateBenchTracker()
	buf := tr.Snapshot()
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tr.AppendSnapshot(buf[:0])
	}
}

// BenchmarkRestore measures decoding a snapshot into a live tracker
// (the per-rehydration cost when an evicted stream's next batch
// arrives).
func BenchmarkRestore(b *testing.B) {
	tr, cfg := stateBenchTracker()
	snap := tr.Snapshot()
	target := phasekit.NewTracker("bench", cfg)
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := target.Restore(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestoreInto measures decoding a snapshot in place into a
// tracker that already holds the same stream's tables — the fleet's
// rehydration path, where pooled shells are restored with
// core.RestoreInto.
func BenchmarkRestoreInto(b *testing.B) {
	tr, cfg := stateBenchTracker()
	snap := tr.Snapshot()
	shell := phasekit.NewTracker("bench", cfg)
	if err := core.RestoreInto(shell, snap); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.RestoreInto(shell, snap); err != nil {
			b.Fatal(err)
		}
	}
}

// churnSink feeds a generated workload's events straight into a
// tracker.
type churnSink struct{ tr *phasekit.Tracker }

func (s churnSink) Event(ev uarch.BlockEvent, cycles uint64) {
	s.tr.Cycles(cycles)
	s.tr.Branch(ev.BranchPC, ev.Instrs)
}

func (churnSink) EndInterval(int) {}

// churnBenchTracker builds a tracker the size of a classify-churn
// stream's: gcc/1's corpus as perfbench generates it (96 intervals of
// its phase script at scale 0.25, about 635k events) tracked at
// 100k-instruction intervals, which leaves a snapshot of about 20 KB
// holding some 320 phases. stateBenchTracker's payload is about 7x
// cheaper to restore, so it understates the eviction round trip.
func churnBenchTracker(b *testing.B) (*phasekit.Tracker, phasekit.Config) {
	cfg := phasekit.DefaultConfig()
	cfg.IntervalInstrs = 100_000
	tr := phasekit.NewTracker("churn", cfg)
	spec, err := workload.Get("gcc/1")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := workload.Stream(spec, workload.Options{Scale: 0.25, MaxIntervals: 96}, churnSink{tr}); err != nil {
		b.Fatal(err)
	}
	return tr, cfg
}

// BenchmarkSnapshotChurn measures serializing a classify-churn-sized
// tracker into a reused buffer, the fleet's per-eviction encode.
func BenchmarkSnapshotChurn(b *testing.B) {
	tr, _ := churnBenchTracker(b)
	buf := tr.Snapshot()
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tr.AppendSnapshot(buf[:0])
	}
}

// BenchmarkRestoreIntoChurn measures decoding a classify-churn-sized
// snapshot in place into a warm shell, the fleet's per-rehydration
// decode.
func BenchmarkRestoreIntoChurn(b *testing.B) {
	tr, cfg := churnBenchTracker(b)
	snap := tr.Snapshot()
	shell := phasekit.NewTracker("churn", cfg)
	if err := core.RestoreInto(shell, snap); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.RestoreInto(shell, snap); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRestoreIntoAllocBound pins that an in-place restore into a warm
// shell allocates only the stream name: not the tables, and not the
// change tables' prediction sets, which are built when first probed
// (an atomic Tracker.Restore of the same snapshot makes about 40
// allocations).
func TestRestoreIntoAllocBound(t *testing.T) {
	tr, cfg := stateBenchTracker()
	snap := tr.Snapshot()
	shell := phasekit.NewTracker("bench", cfg)
	if err := core.RestoreInto(shell, snap); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := core.RestoreInto(shell, snap); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("in-place restore made %.1f allocations, want <= 1", allocs)
	}
}

// BenchmarkFleetEvicting measures branch-event throughput while the
// Fleet constantly evicts and rehydrates: 64 streams round-robining
// over 8 resident slots, so nearly every batch pays one snapshot and
// one restore. Comparable with BenchmarkFleet (unbounded residency).
func BenchmarkFleetEvicting(b *testing.B) {
	const (
		streams  = 64
		batchLen = 1024
	)
	cfg := phasekit.DefaultFleetConfig()
	cfg.Tracker.IntervalInstrs = 1_000_000
	cfg.Shards = 4
	cfg.MaxResident = 8
	cfg.Store = phasekit.NewMemStore()
	f := phasekit.NewFleet(cfg)
	free := newBenchPool(16, batchLen)
	b.ReportAllocs()
	b.ResetTimer()
	for sent := 0; sent < b.N; {
		n := batchLen
		if b.N-sent < n {
			n = b.N - sent
		}
		buf := <-free
		events := buf.ev[:n]
		for i := range events {
			events[i] = phasekit.BranchEvent{PC: 0x400000 + uint64((sent+i)%64)*64, Instrs: 100}
		}
		f.Send(phasekit.Batch{
			Stream:  "bench-" + strconv.Itoa((sent/batchLen)%streams),
			Events:  events,
			Recycle: buf.recycle,
		})
		sent += n
	}
	f.Flush()
	b.StopTimer()
	f.Close()
}

// BenchmarkEvaluateWorkload measures replaying one cached profiled run
// through the full architecture.
func BenchmarkEvaluateWorkload(b *testing.B) {
	r := runner(b)
	run, err := r.Run("gcc/1")
	if err != nil {
		b.Fatal(err)
	}
	cfg := phasekit.DefaultConfig()
	cfg.IntervalInstrs = 2_000_000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		phasekit.Evaluate(run, cfg)
	}
}

// BenchmarkGenerateWorkload measures synthetic workload generation with
// the Table 1 timing model (the substrate cost).
func BenchmarkGenerateWorkload(b *testing.B) {
	opts := phasekit.WorkloadOptions{Scale: 0.02, IntervalInstrs: 1_000_000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := phasekit.GenerateWorkload("bzip2/g", opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClassifyLongTable measures interval classification against
// a fully promoted 64-row signature table on a phase-revisit stream —
// the long-table shape the classifier's sum-bucketed index and MRU
// fast path accelerate over the linear scan. One op = one Classify.
func BenchmarkClassifyLongTable(b *testing.B) {
	const entries, dims = 64, 32
	ccfg := classifier.DefaultConfig()
	ccfg.TableEntries = entries
	ccfg.Adaptive = false
	c := classifier.New(ccfg)
	x := rng.NewXoshiro256(0xbeef)
	bases := make([]signature.Vector, entries)
	for e := range bases {
		v := make(signature.Vector, dims)
		// Distinct magnitude per base spreads the rows across sum
		// buckets, like distinct phases with distinct activity levels.
		scale := uint64(e+1) * 97
		for i := range v {
			v[i] = uint16((x.Uint64() % 32) + scale)
		}
		bases[e] = v
	}
	for round := 0; round < 12; round++ {
		for e := range bases {
			c.Classify(bases[e], 1.0)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Classify(bases[i%entries], 1.0)
	}
}

// BenchmarkServerIngest measures macro ingest throughput through the
// real network stack: pipelined wire clients over TCP loopback into an
// internal/server instance, burst-coalesced into per-shard fleet runs.
// One op = one branch event, so ns/op is comparable with the Fleet
// benchmarks and events/s is reported directly. This is the
// `-wal-sync=off` configuration and the name the benchdiff gate pins.
func BenchmarkServerIngest(b *testing.B) {
	benchServerIngest(b, nil)
}

// BenchmarkServerIngestWALGroup is the same workload with ACKs held
// for per-shard group-commit WAL durability (`-wal-sync=group`).
// Reported, not gated: the target is ≤2× the BenchmarkServerIngest
// ns/event (see EXPERIMENTS.md), since fsyncs amortize across every
// batch coalesced into the commit window.
func BenchmarkServerIngestWALGroup(b *testing.B) {
	const shards = 4
	dir := b.TempDir()
	logs := make([]*wal.Log, shards)
	for i := range logs {
		l, err := wal.Open(wal.Options{
			Dir:  filepath.Join(dir, fmt.Sprintf("shard-%d", i)),
			Sync: wal.SyncGroup,
		})
		if err != nil {
			b.Fatal(err)
		}
		logs[i] = l
	}
	defer func() {
		for _, l := range logs {
			l.Close()
		}
	}()
	benchServerIngest(b, logs)
}

func benchServerIngest(b *testing.B, walLogs []*wal.Log) {
	const (
		conns          = 4
		streamsPerConn = 4
		batchLen       = 512
		window         = 32
	)
	tcfg := phasekit.DefaultConfig()
	tcfg.IntervalInstrs = 1_000_000
	f := fleet.New(fleet.Config{
		Shards:     4,
		QueueDepth: 512,
		Overload:   fleet.OverloadBlock,
		Tracker:    tcfg,
	})
	srv, err := server.New(server.Config{Fleet: f, WAL: walLogs})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	clients := make([]*wire.Client, conns)
	streams := make([][]string, conns)
	for ci := range clients {
		c, err := wire.Dial(ln.Addr().String(), 10*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		c.Window = window
		clients[ci] = c
		streams[ci] = make([]string, streamsPerConn)
		for si := range streams[ci] {
			streams[ci][si] = "conn" + strconv.Itoa(ci) + "-s" + strconv.Itoa(si)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	base, rem := b.N/conns, b.N%conns
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := clients[ci]
			per := base
			if ci < rem {
				per++
			}
			events := make([]trace.BranchEvent, batchLen)
			for sent, batch := 0, 0; sent < per; batch++ {
				n := batchLen
				if per-sent < n {
					n = per - sent
				}
				evs := events[:n]
				for i := range evs {
					evs[i] = trace.BranchEvent{
						PC:     0x400000 + uint64((sent+i)%64)*64,
						Instrs: 100,
					}
				}
				stream := streams[ci][batch%streamsPerConn]
				if err := c.QueueBatch(stream, uint64(n)*120, evs, false); err != nil {
					b.Error(err)
					return
				}
				sent += n
			}
			if err := c.Drain(); err != nil {
				b.Error(err)
			}
		}(ci)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")

	for _, c := range clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		b.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		b.Fatal(err)
	}
	f.Close()
}

// walEventSink collects a workload's branch events.
type walEventSink struct{ events []trace.BranchEvent }

func (s *walEventSink) Event(ev uarch.BlockEvent, _ uint64) {
	s.events = append(s.events, trace.BranchEvent{PC: ev.BranchPC, Instrs: ev.Instrs})
}

func (s *walEventSink) EndInterval(int) {}

// walBenchRecords are the WAL benchmarks' records: the first two
// 10M-instruction intervals of each of the eleven programs, cut into
// 512-event batches as a client sends them and the server logs them.
var walBenchRecords = sync.OnceValues(func() ([]wal.Record, error) {
	const batchLen = 512
	var recs []wal.Record
	for _, name := range workload.Names() {
		spec, err := workload.Get(name)
		if err != nil {
			return nil, err
		}
		sink := &walEventSink{}
		if _, err := workload.Stream(spec, workload.Options{Scale: 0.25, MaxIntervals: 2}, sink); err != nil {
			return nil, err
		}
		for k := 0; (k+1)*batchLen <= len(sink.events); k++ {
			recs = append(recs, wal.Record{Stream: name, Seq: uint64(k + 1), Cycles: 1000 * batchLen, Events: sink.events[k*batchLen : (k+1)*batchLen]})
		}
	}
	return recs, nil
})

// walDirBytes is the size of every file in dir.
func walDirBytes(b *testing.B, dir string) int64 {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			info, ierr := d.Info()
			if ierr != nil {
				return ierr
			}
			n += info.Size()
		}
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
	return n
}

// BenchmarkWALAppend measures Log.Append on the eleven programs' event
// batches: record encoding, framing, CRC and the buffered write-through
// to the active segment, with a Commit (no fsync) every 32 appends. One
// op is one record of 512 events; ns/event, and the log's bytes per
// event, are reported too. The log is truncated, untimed, every 4096
// records to bound its disk use.
func BenchmarkWALAppend(b *testing.B) {
	recs, err := walBenchRecords()
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncOff})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	var events, bytes int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := &recs[i%len(recs)]
		lsn, err := l.Append(rec)
		if err != nil {
			b.Fatal(err)
		}
		events += int64(len(rec.Events))
		if i%32 == 31 || i == b.N-1 {
			if err := l.Commit(lsn); err != nil {
				b.Fatal(err)
			}
		}
		if i%4096 == 4095 || i == b.N-1 {
			b.StopTimer()
			bytes += walDirBytes(b, dir)
			if err := l.Truncate(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(bytes)/float64(events), "B/event")
}

// BenchmarkWALOpen measures Open's recovery scan — every frame of every
// segment read and CRC-checked, segments verified concurrently — and
// Close, over the records of walBenchRecords written 16 times into 1 MiB
// segments. One op is one Open of the whole log; ns/event is per event
// the log holds. The empty segment each Open starts is removed, untimed.
func BenchmarkWALOpen(b *testing.B) {
	recs, err := walBenchRecords()
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncOff, SegmentBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	var events int64
	const passes = 16
	for pass := 0; pass < passes; pass++ {
		for i := range recs {
			if _, err := l.Append(&recs[i]); err != nil {
				b.Fatal(err)
			}
			events += int64(len(recs[i].Events))
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(walDirBytes(b, dir))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncOff})
		if err != nil {
			b.Fatal(err)
		}
		if st := l.Recovered(); st.Records != passes*len(recs) || st.Segments != len(segs) {
			b.Fatalf("recovered %+v, want %d records in %d segments", st, passes*len(recs), len(segs))
		}
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		now, err := filepath.Glob(filepath.Join(dir, "*.wal"))
		if err != nil {
			b.Fatal(err)
		}
		for _, path := range now[len(segs):] { // Glob sorts; numbers are zero-padded
			if err := os.Remove(path); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*events), "ns/event")
}

// BenchmarkWALReplay measures Replay of a log holding every record of
// walBenchRecords once: segment reads, CRC checks and record decoding
// into fresh event slices. One op is one replay of the whole log.
func BenchmarkWALReplay(b *testing.B) {
	recs, err := walBenchRecords()
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncOff})
	if err != nil {
		b.Fatal(err)
	}
	var events int64
	for i := range recs {
		if _, err := l.Append(&recs[i]); err != nil {
			b.Fatal(err)
		}
		events += int64(len(recs[i].Events))
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	size := walDirBytes(b, dir)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int64
		if _, err := wal.Replay(dir, func(r wal.Record) error {
			n += int64(len(r.Events))
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if n != events {
			b.Fatalf("replayed %d events, want %d", n, events)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*events), "ns/event")
	b.ReportMetric(float64(size)/float64(events), "B/event")
}

// Comparison and extended-ablation benchmarks.
func BenchmarkSimPointComparison(b *testing.B) { benchExperiment(b, "simpoint") }
func BenchmarkBaselineWset(b *testing.B)       { benchExperiment(b, "baseline-wset") }
func BenchmarkAblationConfidence(b *testing.B) { benchExperiment(b, "ablation-conf") }
func BenchmarkAblationDepth(b *testing.B)      { benchExperiment(b, "ablation-depth") }
func BenchmarkMetricPrediction(b *testing.B)   { benchExperiment(b, "metricpred") }
func BenchmarkGranularity(b *testing.B)        { benchExperiment(b, "granularity") }
