package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"phasekit/internal/classifier"
	"phasekit/internal/core"
	"phasekit/internal/faults"
	"phasekit/internal/fleet"
	"phasekit/internal/signature"
	"phasekit/internal/trace"
	"phasekit/internal/wal"
	"phasekit/internal/wire"
)

// walGroup is how many ladder appends one ladder commit covers.
const walGroup = 128

// tracer keeps spans in memory. When off, begin and end do nothing, so
// the same code warms state up untimed.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) begin(n spanName, parent, batch int32) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: n, start: int64(time.Since(t.t0)), parent: parent, batch: batch})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].end = int64(time.Since(t.t0))
	}
}

// ladder is the traced run: the state of every rung and what it
// measured.
type ladder struct {
	tr         tracer
	times      [numSpanNames]layerTime
	events     int64
	frameBytes int64
	fleetCPUNs int64
	walBytes   int64

	streams []*stream
	cfg     core.Config
	shardOf []int // stream index to fleet shard

	wbuf  []byte // wire rung
	evbuf []trace.BranchEvent

	sig []sigStream // signature and classifier rung

	core     []coreStream // core rung
	quota    int
	resident []int
	pool     []*core.Tracker
	snapBuf  []byte
	clock    uint64

	fleet *fleet.Fleet // fleet rung

	logs  []*wal.Log // WAL rung
	lsn   []wal.LSN
	dirty []bool
}

// batchRef is one batch of the ladder's input: stream si's batch k.
type batchRef struct {
	si, k int
}

// ladderChunk is how many batches each rung takes in turn. Rungs are
// interleaved chunk by chunk, so a slow spell on a shared machine lands
// on every rung alike instead of on whichever rung ran during it.
const ladderChunk = 1024

// runLadder replays the timed window's batches — the same batches, in
// the generator's order — through each layer's public calls, with a
// span around every call. State that the server would already hold
// (the crash image) is built untimed first.
func runLadder(w workloadDef, streams []*stream, walDir string) (*ladder, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	l := &ladder{tr: tracer{t0: time.Now()}, streams: streams, cfg: trackerConfig(w.interval)}
	if err := l.open(w, walDir); err != nil {
		return nil, err
	}
	defer l.close()
	var timed []batchRef
	for k := 0; k < w.crashBatches+w.batches; k++ {
		for si := range streams {
			b := batchRef{si, k}
			if k >= w.crashBatches {
				timed = append(timed, b)
				continue
			}
			l.sigStep(-1, b)
			l.coreStep(-1, b)
			if err := l.fleet.Send(l.fleetBatch(b)); err != nil {
				return nil, err
			}
		}
	}
	l.fleet.ClassifierStats() // a queue barrier without side effects
	l.events = int64(len(timed)) * batchEvents
	l.tr.on = true
	for lo := 0; lo < len(timed); lo += ladderChunk {
		chunk := timed[lo:min(lo+ladderChunk, len(timed))]
		for i, b := range chunk {
			if err := l.wireStep(lo+i, b); err != nil {
				return nil, err
			}
		}
		for i, b := range chunk {
			l.sigStep(lo+i, b)
		}
		for i, b := range chunk {
			l.coreStep(lo+i, b)
		}
		if err := l.fleetChunk(chunk); err != nil {
			return nil, err
		}
		if l.logs != nil {
			for i, b := range chunk {
				if err := l.walStep(lo+i, b, lo+i == len(timed)-1); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := l.fleet.Err(); err != nil {
		return nil, err
	}
	l.times = selfTimes(l.tr.spans)
	if l.logs != nil {
		return l, l.walSize(walDir)
	}
	return l, nil
}

// open builds every rung's state: per-stream accumulators, classifiers
// and trackers, a fleet configured as the server's, and, for WAL
// workloads, per-shard logs in group-commit mode with the server's
// fixed fsync delay.
func (l *ladder) open(w workloadDef, walDir string) error {
	fcfg := fleet.Config{Shards: shards, Tracker: l.cfg, MaxResident: w.resident, Retry: fleet.RetryPolicy{MaxRetries: 3}}
	if w.resident > 0 {
		fcfg.Store = faults.Wrap(fleet.NewMemStore(), faults.Schedule{})
	}
	l.fleet = fleet.New(fcfg)
	l.evbuf = make([]trace.BranchEvent, batchEvents)
	l.sig = make([]sigStream, len(l.streams))
	l.core = make([]coreStream, len(l.streams))
	l.shardOf = make([]int, len(l.streams))
	for i, s := range l.streams {
		l.sig[i] = sigStream{acc: signature.NewAccumulator(l.cfg.Dims), cls: classifier.New(l.cfg.Classifier), sig: make(signature.Vector, l.cfg.Dims)}
		l.shardOf[i] = l.fleet.StreamShard(s.name)
	}
	l.quota = w.resident / shards
	l.resident = make([]int, shards)
	if !w.wal {
		return nil
	}
	hooks := wal.Hooks{BeforeSync: func(string) error { time.Sleep(syncDelay); return nil }}
	l.lsn = make([]wal.LSN, shards)
	l.dirty = make([]bool, shards)
	for i := 0; i < shards; i++ {
		lg, err := wal.Open(wal.Options{Dir: shardDir(walDir, i), Sync: wal.SyncGroup, Hooks: hooks})
		if err != nil {
			return err
		}
		l.logs = append(l.logs, lg)
	}
	return nil
}

func (l *ladder) close() {
	l.fleet.Close()
	for _, lg := range l.logs {
		lg.Close()
	}
}

// wireStep encodes a batch as the generator does and decodes it with
// the server's zero-copy decoder.
func (l *ladder) wireStep(bi int, b batchRef) error {
	s := l.streams[b.si]
	ev, cyc := s.batch(b.k)
	sp := l.tr.begin(spWireEncode, -1, int32(bi))
	l.wbuf = wire.AppendBatchFrame(l.wbuf[:0], wire.Batch{Seq: uint64(bi + 1), StreamSeq: uint64(b.k + 1), Stream: s.name, Cycles: cyc, Events: ev})
	l.tr.end(sp)
	l.frameBytes += int64(len(l.wbuf))
	sp = l.tr.begin(spWireDecode, -1, int32(bi))
	fv, err := wire.DecodeFrameView(l.wbuf[wire.FramePrefix:], l.evbuf)
	l.tr.end(sp)
	if err != nil || len(fv.Events) != batchEvents {
		return fmt.Errorf("wire round trip of batch %d: %v", bi, err)
	}
	return nil
}

// sigStream is one stream's accumulator and classifier in the
// signature rung.
type sigStream struct {
	acc            *signature.Accumulator
	cls            *classifier.Classifier
	sig            signature.Vector
	instrs, cycles uint64
}

// sigStep accumulates a batch into its stream's accumulator,
// compressing and classifying at each interval boundary exactly as the
// tracker does inside Branch. The batch span's self time is the cost of
// Accumulator.Add.
func (l *ladder) sigStep(bi int, b batchRef) {
	s := &l.sig[b.si]
	ev, cyc := l.streams[b.si].batch(b.k)
	interval := l.cfg.IntervalInstrs
	sp := l.tr.begin(spSigBatch, -1, int32(bi))
	s.cycles += cyc
	for _, e := range ev {
		s.acc.Add(e.PC, e.Instrs)
		s.instrs += uint64(e.Instrs)
		if s.instrs < interval {
			continue
		}
		c := l.tr.begin(spSigCompress, sp, int32(bi))
		sig := l.cfg.Compress.CompressInto(s.sig, s.acc)
		l.tr.end(c)
		cpi := float64(s.cycles) / float64(s.instrs)
		s.acc.Reset()
		s.instrs, s.cycles = 0, 0
		c = l.tr.begin(spClassify, sp, int32(bi))
		s.cls.Classify(sig, cpi)
		l.tr.end(c)
	}
	l.tr.end(sp)
}

// coreStream is one stream's tracker in the core rung. With a resident
// limit the rung evicts and rehydrates trackers the way the fleet does:
// per-shard quotas, least recently used first, snapshot bytes kept in
// memory.
type coreStream struct {
	t       *core.Tracker
	snap    []byte
	lastUse uint64
}

// coreStep feeds a batch to its stream's bare tracker, with a child
// span around every Branch call that closes an interval and around
// eviction snapshots and restores.
func (l *ladder) coreStep(bi int, b batchRef) {
	c := &l.core[b.si]
	ev, cyc := l.streams[b.si].batch(b.k)
	interval := l.cfg.IntervalInstrs
	sp := l.tr.begin(spCoreBatch, -1, int32(bi))
	if c.t == nil {
		l.rehydrate(sp, int32(bi), b.si)
	}
	l.clock++
	c.lastUse = l.clock
	t := c.t
	t.Cycles(cyc)
	for _, e := range ev {
		if t.Pending()+uint64(e.Instrs) < interval {
			t.Branch(e.PC, e.Instrs)
			continue
		}
		ch := l.tr.begin(spCoreBoundary, sp, int32(bi))
		t.Branch(e.PC, e.Instrs)
		l.tr.end(ch)
	}
	l.tr.end(sp)
}

// rehydrate makes stream si's tracker live, first evicting its shard's
// least recently used tracker when the shard is at its quota.
func (l *ladder) rehydrate(sp, bi int32, si int) {
	sh := l.shardOf[si]
	if l.quota > 0 && l.resident[sh] >= l.quota {
		var victim *coreStream
		for i := range l.core {
			v := &l.core[i]
			if v.t != nil && l.shardOf[i] == sh && (victim == nil || v.lastUse < victim.lastUse) {
				victim = v
			}
		}
		ch := l.tr.begin(spSnapshot, sp, bi)
		l.snapBuf = victim.t.AppendSnapshot(l.snapBuf[:0])
		victim.snap = append(victim.snap[:0], l.snapBuf...)
		l.tr.end(ch)
		l.pool = append(l.pool, victim.t)
		victim.t = nil
		l.resident[sh]--
	}
	c := &l.core[si]
	name := l.streams[si].name
	switch n := len(l.pool); {
	case c.snap == nil:
		c.t = core.NewTracker(name, l.cfg)
	case n > 0:
		c.t, l.pool = l.pool[n-1], l.pool[:n-1]
	default:
		c.t = core.NewTracker(name, l.cfg)
	}
	if c.snap != nil {
		ch := l.tr.begin(spRestore, sp, bi)
		err := c.t.Restore(c.snap)
		l.tr.end(ch)
		if err != nil {
			panic(fmt.Sprintf("restoring a snapshot the ladder just took: %v", err))
		}
	}
	l.resident[sh]++
}

func (l *ladder) fleetBatch(b batchRef) fleet.Batch {
	ev, cyc := l.streams[b.si].batch(b.k)
	return fleet.Batch{Stream: l.streams[b.si].name, Seq: uint64(b.k + 1), Cycles: cyc, Events: ev}
}

// fleetChunk feeds a chunk to the fleet in per-shard runs of up to one
// window per connection, as the server's burst layer does, waits until
// the shards have applied it, and adds the process CPU that took —
// admission on this goroutine plus the shards' work — to fleetCPUNs.
func (l *ladder) fleetChunk(chunk []batchRef) error {
	cpu0 := cpuNow()
	sp := l.tr.begin(spFleetRun, -1, -1)
	const group = window * conns
	for lo := 0; lo < len(chunk); lo += group {
		runs := make([][]fleet.Batch, shards)
		for _, b := range chunk[lo:min(lo+group, len(chunk))] {
			sh := l.shardOf[b.si]
			runs[sh] = append(runs[sh], l.fleetBatch(b))
		}
		for _, run := range runs {
			rejected, err := l.fleet.TrySendRun(run, nil)
			if len(rejected) > 0 {
				return fmt.Errorf("fleet rejected %d batches: %v", len(rejected), rejected[0].Err)
			}
			if !errors.Is(err, fleet.ErrOverloaded) {
				if err != nil {
					return err
				}
				continue
			}
			// The server falls back to a blocking send, in order.
			for _, fb := range run {
				if err := l.fleet.Send(fb); err != nil {
					return err
				}
			}
		}
	}
	l.fleet.ClassifierStats()
	l.tr.end(sp)
	l.fleetCPUNs += cpuNow() - cpu0
	return nil
}

// walStep appends a batch to its shard's log and, every walGroup
// batches and at the end, commits every log it dirtied.
func (l *ladder) walStep(bi int, b batchRef, last bool) error {
	s := l.streams[b.si]
	ev, cyc := s.batch(b.k)
	rec := wal.Record{Stream: s.name, Seq: uint64(b.k + 1), Cycles: cyc, Events: ev}
	sh := l.shardOf[b.si]
	sp := l.tr.begin(spWALAppend, -1, int32(bi))
	n, err := l.logs[sh].Append(&rec)
	l.tr.end(sp)
	if err != nil {
		return err
	}
	l.lsn[sh], l.dirty[sh] = n, true
	if (bi+1)%walGroup != 0 && !last {
		return nil
	}
	for i, lg := range l.logs {
		if !l.dirty[i] {
			continue
		}
		sp := l.tr.begin(spWALCommit, -1, int32(bi))
		err := lg.Commit(l.lsn[i])
		l.tr.end(sp)
		if err != nil {
			return err
		}
		l.dirty[i] = false
	}
	return nil
}

// walSize closes the ladder's logs and sums their segment bytes.
func (l *ladder) walSize(dir string) error {
	for _, lg := range l.logs {
		if err := lg.Close(); err != nil {
			return err
		}
	}
	return filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			l.walBytes += info.Size()
		}
		return err
	})
}

// commitMs returns the median ladder commit time in ms.
func (l *ladder) commitMs() float64 {
	var xs []float64
	for _, s := range l.tr.spans {
		if s.name == spWALCommit {
			xs = append(xs, float64(s.end-s.start)/1e6)
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// writeSpans writes every span to path: a header line naming the
// fields and span names, then one 25-byte little-endian record per
// span (name u8, start i64, end i64, parent i32, batch i32).
func (l *ladder) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "pkbench spans v1: %d records of name u8, start_ns i64, end_ns i64, parent i32, batch i32; names %q\n", len(l.tr.spans), spanNames)
	var rec [25]byte
	for _, s := range l.tr.spans {
		rec[0] = byte(s.name)
		binary.LittleEndian.PutUint64(rec[1:], uint64(s.start))
		binary.LittleEndian.PutUint64(rec[9:], uint64(s.end))
		binary.LittleEndian.PutUint32(rec[17:], uint32(s.parent))
		binary.LittleEndian.PutUint32(rec[21:], uint32(s.batch))
		w.Write(rec[:])
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// perLayer fills res with the per-layer metrics and prints the
// self-time table.
func perLayer(res *result, e2e *e2eResult, l *ladder, cpuPerEvent float64) {
	t := &l.times
	ev := l.events
	pe := func(n spanName) float64 { return perEvent(t[n].total, ev) }
	perCall := func(n spanName) float64 { return perEvent(t[n].total, t[n].count) }
	c := ladderCosts{
		decode:    pe(spWireDecode),
		add:       perEvent(t[spSigBatch].self, ev),
		coreBatch: pe(spCoreBatch),
		boundary:  pe(spCoreBoundary),
		compress:  pe(spSigCompress),
		classify:  pe(spClassify),
		snapshot:  pe(spSnapshot),
		restore:   pe(spRestore),
		fleetCPU:  perEvent(l.fleetCPUNs, ev),
		walAppend: pe(spWALAppend),
	}
	rungs := attribute(c, cpuPerEvent)
	fmt.Printf("ladder: %d events in %d spans; self time per acknowledged event, adding up to the server's cpu_ns_per_event\n", ev, len(l.tr.spans))
	for _, r := range rungs {
		fmt.Printf("  %-22s %9.3f ns/event %6.1f%%\n", r.name, r.ns, 100*r.ns/cpuPerEvent)
	}
	fmt.Printf("  %-22s %9.3f ns/event (server CPU, untraced run)\n", "total", cpuPerEvent)
	rung := func(name string) float64 {
		for _, r := range rungs {
			if r.name == name {
				return r.ns
			}
		}
		return 0
	}

	rep := e2e.rep
	events := e2e.gen.ackedEvents
	ratio := func(a, b uint64) float64 { return perEvent(int64(a), int64(b)) }
	boundaries := t[spCoreBoundary].count
	add := func(name, unit string, v float64) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	add("signature.add_ns_per_event", "ns", c.add)
	add("signature.compress_ns", "ns", perCall(spSigCompress))
	add("core.branch_ns_per_event", "ns", rung("core.branch"))
	add("core.boundary_us", "us", perCall(spCoreBoundary)/1e3)
	add("classifier.classify_ns", "ns", perCall(spClassify))
	add("classifier.rows_scanned_per_classify", "count", ratio(rep.Classifier.EntriesScanned, rep.Classifier.Classifications))
	add("classifier.mru_hit_ratio", "ratio", ratio(rep.Classifier.MRUHits, rep.Classifier.Classifications))
	add("predictor.update_ns", "ns", perEvent(t[spCoreBoundary].total-t[spSigCompress].total-t[spClassify].total, boundaries))
	add("predictor.nextphase_accuracy", "ratio", perEvent(int64(rep.NextCorrect), int64(rep.NextCovered)))
	add("predictor.nextphase_coverage", "ratio", perEvent(int64(rep.NextCovered), int64(rep.NextTotal)))
	add("fleet.send_ns_per_event", "ns", rung("fleet.send"))
	add("fleet.queue_full_ratio", "ratio", ratio(rep.Fleet.RejectedBatches, rep.Server.Frames))
	add("fleet.snapshot_us", "us", perCall(spSnapshot)/1e3)
	add("fleet.restore_us", "us", perCall(spRestore)/1e3)
	add("fleet.store_saves_per_kevent", "count", 1e3*perEvent(int64(rep.StoreSaves), events))
	add("fleet.store_loads_per_kevent", "count", 1e3*perEvent(int64(rep.StoreLoads), events))
	add("wire.encode_ns_per_event", "ns", pe(spWireEncode))
	add("wire.decode_ns_per_event", "ns", c.decode)
	add("wire.bytes_per_event", "B", perEvent(l.frameBytes, ev))
	add("server.frames_per_burst", "count", ratio(rep.Server.BurstFrames, rep.Server.Bursts))
	add("server.unattributed_ns_per_event", "ns", rung("server.unattributed"))
	add("wal.append_ns_per_event", "ns", c.walAppend)
	add("wal.commit_ms", "ms", l.commitMs())
	add("wal.records_per_sync", "count", ratio(rep.WALAppends, rep.WALSyncs))
	add("wal.bytes_per_event", "B", perEvent(l.walBytes, ev))
	replay := 0.0
	if e2e.info.ReplaySeconds > 0 {
		replay = float64(e2e.info.ReplayEvents) / e2e.info.ReplaySeconds
	}
	add("wal.replay_events_per_s", "1/s", replay)
	for _, name := range sortedKeys(res.Metrics) {
		fmt.Printf("%-38s %16.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
}
