// Package fleet is the concurrent multi-stream front-end of the phase
// tracking architecture: a sharded pool of core.Tracker instances that
// classifies many independent instruction streams at once.
//
// The HPCA'05 architecture (internal/core) is strictly per-stream: one
// Tracker watches one execution, and its hot path is deliberately free
// of synchronization. Fleet scales that design out instead of locking
// it down. Stream IDs are hashed onto N shards; each shard is a single
// goroutine that exclusively owns the trackers of the streams hashed to
// it and consumes batched BranchEvent slices from a bounded channel.
// Because every tracker is touched by exactly one goroutine, the
// per-branch hot path stays exactly as lock-free as a bare Tracker —
// the only synchronization cost is one channel transfer per batch,
// amortized over the batch length.
//
// Ingestion applies backpressure: each shard's queue is a bounded
// channel, so producers block (rather than buffer without bound) when
// classification falls behind — or, under OverloadReject, are refused
// with ErrOverloaded so they can shed load instead of stalling. Control
// operations — Flush, Report, Snapshot, Close — travel through the same
// per-shard channels as data, so they observe every batch enqueued
// before them (FIFO per shard), which makes results deterministic for
// any fixed per-stream input regardless of shard count or producer
// interleaving.
//
// With a StateStore and a resident limit configured, a Fleet bounds
// memory by *active* streams instead of total streams: each shard
// LRU-evicts idle trackers by serializing them (core.Tracker.Snapshot)
// into the store and transparently rehydrates on the next batch.
// Because snapshot/restore is bit-deterministic, eviction never changes
// any stream's phase sequence, predictions, or Report.
//
// # Fault model
//
// The state path is fail-operational, not fail-stop. Store operations
// are retried with capped exponential backoff and jitter (RetryPolicy),
// and a circuit breaker (BreakerPolicy) stops hammering a down store
// after consecutive failures. While the breaker is open the Fleet
// degrades gracefully: eviction is suspended, so trackers stay resident
// above MaxResident (tracked by MetricsSnapshot.Overshoot) rather than
// risking state loss; a failed save likewise keeps its tracker live. A
// stream whose snapshot is corrupt (ErrSnapshotCorrupt) is quarantined
// — its batches are dropped and counted — because classifying it from a
// fresh tracker would silently diverge from its true phase sequence.
// Every failure is observable: per-stream via StreamErr, fleet-wide via
// Err (first failure, wrapping the stream ID and operation), and in
// aggregate via Metrics.
package fleet

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"phasekit/internal/core"
	"phasekit/internal/rng"
	"phasekit/internal/trace"
)

// Config configures a Fleet.
type Config struct {
	// Shards is the number of worker goroutines (and tracker
	// partitions). 0 means runtime.GOMAXPROCS(0).
	Shards int
	// QueueDepth is the per-shard ingestion queue capacity in batches.
	// 0 means DefaultQueueDepth. Producers block when a shard's queue
	// is full (backpressure), unless Overload is OverloadReject.
	QueueDepth int
	// Overload selects what Send does when the owning shard's queue is
	// full: OverloadBlock (default) blocks, OverloadReject returns
	// ErrOverloaded.
	Overload OverloadPolicy
	// Tracker is the per-stream tracker configuration. The zero value
	// means core.DefaultConfig().
	Tracker core.Config
	// OnInterval, if non-nil, is invoked for every completed interval
	// of every stream. It is called from shard worker goroutines —
	// calls for one stream are sequential, but calls for different
	// streams run concurrently, so the callback must be safe for
	// concurrent use unless all streams hash to one shard.
	OnInterval func(stream string, res core.IntervalResult)
	// Store persists evicted stream state. Required when MaxResident is
	// set; without a resident limit it is unused.
	Store StateStore
	// MaxResident caps the number of live Trackers across the whole
	// Fleet. 0 means unlimited (no eviction). When set, it must be at
	// least Shards: the cap is divided into per-shard quotas (each
	// shard owns its streams exclusively, so eviction decisions stay
	// lock-free), and every shard needs room for at least one live
	// tracker to process a batch. The cap may be exceeded while the
	// store is failing (see the package fault model).
	MaxResident int
	// Retry configures retries of failed store operations. The zero
	// value disables retries.
	Retry RetryPolicy
	// Breaker configures the store circuit breaker. The zero value
	// disables it.
	Breaker BreakerPolicy
	// Quarantine configures ingestion-side stream quarantine: after
	// Quarantine.Strikes offenses (reported via Offense, or a latched
	// permanent store failure) a stream's batches are rejected at Send
	// with ErrQuarantined until a capped, jittered probation window
	// elapses. The zero value disables quarantine.
	Quarantine QuarantinePolicy
	// Now and Sleep are the clock and sleeper behind the breaker
	// cooldown and retry backoff. Nil means time.Now and time.Sleep;
	// tests inject fakes so no real time passes.
	Now   func() time.Time
	Sleep func(time.Duration)
}

// DefaultQueueDepth is the per-shard queue capacity used when
// Config.QueueDepth is zero.
const DefaultQueueDepth = 64

// DefaultConfig returns a Fleet configuration with GOMAXPROCS shards,
// the default queue depth, and the paper's default tracker
// configuration.
func DefaultConfig() Config {
	return Config{
		Shards:     runtime.GOMAXPROCS(0),
		QueueDepth: DefaultQueueDepth,
		Tracker:    core.DefaultConfig(),
	}
}

func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.Tracker.IntervalInstrs == 0 && c.Tracker.Dims == 0 {
		c.Tracker = core.DefaultConfig()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	return c
}

// Validate reports whether the configuration is usable. Every failure
// wraps core.ErrConfig, so callers classify configuration errors across
// all layers with one errors.Is check.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Shards < 1 {
		return fmt.Errorf("%w: fleet: Shards must be >= 1, got %d", core.ErrConfig, c.Shards)
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("%w: fleet: QueueDepth must be >= 1, got %d", core.ErrConfig, c.QueueDepth)
	}
	if c.Overload > OverloadReject {
		return fmt.Errorf("%w: fleet: unknown overload policy %d", core.ErrConfig, c.Overload)
	}
	if c.MaxResident < 0 {
		return fmt.Errorf("%w: fleet: MaxResident must be >= 0, got %d", core.ErrConfig, c.MaxResident)
	}
	if c.Retry.MaxRetries < 0 {
		return fmt.Errorf("%w: fleet: Retry.MaxRetries must be >= 0, got %d", core.ErrConfig, c.Retry.MaxRetries)
	}
	if c.Breaker.Threshold < 0 {
		return fmt.Errorf("%w: fleet: Breaker.Threshold must be >= 0, got %d", core.ErrConfig, c.Breaker.Threshold)
	}
	if c.Quarantine.Strikes < 0 {
		return fmt.Errorf("%w: fleet: Quarantine.Strikes must be >= 0, got %d", core.ErrConfig, c.Quarantine.Strikes)
	}
	if c.Quarantine.Probation < 0 || c.Quarantine.MaxProbation < 0 {
		return fmt.Errorf("%w: fleet: Quarantine probation windows must be >= 0", core.ErrConfig)
	}
	if c.MaxResident > 0 {
		if c.Store == nil {
			return fmt.Errorf("%w: fleet: MaxResident requires a Store to evict to", core.ErrConfig)
		}
		if c.MaxResident < c.Shards {
			return fmt.Errorf("%w: fleet: MaxResident %d must be >= Shards %d (every shard needs one resident slot)", core.ErrConfig, c.MaxResident, c.Shards)
		}
	}
	return c.Tracker.Validate()
}

// Batch is one ingestion unit: a slice of branch events for a single
// stream, with optional cycle counts for CPI feedback. Ownership of
// Events transfers to the Fleet on Send; the caller must not reuse or
// mutate the slice afterwards.
type Batch struct {
	// Stream identifies the instruction stream. Streams are created on
	// first use.
	Stream string
	// Seq is the batch's per-stream sequence number (monotonic from 1,
	// stamped by the producer). A batch whose Seq is at or below the
	// stream's last applied sequence is dropped as an already-applied
	// duplicate — the dedup that turns at-least-once delivery (client
	// reconnect replay, WAL crash replay) into exactly-once apply. 0
	// means unstamped: the batch is always applied. Only in-process
	// producers may send unstamped batches; the wire protocol refuses
	// them at decode.
	Seq uint64
	// Cycles is charged to the stream's current interval before Events
	// are applied (mirroring Tracker.Cycles before Tracker.Branch).
	Cycles uint64
	// Events are committed-branch events in stream order.
	Events []trace.BranchEvent
	// EndInterval force-closes the stream's interval after Events are
	// applied (mirroring Tracker.Flush). Trace replayers use it to
	// keep interval alignment exact at recorded boundaries.
	EndInterval bool
	// Recycle, if non-nil, is invoked from the owning shard's goroutine
	// once the Fleet is finished with Events — after the batch is
	// applied, or when it is dropped (quarantined stream, store down).
	// It is the hand-back half of the Events ownership transfer: pooled
	// producers (the ingest server) reuse the slice afterwards instead
	// of allocating one per batch. It is NOT called when Send itself
	// fails (ErrOverloaded, ErrQuarantined, ctx cancellation) — the
	// batch never left the caller, who still owns Events.
	Recycle func()
}

// message kinds carried on a shard's channel. Data and control share
// one FIFO so control operations observe all batches sent before them.
type msgKind uint8

const (
	msgBatch msgKind = iota
	msgRun
	msgFlush
	msgReport
	msgSnapshot
	msgStreamErr
	msgCheckpoint
	msgClassStats
	msgDetach
	msgAdopt
	msgRelease
	msgStreams
	msgClose
)

type shardMsg struct {
	kind  msgKind
	batch Batch // msgBatch

	run        []Batch // msgRun: batches in send order, all owned by this shard
	runRelease func()  // msgRun: invoked after the whole run is consumed

	stream string           // msgReport, msgStreamErr, msgDetach, msgAdopt, msgRelease
	snap   []byte           // msgAdopt: snapshot to restore (nil = from store)
	report chan shardReport // msgReport, msgSnapshot, msgStreamErr, msgDetach, msgAdopt, msgRelease, msgStreams

	done    chan struct{} // msgFlush, msgClose: ack
	release chan struct{} // msgSnapshot: barrier release
}

type shardReport struct {
	reports map[string]core.Report
	err     error // msgStreamErr, msgDetach, msgAdopt
	ok      bool

	snap    []byte   // msgDetach: the drained stream's serialized state
	streams []string // msgStreams

	cstats ClassifierStats // msgClassStats
}

// ClassifierStats aggregates classifier scan diagnostics over the
// fleet's resident trackers: how often interval classification
// resolved through the MRU fast path and how much of each signature
// table the indexed scan actually touched. Evicted streams are not
// counted — their index state is rebuilt (with fresh counters) on
// rehydration — so rates describe the currently live population.
type ClassifierStats struct {
	// Residents is the number of live trackers aggregated.
	Residents int
	// TableRows is the total promoted signature-table rows across
	// residents; Buckets the total non-empty sum-index buckets.
	TableRows int
	Buckets   int
	// Classifications is the total intervals classified;
	// MRUHits/Classifications is the fleet MRU hit rate, and
	// EntriesScanned/Classifications the mean rows scanned per
	// interval.
	Classifications uint64
	MRUHits         uint64
	EntriesScanned  uint64
	BucketsScanned  uint64
}

// add folds one resident tracker into the aggregate.
func (s *ClassifierStats) add(t *core.Tracker) {
	ist := t.ClassifierIndexStats()
	s.Residents++
	s.TableRows += t.ClassifierTableLen()
	s.Buckets += ist.Buckets
	s.Classifications += uint64(t.Classifications())
	s.MRUHits += ist.MRUHits
	s.EntriesScanned += ist.EntriesScanned
	s.BucketsScanned += ist.BucketsScanned
}

// streamEntry is one stream's slot in its owning shard. The tracker is
// nil while the stream is evicted to the store; lastUse orders resident
// streams for LRU eviction; pending remembers that the stream was
// evicted (or adopted from the shared store) with a partial interval
// possibly open, so Flush knows to rehydrate it.
// err is the stream's most recent store failure (cleared by the next
// successful operation); quarantined latches when the failure is
// permanent (corrupt snapshot), after which the stream's batches are
// dropped and counted.
type streamEntry struct {
	tracker     *core.Tracker
	lastUse     uint64
	pending     bool
	err         error
	quarantined bool
	// seq is the stream's last applied batch sequence (Batch.Seq),
	// persisted in the snapshot seq envelope across eviction,
	// checkpoint, handoff, and crash replay. Batches at or below it are
	// duplicates.
	seq uint64
	// dropped latches once any batch for the stream has been discarded:
	// from then on the stream's phase sequence is missing data, so its
	// error is never cleared by later successes (StreamErr must keep
	// reporting that the sequence is incomplete).
	dropped bool
	// detached latches when the stream is handed off to another node
	// (DetachStream): any batch that was already in the shard queue when
	// the handoff fenced the stream is dropped and counted rather than
	// applied to state the new owner already took over.
	detached bool
}

// shardPoolCap bounds each shard's pool of tracker shells. Eviction
// and rehydration alternate over at most a few streams at a time per
// shard, so a small pool captures the churn without pinning memory for
// tables that may never be reused.
const shardPoolCap = 4

// shard is one worker's exclusive state. Only the worker goroutine
// touches streams after New returns.
type shard struct {
	ch chan shardMsg
	// admitMu orders admission against DetachStream's fence: senders
	// hold it shared from the fence check until the batch is queued, a
	// detach exclusively from its fence until its reply.
	admitMu sync.RWMutex
	streams map[string]*streamEntry
	clock   uint64          // LRU clock, bumped per batch
	quota   int             // max resident trackers; 0 = unlimited
	snapBuf []byte          // reusable eviction snapshot buffer
	envBuf  []byte          // reusable seq-envelope buffer wrapping snapBuf
	loadBuf []byte          // reusable buffer rehydration loads into
	rng     *rng.Xoshiro256 // deterministic retry-backoff jitter
	// free holds tracker shells recycled from eviction and throwaway
	// reads. Rehydration decodes a snapshot into a shell's own tables
	// (core.RestoreInto), overwriting every field and adopting the
	// snapshot's stream name, so a pooled shell rehydrates any stream
	// bit-identically to a freshly allocated tracker without
	// allocating tables of its own. Only the restore path may use
	// shells: a genuinely new stream needs the pristine state of
	// core.NewTracker.
	free []*core.Tracker
}

// getShell pops a pooled tracker shell for core.RestoreInto, or
// allocates. The placeholder name is irrelevant: the restore adopts
// the snapshot's name.
func (f *Fleet) getShell(sh *shard, stream string) *core.Tracker {
	if n := len(sh.free); n > 0 {
		t := sh.free[n-1]
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
		return t
	}
	return core.NewTracker(stream, f.cfg.Tracker)
}

// putShell returns a tracker whose state is no longer needed to the
// shard's pool (dropped when the pool is full).
func (sh *shard) putShell(t *core.Tracker) {
	if len(sh.free) < shardPoolCap {
		sh.free = append(sh.free, t)
	}
}

// Fleet tracks phases for many concurrent instruction streams. All
// methods are safe for concurrent use, except that Send must not be
// called concurrently with (or after) Close.
type Fleet struct {
	cfg     Config
	shards  []*shard
	wg      sync.WaitGroup
	retr    *retrier       // nil when no Store is configured
	breaker *breaker       // nil when the breaker is disabled
	quar    *quarantineSet // nil when quarantine is disabled
	metrics metrics

	// barrier is a one-slot semaphore serializing Snapshot barriers
	// (two interleaved barriers would deadlock shards parked on
	// different releases) and Close. A channel rather than a mutex so
	// SnapshotCtx can abandon the acquisition on ctx cancel.
	barrier chan struct{}
	closed  atomic.Bool

	// resident counts live trackers across all shards (observability;
	// the enforcement is per-shard quotas).
	resident atomic.Int64

	// detachedSet fences streams handed off to other nodes: Send rejects
	// them with ErrNotOwned. hasDetached makes the common case — no
	// handoff ever happened — one atomic load on the ingest hot path.
	hasDetached atomic.Bool
	detachedMu  sync.Mutex
	detachedSet map[string]struct{}

	// errMu guards firstErr, the first store failure observed by any
	// shard.
	errMu    sync.Mutex
	firstErr error
}

// New returns a running Fleet. It panics on an invalid configuration
// (validate with cfg.Validate for error handling).
func New(cfg Config) *Fleet {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	f := &Fleet{cfg: cfg, shards: make([]*shard, cfg.Shards), barrier: make(chan struct{}, 1)}
	f.breaker = newBreaker(cfg.Breaker, cfg.Now, &f.metrics.breakerTrips)
	f.quar = newQuarantineSet(cfg.Quarantine, cfg.Now, &f.metrics)
	if cfg.Store != nil {
		f.retr = &retrier{
			store:   cfg.Store,
			policy:  cfg.Retry.withDefaults(),
			breaker: f.breaker,
			sleep:   cfg.Sleep,
			metrics: &f.metrics,
		}
	}
	for i := range f.shards {
		sh := &shard{
			ch:      make(chan shardMsg, cfg.QueueDepth),
			streams: make(map[string]*streamEntry),
			rng:     rng.NewXoshiro256(0xfa017 + uint64(i)),
		}
		if cfg.MaxResident > 0 {
			// Divide the fleet-wide cap into per-shard quotas; the
			// first MaxResident%Shards shards absorb the remainder, so
			// the quotas sum exactly to MaxResident.
			sh.quota = cfg.MaxResident / cfg.Shards
			if i < cfg.MaxResident%cfg.Shards {
				sh.quota++
			}
		}
		f.shards[i] = sh
		f.wg.Add(1)
		go f.run(sh)
	}
	return f
}

// Resident returns the current number of live (non-evicted) Trackers
// across all shards. With MaxResident configured it stays within the
// limit while the store is healthy; during a store outage eviction is
// suspended and the count may overshoot (see Metrics).
func (f *Fleet) Resident() int { return int(f.resident.Load()) }

// Err returns the first store failure any shard has observed, or nil.
// The error wraps the failing stream ID and operation plus the typed
// failure class, so errors.Is(err, ErrSnapshotCorrupt) and friends
// work. A save failure keeps the tracker resident (never losing
// state); a rehydration failure drops the stream's batches until the
// store recovers (transient) or forever (corrupt snapshot). Per-stream
// status is available from StreamErr, aggregate counters from Metrics.
func (f *Fleet) Err() error {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	return f.firstErr
}

// recordErr latches the first store failure.
func (f *Fleet) recordErr(err error) {
	f.errMu.Lock()
	if f.firstErr == nil {
		f.firstErr = err
	}
	f.errMu.Unlock()
}

// failStream records a store failure against one stream: the wrapped
// error (stream ID + operation + typed class) becomes the stream's
// StreamErr and latches into Err. Permanent data errors on the load
// path quarantine the stream — its snapshot is bad, so classifying it
// from scratch would silently diverge.
func (f *Fleet) failStream(e *streamEntry, stream, op string, err error, quarantineOnPermanent bool) error {
	werr := fmt.Errorf("stream %q: %s: %w", stream, op, err)
	e.err = werr
	if quarantineOnPermanent && permanent(err) && !e.quarantined {
		e.quarantined = true
		f.metrics.quarantined.Add(1)
		if f.quar != nil {
			// Propagate the latched failure to the ingest quarantine
			// set: the stream's batches would only be dropped, so stop
			// them at Send (permanently — no probation fixes bad bytes).
			f.quar.offense(stream, werr, true)
		}
	}
	f.recordErr(werr)
	return werr
}

// Shards returns the number of shards.
func (f *Fleet) Shards() int { return len(f.shards) }

// shardFor hashes a stream ID onto its owning shard (FNV-1a).
func (f *Fleet) shardFor(stream string) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= prime64
	}
	return f.shards[h%uint64(len(f.shards))]
}

// Send enqueues a batch for classification: SendCtx without a
// deadline. Under OverloadBlock (the default) it blocks while the
// owning shard's queue is full and returns nil once the batch is
// queued; under OverloadReject it returns ErrOverloaded instead of
// blocking, so callers can shed load. Batches for the same stream must
// be sent in stream order (one producer per stream, or externally
// ordered); batches for different streams may be sent concurrently.
func (f *Fleet) Send(b Batch) error { return f.SendCtx(context.Background(), b) }

// admit runs a batch's admission checks before it may be enqueued: the
// ingest quarantine (ErrQuarantined), then the handoff fence
// (ErrNotOwned). SendCtx and TrySendRun call it once per batch.
func (f *Fleet) admit(stream string) error {
	if f.quar != nil {
		if err := f.quar.admit(stream); err != nil {
			return err
		}
	}
	return f.admitOwned(stream)
}

// StreamShard returns the index (in [0, Shards())) of the shard that
// owns stream. Front-ends that batch traffic from many streams use it
// to group batches into per-shard runs for TrySendRun.
func (f *Fleet) StreamShard(stream string) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= prime64
	}
	return int(h % uint64(len(f.shards)))
}

// RunReject reports one batch of a TrySendRun call that was refused
// admission (quarantined stream). The batch never reached the shard
// queue: the caller still owns it — Events, Recycle, and all.
type RunReject struct {
	// Index is the batch's position in the run as passed to TrySendRun,
	// so callers can map rejections back to their own bookkeeping even
	// though admitted batches are compacted over rejected slots.
	Index int
	Batch Batch
	Err   error
}

// TrySendRun enqueues a run of batches — all owned by the same shard
// (group with StreamShard; mixing shards panics, since it would break
// per-stream ordering) — as a single shard message, without blocking.
// Relative batch order is preserved, so same-stream batches within a
// run apply in send order, exactly as individual Sends would.
// Coalescing amortizes the channel hop and, for consecutive same-stream
// batches, the tracker lookup across a whole run. It is the ingest
// server's admission path, and allocates nothing when every batch is
// admitted.
//
// Admission is per batch, exactly as SendCtx: a quarantined or detached
// stream's batches are compacted out of the run and reported in
// rejected (the caller keeps ownership of those). On a nil error the
// fleet owns the admitted batches, the run slice, and calls release (if
// non-nil) from the shard goroutine once the whole run is consumed. On
// ErrOverloaded nothing was enqueued: the caller keeps the run slice,
// whose first admitted batches now occupy run[:len(run)-len(rejected)],
// and falls back to per-batch sends (which re-run admission).
func (f *Fleet) TrySendRun(run []Batch, release func()) (rejected []RunReject, err error) {
	if len(run) == 0 {
		return nil, nil
	}
	shardIdx := f.StreamShard(run[0].Stream)
	sh := f.shards[shardIdx]
	sh.admitMu.RLock()
	defer sh.admitMu.RUnlock()
	n := 0
	for i := range run {
		if i > 0 && f.StreamShard(run[i].Stream) != shardIdx {
			panic("fleet: TrySendRun batches span shards")
		}
		if aerr := f.admit(run[i].Stream); aerr != nil {
			rejected = append(rejected, RunReject{Index: i, Batch: run[i], Err: aerr})
			continue
		}
		run[n] = run[i]
		n++
	}
	if n == 0 {
		return rejected, nil // nothing admitted; nothing enqueued
	}
	select {
	case sh.ch <- shardMsg{kind: msgRun, run: run[:n], runRelease: release}:
		return rejected, nil
	default:
		f.metrics.rejectedBatches.Add(uint64(n))
		return rejected, ErrOverloaded
	}
}

// Flush force-closes the trailing partial interval of every stream
// (end of program), after processing everything already enqueued. It
// returns when all shards have flushed.
func (f *Fleet) Flush() { f.FlushCtx(context.Background()) }

// Report returns aggregate statistics for one stream, reflecting every
// batch enqueued for it before the call. ok is false if the stream has
// never been seen.
func (f *Fleet) Report(stream string) (core.Report, bool) {
	r, ok, _ := f.ReportCtx(context.Background(), stream)
	return r, ok
}

// StreamErr returns the most recent store failure recorded for a
// stream, or nil if the stream is healthy or has never been seen. It
// reflects every batch enqueued for the stream before the call. An
// error wrapping ErrSnapshotCorrupt (or ErrSnapshotTooLarge) means the
// stream is quarantined permanently; one wrapping ErrStoreUnavailable
// is transient and clears on the stream's next successful store
// operation — unless a batch was dropped, in which case the error
// stays latched because the stream's phase sequence is incomplete.
// Equivalently: StreamErr == nil guarantees the stream's phase
// sequence is byte-identical to a fault-free run.
func (f *Fleet) StreamErr(stream string) error {
	err, _ := f.StreamErrCtx(context.Background(), stream)
	return err
}

// ClassifierStats aggregates scan-index diagnostics across every
// shard's resident trackers. Each shard reports at its own point in
// its queue (no cross-shard barrier): the counters are monotonic
// diagnostics, not a consistent snapshot.
func (f *Fleet) ClassifierStats() ClassifierStats {
	reply := make(chan shardReport, len(f.shards))
	for _, sh := range f.shards {
		sh.ch <- shardMsg{kind: msgClassStats, report: reply}
	}
	var out ClassifierStats
	for range f.shards {
		r := <-reply
		out.Residents += r.cstats.Residents
		out.TableRows += r.cstats.TableRows
		out.Buckets += r.cstats.Buckets
		out.Classifications += r.cstats.Classifications
		out.MRUHits += r.cstats.MRUHits
		out.EntriesScanned += r.cstats.EntriesScanned
		out.BucketsScanned += r.cstats.BucketsScanned
	}
	return out
}

// Snapshot returns a consistent point-in-time report for every stream:
// all shards are paused at a common barrier while reports are
// collected, so no stream advances during the snapshot window.
func (f *Fleet) Snapshot() map[string]core.Report {
	out, _ := f.SnapshotCtx(context.Background())
	return out
}

// Close drains every queue, stops the shard workers, and waits for
// them to exit. No method may be called after Close; Send must not be
// in flight when Close begins.
func (f *Fleet) Close() {
	f.barrier <- struct{}{}
	defer func() { <-f.barrier }()
	if f.closed.Swap(true) {
		return
	}
	done := make(chan struct{}, len(f.shards))
	for _, sh := range f.shards {
		sh.ch <- shardMsg{kind: msgClose, done: done}
	}
	for range f.shards {
		<-done
	}
	f.wg.Wait()
}

// run is the shard worker loop: the only goroutine that ever touches
// this shard's trackers.
func (f *Fleet) run(sh *shard) {
	defer f.wg.Done()
	for msg := range sh.ch {
		switch msg.kind {
		case msgBatch:
			f.apply(sh, msg.batch)
		case msgRun:
			f.applyRun(sh, msg.run, msg.runRelease)
		case msgFlush:
			for name, e := range sh.streams {
				if e.tracker == nil {
					if !e.pending {
						continue // evicted at an interval boundary: nothing to flush
					}
					// Rehydrate to close the partial interval; the
					// stream stays resident (it is now the MRU) and
					// later traffic can evict it again. If the store
					// is down or the snapshot corrupt, the pending
					// interval is dropped and counted — never
					// fabricated from a fresh tracker.
					if _, err := f.residentTracker(sh, name, e); err != nil {
						e.dropped = true
						f.metrics.droppedBatches.Add(1)
						continue
					}
				}
				if res, ok := e.tracker.Flush(); ok && f.cfg.OnInterval != nil {
					f.cfg.OnInterval(name, *res)
				}
			}
			msg.done <- struct{}{}
		case msgReport:
			e, ok := sh.streams[msg.stream]
			r := shardReport{ok: ok}
			if ok {
				r.reports = map[string]core.Report{msg.stream: f.peekReport(sh, msg.stream, e)}
			}
			msg.report <- r
		case msgStreamErr:
			r := shardReport{}
			if e, ok := sh.streams[msg.stream]; ok {
				r.ok, r.err = true, e.err
			}
			msg.report <- r
		case msgSnapshot:
			reports := make(map[string]core.Report, len(sh.streams))
			for name, e := range sh.streams {
				reports[name] = f.peekReport(sh, name, e)
			}
			msg.report <- shardReport{reports: reports, ok: true}
			// Park at the barrier so every shard stands still through
			// one common window.
			<-msg.release
		case msgCheckpoint:
			msg.report <- shardReport{err: f.checkpoint(sh)}
		case msgDetach:
			msg.report <- f.detachStream(sh, msg.stream)
		case msgAdopt:
			msg.report <- f.adoptStream(sh, msg.stream, msg.snap)
		case msgRelease:
			f.releaseStream(sh, msg.stream)
			msg.report <- shardReport{ok: true}
		case msgStreams:
			names := make([]string, 0, len(sh.streams))
			for name, e := range sh.streams {
				if !e.detached {
					names = append(names, name)
				}
			}
			msg.report <- shardReport{ok: true, streams: names}
		case msgClassStats:
			var cs ClassifierStats
			for _, e := range sh.streams {
				if e.tracker != nil {
					cs.add(e.tracker)
				}
			}
			msg.report <- shardReport{ok: true, cstats: cs}
		case msgClose:
			msg.done <- struct{}{}
			return
		}
	}
}

// peekReport reports a stream without disturbing residency: a live
// tracker reports directly; an evicted one is decoded into a throwaway
// tracker (reads leave both the store and the quota untouched). A
// stream that cannot be rehydrated (quarantined, or store down) reports
// as empty; the failure is recorded, never fabricated away.
func (f *Fleet) peekReport(sh *shard, stream string, e *streamEntry) core.Report {
	if e.tracker != nil {
		return e.tracker.Report()
	}
	if !e.quarantined {
		t, _, err := f.rehydrate(sh, stream)
		if err == nil {
			r := t.Report()
			// The throwaway's state is disposable: pool the shell for
			// the next rehydration.
			sh.putShell(t)
			return r
		}
		f.failStream(e, stream, "load", err, true)
	}
	return core.NewTracker(stream, f.cfg.Tracker).Report()
}

// rehydrate builds a tracker for a stream from its stored snapshot, or
// a fresh one if the store has never seen it (a genuinely new stream,
// or no store configured). It fails — rather than falling back to a
// fresh tracker, which would silently diverge from the stream's true
// phase sequence — when the store is unavailable after retries or the
// snapshot fails to decode.
func (f *Fleet) rehydrate(sh *shard, stream string) (*core.Tracker, uint64, error) {
	if f.retr == nil {
		return core.NewTracker(stream, f.cfg.Tracker), 0, nil
	}
	raw, ok, err := f.retr.load(sh.rng, sh.loadBuf, stream)
	if err != nil {
		return nil, 0, err
	}
	if !ok {
		// A stream the store has never seen: it needs pristine state,
		// never a pooled shell.
		return core.NewTracker(stream, f.cfg.Tracker), 0, nil
	}
	// The restore below copies everything it keeps out of raw, so the
	// buffer serves the shard's next load.
	sh.loadBuf = raw
	seq, snap, err := openSeqEnvelope(raw)
	if err != nil {
		return nil, 0, err
	}
	// RestoreInto overwrites every field of the shell in place, so a
	// pooled shell from a previous eviction serves any stream. On
	// failure the shell holds a partial decode but stays reusable (the
	// next successful restore overwrites it all), so it returns to the
	// pool.
	t := f.getShell(sh, stream)
	if err := core.RestoreInto(t, snap); err != nil {
		sh.putShell(t)
		return nil, 0, fmt.Errorf("%w: %w", ErrSnapshotCorrupt, err)
	}
	return t, seq, nil
}

// residentTracker makes a stream's tracker live, evicting LRU residents
// first so the shard's quota is never exceeded (even transiently), and
// marks it most recently used. It fails without a tracker when the
// stream is quarantined or cannot be rehydrated.
func (f *Fleet) residentTracker(sh *shard, stream string, e *streamEntry) (*core.Tracker, error) {
	if e.quarantined {
		return nil, e.err
	}
	if e.tracker == nil {
		if sh.quota > 0 {
			f.evictDownTo(sh, sh.quota-1)
		}
		t, seq, err := f.rehydrate(sh, stream)
		if err != nil {
			return nil, f.failStream(e, stream, "load", err, true)
		}
		e.tracker = t
		e.pending = false
		if seq > e.seq {
			e.seq = seq
		}
		if !e.dropped {
			e.err = nil
		}
		f.resident.Add(1)
	}
	sh.clock++
	e.lastUse = sh.clock
	return e.tracker, nil
}

// checkpoint saves every resident tracker on this shard to the store
// without evicting it — the graceful-drain path. Evicted streams are
// already serialized (their snapshot in the store is current: eviction
// saved it and nothing ran since), and quarantined streams have no
// tracker to save. Saves run under the usual retry/breaker policy; a
// failure latches into the stream's StreamErr and the first one is
// returned, so a drain that could not persist everything is loud.
func (f *Fleet) checkpoint(sh *shard) error {
	var first error
	for name, e := range sh.streams {
		if e.tracker == nil {
			continue
		}
		sh.snapBuf = e.tracker.AppendSnapshot(sh.snapBuf[:0])
		sh.envBuf = appendSeqEnvelope(sh.envBuf[:0], e.seq, sh.snapBuf)
		if err := f.retr.save(sh.rng, name, sh.envBuf); err != nil {
			werr := f.failStream(e, name, "checkpoint", err, false)
			if first == nil {
				first = werr
			}
			continue
		}
		if !e.dropped {
			e.err = nil
		}
	}
	return first
}

// evictDownTo serializes LRU resident trackers into the store until at
// most target remain live on this shard. A failed save keeps the
// tracker resident so no state is lost; an open circuit breaker
// suspends eviction entirely (graceful degradation: residency
// overshoots instead of burning retries against a down store).
func (f *Fleet) evictDownTo(sh *shard, target int) {
	if f.breaker.suspended() {
		f.metrics.suspendedEvictions.Add(1)
		return
	}
	resident := 0
	for _, e := range sh.streams {
		if e.tracker != nil {
			resident++
		}
	}
	for resident > target {
		var victim *streamEntry
		victimName := ""
		for name, e := range sh.streams {
			if e.tracker != nil && (victim == nil || e.lastUse < victim.lastUse) {
				victim, victimName = e, name
			}
		}
		sh.snapBuf = victim.tracker.AppendSnapshot(sh.snapBuf[:0])
		sh.envBuf = appendSeqEnvelope(sh.envBuf[:0], victim.seq, sh.snapBuf)
		if err := f.retr.save(sh.rng, victimName, sh.envBuf); err != nil {
			// Keep the tracker live rather than lose its state; the
			// stream itself stays healthy.
			f.failStream(victim, victimName, "save", err, false)
			return
		}
		if !victim.dropped {
			victim.err = nil
		}
		victim.pending = victim.tracker.Pending() > 0
		// The victim's state is safely serialized: its tracker becomes
		// a shell for the next rehydration.
		sh.putShell(victim.tracker)
		victim.tracker = nil
		f.resident.Add(-1)
		resident--
	}
}

// apply feeds one batch into its stream's tracker (Figure 1 steps 1-2,
// batched), rehydrating the stream first if it was evicted. A batch
// whose stream cannot be made resident (quarantined, or store down) is
// dropped and counted — the error is already recorded against the
// stream.
func (f *Fleet) apply(sh *shard, b Batch) {
	e := sh.streams[b.Stream]
	if e == nil {
		e = &streamEntry{}
		sh.streams[b.Stream] = e
	}
	f.applyEntry(sh, b, e)
}

// applyRun applies a coalesced run of batches in order. The per-batch
// semantics — LRU clock bump, rehydration, drop accounting, Recycle —
// are identical to len(run) individual msgBatch messages; only the
// stream-map lookup is memoized across consecutive same-stream batches
// (the common shape after a front-end coalesces one connection's
// frames).
func (f *Fleet) applyRun(sh *shard, run []Batch, release func()) {
	var lastStream string
	var lastEntry *streamEntry
	for i := range run {
		b := run[i]
		e := lastEntry
		if e == nil || b.Stream != lastStream {
			e = sh.streams[b.Stream]
			if e == nil {
				e = &streamEntry{}
				sh.streams[b.Stream] = e
			}
			lastStream, lastEntry = b.Stream, e
		}
		f.applyEntry(sh, b, e)
	}
	if release != nil {
		release()
	}
}

// applyEntry is the shared tail of apply and applyRun: feed one batch
// into the stream whose map entry is already in hand.
func (f *Fleet) applyEntry(sh *shard, b Batch, e *streamEntry) {
	// The batch is consumed on every path out of here — applied or
	// dropped — so the producer's buffer hand-back fires exactly once.
	if b.Recycle != nil {
		defer b.Recycle()
	}
	if e.detached {
		// Admitted under the old owner, enqueued after the handoff
		// fence: the new owner already took the state, so applying here
		// would silently fork the stream. Drop loudly instead.
		e.dropped = true
		if e.err == nil {
			e.err = fmt.Errorf("stream %q: batch dropped after handoff: %w", b.Stream, ErrNotOwned)
		}
		f.metrics.droppedBatches.Add(1)
		f.metrics.notOwnedDrops.Add(1)
		return
	}
	t, err := f.residentTracker(sh, b.Stream, e)
	if err != nil {
		e.dropped = true
		f.metrics.droppedBatches.Add(1)
		return
	}
	// Dedup after rehydration: e.seq is only authoritative once the
	// stream's snapshot (whose seq envelope carries the watermark) has
	// been restored. An already-applied batch is dropped silently — it
	// is the expected shape of at-least-once replay, not data loss.
	if b.Seq != 0 && b.Seq <= e.seq {
		f.metrics.dupDrops.Add(1)
		return
	}
	t.Cycles(b.Cycles)
	for _, ev := range b.Events {
		if res, ok := t.Branch(ev.PC, ev.Instrs); ok && f.cfg.OnInterval != nil {
			f.cfg.OnInterval(b.Stream, *res)
		}
	}
	if b.EndInterval {
		if res, ok := t.Flush(); ok && f.cfg.OnInterval != nil {
			f.cfg.OnInterval(b.Stream, *res)
		}
	}
	if b.Seq != 0 {
		e.seq = b.Seq
	}
}
