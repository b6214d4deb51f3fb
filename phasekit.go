// Package phasekit is a library for on-line program phase
// classification and prediction, reproducing "Transition Phase
// Classification and Prediction" (Lau, Schoenmackers, Calder,
// HPCA 2005).
//
// The architecture divides execution into fixed-length instruction
// intervals, summarizes each interval's executed code as a compressed
// signature vector of hashed branch-PC weights, classifies signatures
// into phases with a small LRU signature table, and predicts the next
// interval's phase, the outcome of the next phase change, and the
// length of the next phase. The paper's contributions — the transition
// phase, adaptive per-phase similarity thresholds, prediction
// confidence, and phase change/length predictors — are all implemented
// and enabled by DefaultConfig.
//
// # Quick start
//
//	tracker := phasekit.NewTracker("myapp", phasekit.DefaultConfig())
//	for ev := range branchEvents {          // your instrumentation
//		tracker.Cycles(ev.Cycles)
//		if res, ok := tracker.Branch(ev.PC, ev.Instrs); ok {
//			fmt.Println("interval", res.Index, "phase", res.PhaseID,
//				"next", res.NextPhase.Phase)
//		}
//	}
//	report := tracker.Report()
//
// A Tracker follows one instruction stream and is not safe for
// concurrent use. To track many streams at once — the always-on
// service setting — use Fleet, which shards streams across worker
// goroutines and ingests batched events with backpressure:
//
//	f := phasekit.NewFleet(phasekit.DefaultFleetConfig())
//	f.Send(phasekit.Batch{Stream: "tenant-1", Events: events})
//	f.Flush()
//	report, ok := f.Report("tenant-1")
//
// Each Fleet verb has one implementation, its ctx form (SendCtx,
// FlushCtx, ReportCtx, ...); Send, Flush and Report are that form
// without a deadline.
//
// Synthetic workloads modelled on the paper's SPEC2000 benchmarks are
// available through Workloads and GenerateWorkload, and the full
// evaluation harness behind cmd/experiments regenerates every figure
// and table of the paper.
package phasekit

import (
	"phasekit/internal/classifier"
	"phasekit/internal/core"
	"phasekit/internal/fleet"
	"phasekit/internal/predictor"
	"phasekit/internal/signature"
	"phasekit/internal/trace"
	"phasekit/internal/uarch"
	"phasekit/internal/workload"
)

// Config selects every architectural parameter of a Tracker; build one
// with DefaultConfig and override fields as needed.
type Config = core.Config

// ClassifierConfig configures the signature table (similarity
// threshold, transition-phase min counter, adaptive thresholds).
type ClassifierConfig = classifier.Config

// CompressConfig selects signature bit selection (§4.2 of the paper).
type CompressConfig = signature.CompressConfig

// PredictorConfig assembles the next-phase predictor.
type PredictorConfig = predictor.NextPhaseConfig

// ChangeTableConfig configures a Markov/RLE phase change table.
type ChangeTableConfig = predictor.ChangeTableConfig

// LengthConfig configures run-length-class phase length prediction.
type LengthConfig = predictor.LengthConfig

// Tracker is the on-line phase tracking architecture. Feed it
// committed branches (and optionally cycle counts); it emits an
// IntervalResult at every interval boundary. Branch and Flush return a
// pointer into tracker-owned storage that is overwritten at the next
// interval boundary — copy the result to retain it across calls.
//
// A Tracker is NOT safe for concurrent use: it tracks one instruction
// stream from one goroutine, mirroring the per-core hardware of the
// paper. To track many concurrent streams, use Fleet.
type Tracker = core.Tracker

// Fleet tracks phases for many concurrent instruction streams at once:
// stream IDs are hashed onto shards, each shard's worker goroutine
// exclusively owns its streams' Trackers, and ingestion is batched
// through bounded queues with backpressure. All Fleet methods are safe
// for concurrent use. Every blocking operation is implemented once, as
// a ctx form (SendCtx, FlushCtx, ReportCtx, StreamErrCtx, SnapshotCtx,
// CheckpointCtx) that honours cancellation and deadlines with
// ErrCanceled/ErrDeadline; the plain name calls it without a deadline.
// See internal/fleet for the concurrency model.
type Fleet = fleet.Fleet

// FleetConfig configures a Fleet (shard count, queue depth, per-stream
// tracker configuration, interval callback).
type FleetConfig = fleet.Config

// Batch is one Fleet ingestion unit: a slice of branch events for a
// single stream with an optional cycle charge.
type Batch = fleet.Batch

// StateStore persists evicted Fleet stream state; see FleetConfig's
// Store and MaxResident fields. Snapshots cross it in memory the caller
// owns: Load(dst, stream) copies the stored bytes out, reusing dst's
// storage when they fit, and never returns the store's own memory, so
// a store may overwrite a stream's bytes in place on the next Save.
// Tracker snapshots themselves are produced by Tracker.Snapshot and
// consumed by Tracker.Restore.
type StateStore = fleet.StateStore

// MemStore is an in-memory StateStore: evicted trackers survive as one
// compact serialized buffer per stream instead of live table structures.
type MemStore = fleet.MemStore

// FileStore is a crash-safe file-backed StateStore: one snapshot file
// per stream written via temp file + fsync + rename + directory fsync
// with a CRC32C trailer, recovered (damaged files quarantined) on open.
type FileStore = fleet.FileStore

// RecoveryStats reports what a FileStore's startup recovery scan found
// and quarantined.
type RecoveryStats = fleet.RecoveryStats

// RetryPolicy configures retries (capped exponential backoff with
// jitter) of failed Fleet store operations.
type RetryPolicy = fleet.RetryPolicy

// BreakerPolicy configures the Fleet's store circuit breaker
// (closed → open → half-open). While open, eviction is suspended and
// store operations fast-fail with ErrStoreUnavailable.
type BreakerPolicy = fleet.BreakerPolicy

// OverloadPolicy selects what Fleet.Send does when the owning shard's
// queue is full: block (backpressure) or reject with ErrOverloaded.
type OverloadPolicy = fleet.OverloadPolicy

// Overload policies for FleetConfig.Overload.
const (
	// OverloadBlock makes Send block until queue space frees (default).
	OverloadBlock = fleet.OverloadBlock
	// OverloadReject makes Send return ErrOverloaded instead of blocking.
	OverloadReject = fleet.OverloadReject
)

// MetricsSnapshot is a point-in-time copy of a Fleet's fault and
// degradation counters; see Fleet.Metrics.
type MetricsSnapshot = fleet.MetricsSnapshot

// ClassifierStats aggregates classification-index diagnostics (MRU
// hit rate, rows/buckets scanned) over a Fleet's resident trackers;
// see Fleet.ClassifierStats.
type ClassifierStats = fleet.ClassifierStats

// Typed failure classes for Fleet store errors; match with errors.Is.
var (
	// ErrSnapshotCorrupt marks a snapshot failing integrity
	// verification; the stream is quarantined.
	ErrSnapshotCorrupt = fleet.ErrSnapshotCorrupt
	// ErrSnapshotTooLarge marks a snapshot exceeding the store's size
	// limit, rejected before allocation.
	ErrSnapshotTooLarge = fleet.ErrSnapshotTooLarge
	// ErrStoreUnavailable marks a store operation that failed after
	// exhausting retries or was fast-failed by an open breaker.
	ErrStoreUnavailable = fleet.ErrStoreUnavailable
	// ErrOverloaded is returned by Fleet.Send under OverloadReject when
	// the shard queue is full.
	ErrOverloaded = fleet.ErrOverloaded
	// ErrQuarantined is returned by Fleet ingestion for streams confined
	// after repeated offenses (malformed input, corrupt snapshots); see
	// QuarantinePolicy for the probation/readmission rules.
	ErrQuarantined = fleet.ErrQuarantined
	// ErrCanceled is returned by the Fleet's ctx-aware methods
	// (SendCtx, FlushCtx, SnapshotCtx, ...) when the context is
	// canceled before the operation completes.
	ErrCanceled = fleet.ErrCanceled
	// ErrDeadline is the ErrCanceled analogue for exceeded deadlines.
	ErrDeadline = fleet.ErrDeadline
	// ErrConfig marks any configuration validation failure, from
	// Config.Validate or FleetConfig.Validate; match with errors.Is.
	ErrConfig = core.ErrConfig
)

// QuarantinePolicy configures Fleet stream quarantine: after Strikes
// offenses a stream's batches are rejected with ErrQuarantined until a
// capped, jittered probation window elapses; a clean streak readmits
// it. See FleetConfig.Quarantine.
type QuarantinePolicy = fleet.QuarantinePolicy

// BranchEvent is a committed-branch record: the branch PC and the
// instructions committed since the previous branch.
type BranchEvent = trace.BranchEvent

// IntervalResult reports one interval's classification and the
// predictions made at its boundary.
type IntervalResult = core.IntervalResult

// Prediction is a next-phase prediction with its source and confidence.
type Prediction = predictor.Prediction

// Report aggregates a run's phase behaviour and prediction accuracy.
type Report = core.Report

// Run is a profiled execution: per-interval code profiles and timing.
type Run = trace.Run

// MachineConfig is the microarchitecture model configuration used by
// the bundled workload generator (Table 1 of the paper by default).
type MachineConfig = uarch.Config

// WorkloadOptions controls synthetic workload generation.
type WorkloadOptions = workload.Options

// TransitionPhase is the reserved phase ID for intervals classified as
// phase transitions.
const TransitionPhase = classifier.TransitionPhase

// History kinds for phase change tables.
const (
	// Markov indexes change tables by the last N distinct phase IDs.
	Markov = predictor.Markov
	// RLE indexes by the last N (phase ID, run length) pairs.
	RLE = predictor.RLE
)

// Outcome tracking kinds for phase change tables.
const (
	// TrackSingle stores the most recent change outcome.
	TrackSingle = predictor.TrackSingle
	// TrackLast4 stores the last four unique outcomes.
	TrackLast4 = predictor.TrackLast4
	// TrackTopN stores outcome frequencies and predicts the top N.
	TrackTopN = predictor.TrackTopN
)

// NewChangeTableConfig returns the paper's 32 entry 4-way associative
// change table with 1-bit confidence for the given indexing.
func NewChangeTableConfig(kind predictor.HistoryKind, depth int) ChangeTableConfig {
	return predictor.DefaultChangeTableConfig(kind, depth)
}

// DefaultConfig returns the paper's preferred configuration (§5): 16
// accumulator counters with 6 dynamically selected bits, a 32 entry
// signature table at a 25% similarity threshold with min count 8 and a
// 25% CPI deviation threshold, an RLE-2 phase change predictor with
// confidence, and the hysteresis length predictor.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultMachineConfig returns the paper's Table 1 baseline model.
func DefaultMachineConfig() MachineConfig { return uarch.DefaultConfig() }

// NewTracker returns an on-line tracker. It panics on an invalid
// configuration (validate with cfg.Validate for error handling).
func NewTracker(name string, cfg Config) *Tracker { return core.NewTracker(name, cfg) }

// DefaultFleetConfig returns a Fleet configuration with GOMAXPROCS
// shards and the paper's default tracker configuration.
func DefaultFleetConfig() FleetConfig { return fleet.DefaultConfig() }

// NewFleet returns a running Fleet. It panics on an invalid
// configuration (validate with cfg.Validate for error handling).
func NewFleet(cfg FleetConfig) *Fleet { return fleet.New(cfg) }

// NewMemStore returns an empty in-memory state store.
func NewMemStore() *MemStore { return fleet.NewMemStore() }

// NewFileStore returns a file-backed state store rooted at dir,
// creating the directory if needed.
func NewFileStore(dir string) (*FileStore, error) { return fleet.NewFileStore(dir) }

// Evaluate replays a profiled run under cfg and returns its report.
func Evaluate(run *Run, cfg Config) Report { return core.Evaluate(run, cfg) }

// EvaluateDetailed is Evaluate plus the per-interval result stream.
func EvaluateDetailed(run *Run, cfg Config) (Report, []IntervalResult) {
	return core.EvaluateDetailed(run, cfg)
}

// Workloads lists the bundled synthetic workloads, modelled on the
// paper's SPEC2000 benchmark/input pairs.
func Workloads() []string { return workload.Names() }

// GenerateWorkload builds and executes the named synthetic workload on
// the Table 1 machine model, returning its profiled run. Generation is
// deterministic for a given name and options.
func GenerateWorkload(name string, opts WorkloadOptions) (*Run, error) {
	spec, err := workload.Get(name)
	if err != nil {
		return nil, err
	}
	return workload.Generate(spec, opts)
}
