package fleet

import "sync/atomic"

// metrics is the Fleet's internal fault-observability state. Counters
// are atomics because shard workers and producers bump them
// concurrently; reads go through Metrics(), which returns a plain
// snapshot.
type metrics struct {
	saveRetries        atomic.Uint64
	loadRetries        atomic.Uint64
	saveFailures       atomic.Uint64
	loadFailures       atomic.Uint64
	breakerTrips       atomic.Uint64
	breakerFastFails   atomic.Uint64
	suspendedEvictions atomic.Uint64
	droppedBatches     atomic.Uint64
	rejectedBatches    atomic.Uint64
	quarantined        atomic.Uint64
	ingestQuarantines  atomic.Uint64
	quarantineRejects  atomic.Uint64
	readmissions       atomic.Uint64
	canceledOps        atomic.Uint64
	detaches           atomic.Uint64
	adopts             atomic.Uint64
	notOwnedRejects    atomic.Uint64
	notOwnedDrops      atomic.Uint64
	dupDrops           atomic.Uint64
}

// MetricsSnapshot is a point-in-time copy of the Fleet's fault and
// degradation counters. Every store failure is observable here even
// when retries mask it from callers: a masked transient failure shows
// up as a retry, a persistent one as a failure, and a suppressed
// eviction or dropped batch as degradation.
type MetricsSnapshot struct {
	// SaveRetries / LoadRetries count store operations that failed at
	// least once but were masked by a retry.
	SaveRetries uint64
	LoadRetries uint64
	// SaveFailures / LoadFailures count store operations that failed
	// after exhausting retries (or fast-failed on an open breaker).
	SaveFailures uint64
	LoadFailures uint64
	// BreakerTrips counts closed→open transitions of the store circuit
	// breaker; BreakerFastFails counts operations rejected without
	// touching the store while the breaker was open.
	BreakerTrips     uint64
	BreakerFastFails uint64
	// SuspendedEvictions counts eviction passes skipped because the
	// breaker was open (graceful degradation: trackers stay resident
	// above MaxResident instead of risking state loss).
	SuspendedEvictions uint64
	// DroppedBatches counts batches discarded because their stream
	// could not be rehydrated (store unavailable or snapshot corrupt).
	DroppedBatches uint64
	// RejectedBatches counts batches refused with ErrOverloaded by a
	// non-blocking enqueue into a full shard queue: every admitted batch
	// of a refused TrySendRun, and every Send/SendCtx refused under the
	// Reject overload policy. A blocking send under the Block policy
	// never counts.
	RejectedBatches uint64
	// QuarantinedStreams counts streams permanently quarantined after a
	// corrupt snapshot.
	QuarantinedStreams uint64
	// IngestQuarantines counts ingestion-side quarantine entries
	// (offense threshold reached, a probation relapse, or a permanent
	// store failure propagated to the ingest set).
	IngestQuarantines uint64
	// QuarantineRejects counts Send/SendCtx calls rejected with
	// ErrQuarantined.
	QuarantineRejects uint64
	// Readmissions counts quarantined streams readmitted on probation
	// after their window elapsed.
	Readmissions uint64
	// CanceledOps counts ctx-bounded operations (SendCtx, FlushCtx,
	// SnapshotCtx, ...) abandoned with ErrCanceled or ErrDeadline.
	CanceledOps uint64
	// Detaches / Adopts count streams migrated out of and adopted into
	// this Fleet (DetachStream / AdoptStream).
	Detaches uint64
	Adopts   uint64
	// NotOwnedRejects counts batches refused at Send with ErrNotOwned
	// (stream detached); NotOwnedDrops counts batches that slipped into
	// a shard queue before the handoff fence landed and were dropped
	// (also counted in DroppedBatches).
	NotOwnedRejects uint64
	NotOwnedDrops   uint64
	// DuplicateBatches counts batches dropped because their per-stream
	// sequence (Batch.Seq) was at or below the stream's last applied
	// sequence — the expected shape of at-least-once replay (client
	// reconnect, WAL crash replay), not data loss.
	DuplicateBatches uint64
	// Overshoot is the number of resident trackers currently above
	// MaxResident (0 when no limit is set or the fleet is within it).
	Overshoot int
}

// Metrics returns a snapshot of the Fleet's fault and degradation
// counters. Safe for concurrent use.
func (f *Fleet) Metrics() MetricsSnapshot {
	s := MetricsSnapshot{
		SaveRetries:        f.metrics.saveRetries.Load(),
		LoadRetries:        f.metrics.loadRetries.Load(),
		SaveFailures:       f.metrics.saveFailures.Load(),
		LoadFailures:       f.metrics.loadFailures.Load(),
		BreakerTrips:       f.metrics.breakerTrips.Load(),
		BreakerFastFails:   f.metrics.breakerFastFails.Load(),
		SuspendedEvictions: f.metrics.suspendedEvictions.Load(),
		DroppedBatches:     f.metrics.droppedBatches.Load(),
		RejectedBatches:    f.metrics.rejectedBatches.Load(),
		QuarantinedStreams: f.metrics.quarantined.Load(),
		IngestQuarantines:  f.metrics.ingestQuarantines.Load(),
		QuarantineRejects:  f.metrics.quarantineRejects.Load(),
		Readmissions:       f.metrics.readmissions.Load(),
		CanceledOps:        f.metrics.canceledOps.Load(),
		Detaches:           f.metrics.detaches.Load(),
		Adopts:             f.metrics.adopts.Load(),
		NotOwnedRejects:    f.metrics.notOwnedRejects.Load(),
		NotOwnedDrops:      f.metrics.notOwnedDrops.Load(),
		DuplicateBatches:   f.metrics.dupDrops.Load(),
	}
	if f.cfg.MaxResident > 0 {
		if over := f.Resident() - f.cfg.MaxResident; over > 0 {
			s.Overshoot = over
		}
	}
	return s
}
