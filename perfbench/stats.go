package main

import (
	"math"
	"sort"
	"syscall"
)

// percentile returns the q-quantile (0 < q <= 1) of xs by the
// nearest-rank method: the smallest sample with at least q of the
// samples at or below it. xs need not be sorted; it is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	r := int(math.Ceil(q * float64(len(s))))
	if r < 1 {
		r = 1
	}
	if r > len(s) {
		r = len(s)
	}
	return s[r-1]
}

// median returns the middle sample of xs, or the mean of the two middle
// samples for an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// beyond counts the samples strictly above the q-quantile: how many
// observations back a reported tail percentile.
func beyond(xs []float64, q float64) int {
	p := percentile(xs, q)
	n := 0
	for _, x := range xs {
		if x > p {
			n++
		}
	}
	return n
}

// cpuNow returns this process's user plus system CPU time in ns.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return timevalNs(ru.Utime) + timevalNs(ru.Stime)
}

func timevalNs(tv syscall.Timeval) int64 {
	return int64(tv.Sec)*1e9 + int64(tv.Usec)*1e3
}

// perEvent divides a total (ns, or a count) over the events or calls
// that made it. It is 0 when there is nothing to divide by, so a layer
// a workload does not use reads as 0 rather than NaN.
func perEvent(total, n int64) float64 {
	if n <= 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// onTmpfs reports whether dir lives on a tmpfs mount.
func onTmpfs(dir string) bool {
	const tmpfsMagic = 0x01021994
	var st syscall.Statfs_t
	return syscall.Statfs(dir, &st) == nil && st.Type == tmpfsMagic
}

// spanName identifies the layer call a span timed.
type spanName uint8

const (
	spWireEncode   spanName = iota // wire.AppendBatchFrame
	spWireDecode                   // wire.DecodeFrameView
	spSigBatch                     // signature.Accumulator.Add over one batch
	spSigCompress                  // CompressConfig.CompressInto at an interval boundary
	spClassify                     // classifier.Classify at an interval boundary
	spCoreBatch                    // core.Tracker.Cycles and Branch over one batch
	spCoreBoundary                 // one Tracker.Branch call that returned ok=true
	spSnapshot                     // Tracker.AppendSnapshot of an evicted stream
	spRestore                      // Tracker.Restore of a rehydrated stream
	spFleetRun                     // Fleet.TrySendRun over every batch, then a queue barrier
	spWALAppend                    // wal.Log.Append
	spWALCommit                    // wal.Log.Commit
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"wire.encode", "wire.decode", "signature.batch", "signature.compress",
	"classifier.classify", "core.batch", "core.boundary", "fleet.snapshot",
	"fleet.restore", "fleet.run", "wal.append", "wal.commit",
}

// span is one timed call in the ladder: which layer call it was, when it
// started and ended (ns since the trace began), the span that encloses
// it (-1 for none) and the batch it served (-1 for none).
type span struct {
	start, end int64
	parent     int32
	batch      int32
	name       spanName
}

// layerTime is the aggregate of every span with one name.
type layerTime struct {
	count int64
	total int64 // summed durations, children included
	self  int64 // summed durations minus the time their children cover
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the durations of its direct children; the ladder runs
// its calls one at a time, so children never overlap.
func selfTimes(spans []span) [numSpanNames]layerTime {
	var out [numSpanNames]layerTime
	for _, s := range spans {
		d := s.end - s.start
		lt := &out[s.name]
		lt.count++
		lt.total += d
		lt.self += d
		if s.parent >= 0 {
			out[spans[s.parent].name].self -= d
		}
	}
	return out
}

// rung is one line of the per-layer self-time table, in CPU ns per
// acknowledged event.
type rung struct {
	name string
	ns   float64
}

// ladderCosts are the measured rung totals the attribution starts
// from, each in ns per event.
type ladderCosts struct {
	decode    float64 // wire.DecodeFrameView
	add       float64 // signature.Accumulator.Add (self time of the signature rung)
	coreBatch float64 // core rung, children included: Branch, boundaries, snapshot, restore
	boundary  float64 // Tracker.Branch calls returning ok=true
	compress  float64 // signature.CompressInto at each boundary
	classify  float64 // classifier.Classify at each boundary
	snapshot  float64 // Tracker.AppendSnapshot on eviction
	restore   float64 // Tracker.Restore on rehydration
	fleetCPU  float64 // process CPU of the fleet rung (TrySendRun and the shards it feeds)
	walAppend float64 // wal.Log.Append
}

// attribute splits the server's measured CPU cost per event into the
// ladder's rungs. Each nested rung is reported as self time (its
// measured time minus the rungs it contains), and the remainder that no
// rung explains is server.unattributed, so the rungs always sum to
// cpuNsPerEvent exactly.
func attribute(c ladderCosts, cpuNsPerEvent float64) []rung {
	rungs := []rung{
		{"wire.decode", c.decode},
		{"fleet.send", c.fleetCPU - c.coreBatch},
		{"signature.add", c.add},
		{"core.branch", c.coreBatch - c.boundary - c.snapshot - c.restore - c.add},
		{"signature.compress", c.compress},
		{"classifier.classify", c.classify},
		{"predictor.update", c.boundary - c.compress - c.classify},
		{"fleet.snapshot", c.snapshot},
		{"fleet.restore", c.restore},
		{"wal.append", c.walAppend},
	}
	sum := 0.0
	for _, r := range rungs {
		sum += r.ns
	}
	return append(rungs, rung{"server.unattributed", cpuNsPerEvent - sum})
}
