// Command pkbench is phasekit's end-to-end benchmark. It starts the
// system under test — a phasekitd-equivalent ingest server — in its own
// process, drives it over loopback from this process with a closed-loop
// generator, checks every stream's phase results against a
// single-process oracle, and prints the metrics. With --trace 1 it
// instead replays the same batches through each layer's public calls
// (the ladder) and prints per-layer metrics. See README.md.
//
//	bash perfbench/run.sh --workload ingest-paper --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"phasekit/internal/fleet"
	"phasekit/internal/wal"
)

// workloadDef is one traffic mix.
type workloadDef struct {
	name     string
	interval uint64 // instructions per interval
	streams  int
	resident int  // MaxResident (0 = unlimited, no store)
	wal      bool // group-commit WAL with injected fsync latency
	// crashBatches is the per-stream batch count of the crash image the
	// server replays at setup (WAL workloads only).
	crashBatches int
	// rate sizes the fixed work: a run sends seconds*rate events,
	// whatever the measured speed, so every run of a workload does the
	// same work and ends on the same event count.
	rate float64
	// batches is the per-stream batch count of the timed window,
	// derived from rate and --seconds.
	batches int
}

var workloads = []workloadDef{
	{name: "ingest-paper", interval: 10_000_000, streams: 8, rate: 30e6},
	{name: "ingest-durable", interval: 10_000_000, streams: 8, wal: true, crashBatches: 40_000_000 / (8 * batchEvents), rate: 4e6},
	{name: "classify-churn", interval: 100_000, streams: 64, resident: 16, rate: 3e6},
}

// Fixed load shape: two connections (the benchmark machine has two
// cores), 32 unacknowledged batches per connection, two fleet shards,
// and 1 ms injected before every WAL fsync.
const (
	conns       = 2
	window      = 32
	shards      = 2
	syncDelay   = time.Millisecond
	runDeadline = 170 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) == 3 && os.Args[1] == "serve" {
		if err := serve(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, "pkbench serve:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload: ingest-paper, ingest-durable or classify-churn")
	seed := flag.Uint64("seed", 1, "input seed: picks each stream's program and start block")
	seconds := flag.Int("seconds", 10, "nominal measuring time; fixes the event count of the run")
	traceOn := flag.Int("trace", 0, "1 = run the per-layer ladder and print per-layer metrics")
	flag.Parse()

	res, err := run(*name, *seed, *seconds, *traceOn == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pkbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pkbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool) (*result, error) {
	var w workloadDef
	for _, d := range workloads {
		if d.name == name {
			w = d
		}
	}
	if w.name == "" {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	// The build script puts the binary in .bench_build of the checkout
	// it ran from; refuse to scatter files anywhere else.
	if _, err := os.Stat(filepath.Join("perfbench", "run.sh")); err != nil {
		return nil, errors.New("run from the root of a phasekit checkout")
	}
	work, err := filepath.Abs(".bench_build")
	if err != nil {
		return nil, err
	}
	w.batches = int(math.Ceil(float64(seconds) * w.rate / float64(w.streams*batchEvents)))

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	streams, err := pickStreams(w.streams, seed, filepath.Join(work, "corpus"))
	if err != nil {
		return nil, err
	}
	fmt.Printf("workload %s seed %d: %d streams, %d-instr intervals, %d crash-image + %d timed batches per stream of %d events, fingerprint %s\n",
		w.name, seed, w.streams, w.interval, w.crashBatches, w.batches, batchEvents, fingerprint(w, streams))

	runDir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	sc := serveConfig{Interval: w.interval, Shards: shards, Resident: w.resident, SyncDelay: syncDelay}
	for _, s := range streams {
		sc.Streams = append(sc.Streams, s.name)
	}
	if w.wal {
		sc.WALDir = filepath.Join(runDir, "wal")
		if err := writeCrashImage(sc.WALDir, streams, w.crashBatches); err != nil {
			return nil, fmt.Errorf("crash image: %w", err)
		}
		if !onTmpfs(sc.WALDir) {
			fmt.Println("WARNING: the WAL directory is not on tmpfs; commit latency includes this disk's fsync on top of the injected 1 ms")
		}
	}

	var setups []float64
	if !traced {
		// Set up several times and report the median. Probes send a
		// flush, which writes nothing to the WAL, so every probe replays
		// the same crash image.
		probes := 5
		if w.wal {
			probes = 3
		}
		for i := 0; i < probes; i++ {
			s, err := probeSetup(ctx, sc)
			if err != nil {
				return nil, fmt.Errorf("setup probe: %w", err)
			}
			setups = append(setups, s)
		}
	}

	e2e, err := endToEnd(ctx, sc, streams, w)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: e2e.correct, Attempted: e2e.gen.sent, Failed: e2e.failed, Metrics: make(map[string]metric)}
	events := e2e.gen.ackedEvents
	if events == 0 {
		return nil, errors.New("no batch was acknowledged")
	}
	cpuPerEvent := float64(e2e.rep.CPUServeNs) / float64(events)
	if !traced {
		printEndToEnd(res, e2e, setups, cpuPerEvent)
		return res, nil
	}
	lad, err := runLadder(w, streams, filepath.Join(runDir, "ladder-wal"))
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	if err := lad.writeSpans(filepath.Join(work, "trace", w.name+".spans")); err != nil {
		return nil, err
	}
	perLayer(res, e2e, lad, cpuPerEvent)
	return res, nil
}

// printEndToEnd fills and prints the end-to-end metrics.
func printEndToEnd(res *result, e2e *e2eResult, setups []float64, cpuPerEvent float64) {
	g := e2e.gen
	lat := g.latenciesMs()
	wall := g.end.Sub(g.start).Seconds()
	add := func(name, unit string, v float64, note string) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
		fmt.Printf("%-18s %14.4f %-5s %s\n", name, v, unit, note)
	}
	add("events_per_s", "1/s", float64(g.ackedEvents)/wall, fmt.Sprintf("(%d events acknowledged in %.3f s)", g.ackedEvents, wall))
	// ACK latencies are printed but not reported: across seeds the
	// median spread by half its value on classify-churn, and the p99 by
	// nearly a quarter on ingest-durable, whose fsyncs hit a real disk.
	fmt.Printf("%-18s %14.4f %-5s (n=%d batches; printed, not a gated metric)\n", "ack_p50_ms", percentile(lat, 0.50), "ms", len(lat))
	fmt.Printf("%-18s %14.4f %-5s (n=%d, %d beyond; printed, not a gated metric)\n", "ack_p99_ms", percentile(lat, 0.99), "ms", len(lat), beyond(lat, 0.99))
	fmt.Printf("%-18s %14.4f %-5s (n=%d, %d beyond; printed, not a gated metric)\n", "ack_p999_ms", percentile(lat, 0.999), "ms", len(lat), beyond(lat, 0.999))
	add("cpu_ns_per_event", "ns", cpuPerEvent, fmt.Sprintf("(server user+system CPU %.3f s)", float64(e2e.rep.CPUServeNs)/1e9))
	add("live_heap_mb", "MB", float64(e2e.rep.LiveHeap)/(1<<20), "(server heap after forced GC)")
	add("setup_s", "s", median(setups), fmt.Sprintf("(median of %d server starts: %s)", len(setups), fmtList(setups)))
	if e2e.info.ReplayRecords > 0 {
		fmt.Printf("setup replayed %d WAL records (%d events) in %.3f s\n", e2e.info.ReplayRecords, e2e.info.ReplayEvents, e2e.info.ReplaySeconds)
	}
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}

// writeCrashImage writes a WAL holding the first n batches of every
// stream, as a server that acknowledged them and then died before any
// checkpoint would have left it. Records go to the shard that owns
// their stream, as the server appends them.
func writeCrashImage(dir string, streams []*stream, n int) error {
	f := fleet.New(fleet.Config{Shards: shards})
	defer f.Close()
	logs := make([]*wal.Log, shards)
	for i := range logs {
		l, err := wal.Open(wal.Options{Dir: shardDir(dir, i)})
		if err != nil {
			return err
		}
		defer l.Close()
		logs[i] = l
	}
	for k := 0; k < n; k++ {
		for _, s := range streams {
			ev, cyc := s.batch(k)
			rec := wal.Record{Stream: s.name, Seq: uint64(k + 1), Cycles: cyc, Events: ev}
			if _, err := logs[f.StreamShard(s.name)].Append(&rec); err != nil {
				return err
			}
		}
	}
	for _, l := range logs {
		if err := l.Close(); err != nil {
			return err
		}
	}
	return nil
}
