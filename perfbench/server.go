package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"phasekit/internal/core"
	"phasekit/internal/faults"
	"phasekit/internal/fleet"
	"phasekit/internal/server"
	"phasekit/internal/wal"
)

// serveConfig is what the benchmark hands the system under test, as the
// single JSON argument of `pkbench serve`.
type serveConfig struct {
	Interval  uint64        `json:"interval"`
	Shards    int           `json:"shards"`
	Resident  int           `json:"resident"`
	WALDir    string        `json:"wal_dir"` // empty = WAL off
	SyncDelay time.Duration `json:"sync_delay"`
	Streams   []string      `json:"streams"` // streams to report at shutdown
}

// trackerConfig is the per-stream tracker configuration of every
// workload: the paper's defaults at the workload's interval length.
// Unlike phasekitd, adaptive thresholds stay on, because every batch
// carries the timing model's cycle count.
func trackerConfig(interval uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.IntervalInstrs = interval
	return cfg
}

// readyInfo is the line the server prints once it accepts connections.
type readyInfo struct {
	Addr          string  `json:"addr"`
	ReplayRecords int     `json:"replay_records"`
	ReplayEvents  int64   `json:"replay_events"`
	ReplaySeconds float64 `json:"replay_s"`
	WALOnTmpfs    bool    `json:"wal_on_tmpfs"`
}

// serverReport is what the server prints when its standard input
// closes: the counters the per-layer metrics need, the CPU and heap it
// used, and every stream's report for the oracle check.
type serverReport struct {
	CPUServeNs  int64                 `json:"cpu_serve_ns"` // CPU from end of setup to shutdown
	LiveHeap    uint64                `json:"live_heap"`
	Server      server.Metrics        `json:"server"`
	Fleet       fleet.MetricsSnapshot `json:"fleet"`
	Classifier  fleet.ClassifierStats `json:"classifier"`
	StoreSaves  uint64                `json:"store_saves"`
	StoreLoads  uint64                `json:"store_loads"`
	WALAppends  uint64                `json:"wal_appends"`
	WALSyncs    uint64                `json:"wal_syncs"`
	NextCorrect int                   `json:"next_correct"`
	NextCovered int                   `json:"next_covered"`
	NextTotal   int                   `json:"next_total"`
	Reports     map[string]string     `json:"reports"`
	Missing     []string              `json:"missing,omitempty"`
}

// serve runs the system under test. It makes the calls cmd/phasekitd
// makes at startup — fleet.New, wal.Open, wal.Replay into Fleet.Send,
// server.New and Serve — with a fixed-latency fsync hook that phasekitd
// has no flag for. It prints a readyInfo line once listening, serves
// until its standard input closes, then prints a serverReport.
func serve(arg string) error {
	var sc serveConfig
	if err := json.Unmarshal([]byte(arg), &sc); err != nil {
		return fmt.Errorf("serve config: %w", err)
	}
	fcfg := fleet.Config{
		Shards:      sc.Shards,
		Tracker:     trackerConfig(sc.Interval),
		MaxResident: sc.Resident,
		Retry:       fleet.RetryPolicy{MaxRetries: 3},
	}
	var store *faults.Store
	if sc.Resident > 0 {
		// An empty schedule injects nothing; the wrapper only counts.
		store = faults.Wrap(fleet.NewMemStore(), faults.Schedule{})
		fcfg.Store = store
	}
	if err := fcfg.Validate(); err != nil {
		return err
	}
	f := fleet.New(fcfg)
	defer f.Close()

	var logs []*wal.Log
	info := readyInfo{}
	if sc.WALDir != "" {
		info.WALOnTmpfs = onTmpfs(sc.WALDir)
		delay := sc.SyncDelay
		hooks := wal.Hooks{BeforeSync: func(string) error { time.Sleep(delay); return nil }}
		logs = make([]*wal.Log, f.Shards())
		for i := range logs {
			l, err := wal.Open(wal.Options{Dir: shardDir(sc.WALDir, i), Sync: wal.SyncGroup, Hooks: hooks})
			if err != nil {
				return fmt.Errorf("wal shard %d: %w", i, err)
			}
			defer l.Close()
			logs[i] = l
		}
		start := time.Now()
		for i := range logs {
			rs, err := wal.Replay(shardDir(sc.WALDir, i), func(rec wal.Record) error {
				info.ReplayEvents += int64(len(rec.Events))
				return f.Send(fleet.Batch{Stream: rec.Stream, Seq: rec.Seq, Cycles: rec.Cycles, Events: rec.Events, EndInterval: rec.EndInterval})
			})
			if err != nil {
				return fmt.Errorf("wal replay shard %d: %w", i, err)
			}
			info.ReplayRecords += rs.Records
		}
		f.ClassifierStats() // a queue barrier: every replayed batch is applied
		info.ReplaySeconds = time.Since(start).Seconds()
	}
	srv, err := server.New(server.Config{Fleet: f, WAL: logs})
	if err != nil {
		return err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe("127.0.0.1:0") }()
	for srv.Addr() == nil {
		select {
		case err := <-serveErr:
			return err
		case <-time.After(100 * time.Microsecond):
		}
	}
	info.Addr = srv.Addr().String()
	cpuSetup := cpuNow()
	out := bufio.NewWriter(os.Stdout)
	if err := writeJSONLine(out, info); err != nil {
		return err
	}

	// The benchmark closes our standard input when it is done.
	io.Copy(io.Discard, os.Stdin)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-serveErr; err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	f.ClassifierStats() // barrier: everything admitted is applied
	rep := serverReport{CPUServeNs: cpuNow() - cpuSetup, Server: srv.Metrics(), Fleet: f.Metrics(), Reports: make(map[string]string)}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.LiveHeap = ms.HeapAlloc

	rep.Classifier = f.ClassifierStats()
	if store != nil {
		rep.StoreSaves, rep.StoreLoads = store.Ops()
	}
	for _, l := range logs {
		a, s := l.Stats()
		rep.WALAppends += a
		rep.WALSyncs += s
	}
	for _, name := range sc.Streams {
		r, ok := f.Report(name)
		if !ok {
			rep.Missing = append(rep.Missing, name)
			continue
		}
		rep.Reports[name] = reportKey(r)
		np := r.NextPhase
		rep.NextCorrect += np.TableCorrect + np.LVConfCorrect
		rep.NextCovered += np.TableCorrect + np.TableIncorrect + np.LVConfCorrect + np.LVConfIncorrect
		rep.NextTotal += np.Intervals
	}
	sort.Strings(rep.Missing)
	return writeJSONLine(out, rep)
}

// reportKey renders a report for comparison. Printing compares NaN
// fields equal, which reflect.DeepEqual would not.
func reportKey(r core.Report) string { return fmt.Sprintf("%+v", r) }

func shardDir(root string, i int) string {
	return filepath.Join(root, "standalone", fmt.Sprintf("shard-%d", i))
}

func writeJSONLine(w *bufio.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	w.Write(b)
	w.WriteByte('\n')
	return w.Flush()
}
