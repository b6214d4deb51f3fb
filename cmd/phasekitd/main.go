// Command phasekitd is the always-on phase tracking service: a TCP
// server that ingests branch-event batches over the internal/wire
// binary protocol, classifies them through a phasekit Fleet, and
// survives hostile operating conditions — slow or malicious clients,
// poisoned streams, store outages, and orderly restarts.
//
// Usage:
//
//	phasekitd -addr :9127 -store /var/lib/phasekit      # serve
//	phasekitd -addr :9127 -store dir -restore           # resume a drained state dir
//	phasekitd -addr :9127 -health :9128                 # + /healthz /readyz /metricz
//	phasekitd -addr :9127 -store dir -phases phases.log # per-interval phase log
//
// Cluster mode — each node owns a consistent-hash slice of the stream
// space and redirects batches for streams it does not own. Every
// member mounts the same -store (required): when membership changes, a
// stream moves by being checkpointed there by its old owner and
// rehydrated from it by its new one:
//
//	phasekitd -addr :9127 -health :9128 -node-id n1 -node-addr 10.0.0.1:9127 -store /var/lib/phasekit
//	phasekitd -addr :9127 -health :9128 -node-id n2 -node-addr 10.0.0.2:9127 -store /var/lib/phasekit \
//	          -peers 10.0.0.1:9127
//
// Administer it with phasekitctl against the -health endpoint. Each
// node renews a lease record in the shared -store every
// -heartbeat-interval and reads its peers' leases; a peer whose lease
// stands still past -dead-after is taken over automatically (or remove
// it by hand with `phasekitctl leave`). The survivors adopt its streams
// from its last checkpoints, and epoch fencing stops the dead node from
// overwriting them if it comes back. A node that cannot reach the store
// is therefore taken over too; one its peers cannot reach over the
// network but that renews its lease is not.
//
// Pipe a trace into it with phasesim:
//
//	phasesim -workload mcf -streams 8 -connect 127.0.0.1:9127
//
// On SIGTERM/SIGINT the server drains gracefully: it stops accepting,
// finishes in-flight frames, processes everything enqueued, checkpoints
// every resident stream (including mid-interval state) into -store,
// appends the phase log, and exits 0. Restarting with -restore resumes
// every stream bit-identically, so a trace split across a restart
// yields exactly the phase sequence of an uninterrupted run.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"phasekit/internal/cluster"
	"phasekit/internal/core"
	"phasekit/internal/fleet"
	"phasekit/internal/server"
	"phasekit/internal/wal"
	"phasekit/internal/wire"
)

func main() {
	var (
		addr       = flag.String("addr", ":9127", "TCP listen address for the binary ingest protocol")
		health     = flag.String("health", "", "HTTP listen address for /healthz, /readyz, /metricz (empty = off)")
		pprofOn    = flag.Bool("pprof", false, "also mount /debug/pprof/ on the -health listener")
		storeDir   = flag.String("store", "", "state directory: drain checkpoints land here; streams rehydrate from it (empty = in-memory, no restart durability)")
		restore    = flag.Bool("restore", false, "resume from an existing non-empty -store dir (refused otherwise, to catch accidental state mixing)")
		resident   = flag.Int("resident", 0, "max resident trackers; idle streams are evicted to -store (0 = unlimited)")
		shards     = flag.Int("shards", 0, "fleet shard count (0 = GOMAXPROCS)")
		interval   = flag.Uint64("interval", 10_000_000, "instructions per interval")
		overload   = flag.String("overload", "block", "full-queue policy: block (deadline-bounded wait) or reject (immediate NACK)")
		readTO     = flag.Duration("read-timeout", server.DefaultReadTimeout, "per-frame read deadline (slow-loris guard)")
		writeTO    = flag.Duration("write-timeout", server.DefaultWriteTimeout, "per-response write deadline")
		ingestTO   = flag.Duration("ingest-timeout", server.DefaultIngestTimeout, "max wait for fleet queue space per batch")
		drainTO    = flag.Duration("drain-timeout", 30*time.Second, "max graceful drain time before connections are cut")
		maxFrame   = flag.Int("max-frame", wire.DefaultMaxFrame, "max accepted frame payload bytes")
		strikes    = flag.Int("quarantine-strikes", 3, "malformed-frame offenses before a stream is quarantined (0 = off)")
		probation  = flag.Duration("quarantine-probation", fleet.DefaultProbation, "initial quarantine window (doubles per relapse, jittered)")
		phasesPath = flag.String("phases", "", "append per-interval phase IDs (\"stream index phase\" lines) to this file at drain")
		verbose    = flag.Bool("v", false, "log connection-level diagnostics")
		nodeID     = flag.String("node-id", "", "cluster member ID; enables cluster mode (ownership checks, redirects, migration through the shared -store, which it requires)")
		nodeAddr   = flag.String("node-addr", "", "ingest address advertised to peers and redirected clients (default: -addr; must be reachable, not :port)")
		peers      = flag.String("peers", "", "comma-separated ingest addresses of existing members to join through (empty = start a new cluster)")
		hbInterval = flag.Duration("heartbeat-interval", time.Second, "failure-detector lease period: renew this node's lease in -store and read its peers' this often (0 = no failure detection)")
		suspectTO  = flag.Duration("suspect-after", 0, "how long a peer's lease may stand still before it is suspect (0 = 3x heartbeat interval)")
		deadTO     = flag.Duration("dead-after", 0, "how long a peer's lease may stand still before it is taken over (0 = 2x suspect-after)")
		walDir     = flag.String("wal-dir", "", "write-ahead log root; batches are ACKed only after their WAL append is durable, and the log is replayed over the last checkpoints at startup (empty = no WAL)")
		walSync    = flag.String("wal-sync", "group", "WAL durability: always (fsync per append), group (one fsync per commit window), off (disable the WAL entirely; ACK on enqueue as without -wal-dir)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "phasekitd: ", log.LstdFlags|log.Lmsgprefix)

	cfg := core.DefaultConfig()
	cfg.IntervalInstrs = *interval
	// Network batches carry explicit cycle charges only; without a
	// reliable CPI stream, adaptive threshold splitting is off (exactly
	// as phasesim treats replayed traces).
	cfg.Classifier.Adaptive = false

	rec := server.NewPhaseRecorder()
	if *phasesPath != "" {
		// Stream phase lines as intervals close instead of buffering
		// until drain: a node that dies without draining (kill -9)
		// still leaves a log covering every completed interval.
		if err := rec.StreamTo(*phasesPath); err != nil {
			logger.Fatalf("phases: %v", err)
		}
	}
	fcfg := fleet.Config{
		Shards:      *shards,
		Tracker:     cfg,
		MaxResident: *resident,
		Retry:       fleet.RetryPolicy{MaxRetries: 3},
		Quarantine:  fleet.QuarantinePolicy{Strikes: *strikes, Probation: *probation},
		OnInterval:  rec.Record,
	}
	switch *overload {
	case "block":
		fcfg.Overload = fleet.OverloadBlock
	case "reject":
		fcfg.Overload = fleet.OverloadReject
	default:
		logger.Fatalf("-overload must be block or reject, got %q", *overload)
	}
	if *nodeID == "" && (*nodeAddr != "" || *peers != "") {
		logger.Fatal("-node-addr/-peers need -node-id (cluster mode)")
	}
	if *nodeID != "" && *storeDir == "" {
		logger.Fatal("-node-id needs -store: cluster members move streams through a shared state directory")
	}
	var walMode wal.SyncMode
	walOn := false
	switch *walSync {
	case "off":
		// -wal-sync=off disables the WAL outright (not "write without
		// fsync"): ACK-on-enqueue, no log files, today's ingest path.
	case "group":
		walMode, walOn = wal.SyncGroup, *walDir != ""
	case "always":
		walMode, walOn = wal.SyncAlways, *walDir != ""
	default:
		logger.Fatalf("-wal-sync must be always, group, or off, got %q", *walSync)
	}
	if *storeDir != "" {
		// In cluster mode a shared state dir legitimately holds other
		// members' snapshots, so the accidental-state-mixing guard only
		// applies to standalone servers.
		if !*restore && *nodeID == "" {
			if snaps, _ := filepath.Glob(filepath.Join(*storeDir, "*.pkst")); len(snaps) > 0 {
				logger.Fatalf("state dir %s already holds %d snapshots; pass -restore to resume them or point -store at a fresh directory", *storeDir, len(snaps))
			}
		}
		fs, err := fleet.NewFileStore(*storeDir)
		if err != nil {
			logger.Fatal(err)
		}
		if rec := fs.Recovered(); rec.Orphans > 0 || rec.Corrupt > 0 {
			logger.Printf("store recovery: scanned %d snapshots, quarantined %d orphans and %d corrupt", rec.Scanned, rec.Orphans, rec.Corrupt)
		}
		fcfg.Store = fs
		fcfg.Breaker = fleet.BreakerPolicy{Threshold: 8, Cooldown: 2 * time.Second}
	} else {
		if *restore {
			logger.Fatal("-restore needs -store")
		}
		if *resident > 0 {
			fcfg.Store = fleet.NewMemStore()
		}
	}
	var fence *cluster.FencedStore
	if *nodeID != "" {
		// Checkpoints carry the writer's ring epoch; the store refuses
		// writes from epochs older than what it already holds, so a
		// fenced-off former owner cannot clobber its successor's state.
		fence = cluster.NewFencedStore(fcfg.Store, 1)
		fcfg.Store = fence
	}
	if err := fcfg.Validate(); err != nil {
		logger.Fatal(err)
	}
	f := fleet.New(fcfg)

	// The WAL lives per node, per shard: <wal-dir>/<node-id>/shard-N. In
	// a shared -wal-dir, a node's directory outlives it, so a takeover
	// successor can replay the dead node's tail read-only.
	var walLogs []*wal.Log
	if walOn {
		nid := *nodeID
		if nid == "" {
			nid = "standalone"
		}
		walRoot := filepath.Join(*walDir, nid)
		walLogs = make([]*wal.Log, f.Shards())
		for i := range walLogs {
			l, err := wal.Open(wal.Options{
				Dir:  filepath.Join(walRoot, fmt.Sprintf("shard-%d", i)),
				Sync: walMode,
			})
			if err != nil {
				logger.Fatalf("wal shard %d: %v", i, err)
			}
			if rs := l.Recovered(); rs.TornBytes > 0 || rs.Quarantined > 0 {
				logger.Printf("wal shard %d recovery: %d records in %d segments, truncated %d torn tail bytes, quarantined %d corrupt segments",
					i, rs.Records, rs.Segments, rs.TornBytes, rs.Quarantined)
			}
			walLogs[i] = l
		}
		// Replay everything that survived recovery back through the
		// fleet before serving. A replayed stream rehydrates from its
		// last checkpoint on first touch, and the per-stream sequence
		// numbers drop every record the checkpoint already covers —
		// at-least-once replay, exactly-once apply. After a kill -9 this
		// recovers exactly the ACKed-but-not-checkpointed tail.
		replayed := 0
		for i := range walLogs {
			rs, err := wal.Replay(filepath.Join(walRoot, fmt.Sprintf("shard-%d", i)), func(rec wal.Record) error {
				return f.Send(fleet.Batch{Stream: rec.Stream, Seq: rec.Seq, Cycles: rec.Cycles, Events: rec.Events, EndInterval: rec.EndInterval})
			})
			if err != nil {
				logger.Fatalf("wal replay shard %d: %v", i, err)
			}
			replayed += rs.Records
		}
		if replayed > 0 {
			logger.Printf("wal replay: %d records (%d deduplicated against checkpoints)", replayed, f.Metrics().DuplicateBatches)
		}
	}

	var coord *cluster.Coordinator
	var det *cluster.Detector
	if *nodeID != "" {
		adv := *nodeAddr
		if adv == "" {
			adv = *addr
		}
		self := cluster.Node{ID: *nodeID, Addr: adv}
		initial, err := cluster.NewRing(1, []cluster.Node{self})
		if err != nil {
			logger.Fatal(err)
		}
		coord, err = cluster.NewCoordinator(cluster.CoordinatorConfig{
			Self: self, Fleet: f, Initial: initial, Fence: fence,
			Logf: logger.Printf,
		})
		if err != nil {
			logger.Fatal(err)
		}
		if *hbInterval > 0 {
			det, err = cluster.NewDetector(cluster.DetectorConfig{
				Coordinator: coord,
				Policy: cluster.HealthPolicy{
					Interval:     *hbInterval,
					SuspectAfter: *suspectTO,
					DeadAfter:    *deadTO,
				},
				OnEvicted: func(epoch uint64) {
					// The cluster declared this node dead and moved on;
					// its streams have new owners and every checkpoint it
					// attempts will be fenced. Exiting is the only safe
					// move — rejoin with a fresh start, not stale state.
					logger.Printf("fenced off: evicted from the ring at epoch %d; exiting", epoch)
					os.Exit(3)
				},
				Logf: logger.Printf,
			})
			if err != nil {
				logger.Fatal(err)
			}
			coord.AttachDetector(det)
		}
		if walOn {
			// After a takeover, replay the dead node's WAL tail on top of
			// its adopted checkpoints: records newer than the checkpoint
			// land through the same seq-dedup path as startup replay, so
			// batches the dead node ACKed but never checkpointed survive.
			// Every survivor runs this and keeps only its own share of
			// the streams; replay is read-only, so the shared tail can be
			// consumed by several survivors concurrently.
			walTop := *walDir
			coord.AttachTakeoverHook(func(removed []string) {
				for _, id := range removed {
					rs, err := wal.ReplayDirs(filepath.Join(walTop, id), func(rec wal.Record) error {
						if _, remote := coord.OwnerIfRemoteString(rec.Stream); remote {
							return nil // a peer's share; it replays its own
						}
						return f.Send(fleet.Batch{Stream: rec.Stream, Seq: rec.Seq, Cycles: rec.Cycles, Events: rec.Events, EndInterval: rec.EndInterval})
					})
					if err != nil {
						logger.Printf("takeover: wal tail of %s: %v", id, err)
						continue
					}
					if rs.Records > 0 {
						logger.Printf("takeover: replayed %d wal records from %s (%d segments)", rs.Records, id, rs.Segments)
					}
				}
			})
		}
	}

	scfg := server.Config{
		Fleet:         f,
		Cluster:       coord,
		WAL:           walLogs,
		ReadTimeout:   *readTO,
		WriteTimeout:  *writeTO,
		IngestTimeout: *ingestTO,
		MaxFrame:      *maxFrame,
	}
	if *verbose {
		scfg.Logf = logger.Printf
	}
	srv, err := server.New(scfg)
	if err != nil {
		logger.Fatal(err)
	}

	if *health != "" {
		handler := srv.HealthHandler()
		if *pprofOn {
			// Profiling shares the health listener so operators get one
			// HTTP surface, but stays off by default: pprof endpoints
			// leak heap contents and must be opted into explicitly.
			mux := http.NewServeMux()
			mux.Handle("/", handler)
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			handler = mux
		}
		hsrv := &http.Server{Addr: *health, Handler: handler}
		go func() {
			if err := hsrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Printf("health server: %v", err)
			}
		}()
		defer hsrv.Close()
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe(*addr) }()

	// Wait for the listener so the startup log carries the bound
	// address (":0" resolves to a real port).
	for srv.Addr() == nil {
		select {
		case err := <-serveErr:
			logger.Fatal(err)
		case <-time.After(time.Millisecond):
		}
	}
	logger.Printf("serving on %s (store=%q resident=%d overload=%s)", srv.Addr(), *storeDir, *resident, *overload)

	// Announce ourselves only after the listener is up: the seed pushes
	// the new assignment back at us during the join round trip, and
	// peers may redirect clients here before it arrives.
	if coord != nil && *peers != "" {
		jctx, jcancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := coord.Join(jctx, strings.Split(*peers, ",")); err != nil {
			jcancel()
			logger.Fatalf("join via %s: %v", *peers, err)
		}
		jcancel()
		logger.Printf("node %s joined: epoch %d, %d members", *nodeID, coord.Epoch(), len(coord.Ring().Nodes()))
	} else if coord != nil {
		logger.Printf("node %s started a new cluster (advertising %s)", *nodeID, coord.Ring().Nodes()[0].Addr)
	}
	// Leases start after Join so the first tick reads the real
	// membership's, not the provisional self-only ring's.
	if det != nil {
		det.Start()
	}

	select {
	case err := <-serveErr:
		logger.Fatal(err)
	case sig := <-sigs:
		logger.Printf("%v: draining", sig)
	}

	// Drain sequence: stop the network edge, then the queues, then
	// persist. Each step observes everything the previous one admitted.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	exit := 0
	if det != nil {
		// Stop renewing first: a draining node must not initiate a
		// takeover while it checkpoints. Its lease then stands still, and
		// the survivors take it over after -dead-after.
		det.Stop()
	}
	if err := srv.Shutdown(ctx); err != nil {
		logger.Printf("shutdown: %v", err)
	}
	if fcfg.Store != nil {
		if err := f.CheckpointCtx(ctx); err != nil {
			logger.Printf("checkpoint: %v", err)
			exit = 1
		} else {
			// The checkpoints now cover everything the WAL holds;
			// reclaim the segments so the next start replays nothing.
			for i, l := range walLogs {
				if err := l.Truncate(); err != nil {
					logger.Printf("wal truncate shard %d: %v", i, err)
				}
			}
		}
	}
	if *phasesPath != "" {
		// Streaming mode wrote every line as its interval closed; just
		// close the file.
		if err := rec.Close(); err != nil {
			logger.Printf("phases: %v", err)
			exit = 1
		}
	}
	m := f.Metrics()
	sm := srv.Metrics()
	f.Close()
	for i, l := range walLogs {
		if err := l.Close(); err != nil {
			logger.Printf("wal close shard %d: %v", i, err)
		}
	}
	logger.Printf("drained: %d conns, %d frames (%d acks, %d nacks, %d malformed), %d quarantines, %d dropped batches",
		sm.Conns, sm.Frames, sm.Acks, sm.Nacks, sm.Malformed, m.IngestQuarantines, m.DroppedBatches)
	if m.DroppedBatches > 0 {
		exit = 1
	}
	os.Exit(exit)
}
