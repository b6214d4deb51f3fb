package server

// Cluster chaos tests: deterministic fault injection (faults.Mesh for
// the detector transport, faults.Clock for the suspicion
// ladder) driving the self-healing path end to end. Each scenario pins
// the same contract as the cooperative e2e tests — the drained phase
// log is byte-identical to the single-process oracle — while a node
// crashes without warning, a one-way partition blinds one link, or a
// partitioned zombie returns.
//
// Detector ticks are driven manually, observers before initiators, so
// every run walks the identical alive → suspect → dead → quorum →
// takeover sequence: the tests assert exact epochs and counters, not
// eventually-consistent outcomes.

import (
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"phasekit/internal/cluster"
	"phasekit/internal/faults"
	"phasekit/internal/fleet"
	"phasekit/internal/wire"
)

// chaosPolicy compresses the production suspicion ladder a twentyfold;
// with a manual clock only the ratios matter.
func chaosPolicy() cluster.HealthPolicy {
	return cluster.HealthPolicy{
		Interval:     50 * time.Millisecond,
		SuspectAfter: 150 * time.Millisecond,
		DeadAfter:    300 * time.Millisecond,
		PingTimeout:  50 * time.Millisecond,
	}
}

// meshPinger is a detector transport speaking the real wire protocol
// through a fault mesh: the request direction and the reply direction
// are judged independently, so a one-way partition delivers the ping
// (the peer hears us, refreshing our liveness in its view) while the
// ack is lost (we still count the peer silent) — the asymmetry the
// quorum-denial path exists for.
type meshPinger struct {
	mesh *faults.Mesh
	self string

	mu    sync.Mutex
	conns map[string]*wire.Client
}

func newMeshPinger(mesh *faults.Mesh, self string) *meshPinger {
	return &meshPinger{mesh: mesh, self: self, conns: make(map[string]*wire.Client)}
}

func (p *meshPinger) conn(addr string) (*wire.Client, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cl, ok := p.conns[addr]; ok {
		return cl, nil
	}
	cl, err := wire.Dial(addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	p.conns[addr] = cl
	return cl, nil
}

func (p *meshPinger) drop(addr string) {
	p.mu.Lock()
	if cl, ok := p.conns[addr]; ok {
		cl.Close()
		delete(p.conns, addr)
	}
	p.mu.Unlock()
}

func (p *meshPinger) close() {
	p.mu.Lock()
	for addr, cl := range p.conns {
		cl.Close()
		delete(p.conns, addr)
	}
	p.mu.Unlock()
}

func (p *meshPinger) Ping(self cluster.Node, epoch uint64, peer cluster.Node) (cluster.PingReply, error) {
	if p.mesh.Judge(p.self, peer.ID).Drop {
		return cluster.PingReply{}, fmt.Errorf("chaos: ping %s→%s dropped", p.self, peer.ID)
	}
	cl, err := p.conn(peer.Addr)
	if err != nil {
		return cluster.PingReply{}, err
	}
	res, err := cl.SendPing(wire.NodeInfo{ID: self.ID, Addr: self.Addr}, epoch)
	if err != nil {
		p.drop(peer.Addr)
		return cluster.PingReply{}, err
	}
	if p.mesh.Judge(peer.ID, p.self).Drop {
		// The peer processed the ping (and observed our liveness); only
		// the ack is lost on the way back.
		return cluster.PingReply{}, fmt.Errorf("chaos: ping ack %s→%s dropped", peer.ID, p.self)
	}
	return cluster.PingReply{Epoch: res.Epoch, Member: res.Member, RingHash: res.RingHash}, nil
}

func (p *meshPinger) Probe(peer cluster.Node, subject string) (cluster.ProbeReply, error) {
	if p.mesh.Judge(p.self, peer.ID).Drop {
		return cluster.ProbeReply{}, fmt.Errorf("chaos: probe %s→%s dropped", p.self, peer.ID)
	}
	cl, err := p.conn(peer.Addr)
	if err != nil {
		return cluster.ProbeReply{}, err
	}
	res, err := cl.SendProbe(subject)
	if err != nil {
		p.drop(peer.Addr)
		return cluster.ProbeReply{}, err
	}
	if p.mesh.Judge(peer.ID, p.self).Drop {
		return cluster.ProbeReply{}, fmt.Errorf("chaos: probe reply %s→%s dropped", peer.ID, p.self)
	}
	return cluster.ProbeReply{State: cluster.PeerState(res.State), Age: res.Age, Known: res.Known}, nil
}

// chaosNode is one in-process phasekitd with the full self-healing
// stack: fenced shared store and failure detector (manual clock, mesh
// transport) — the same wiring as cmd/phasekitd, minus the Start loop
// so tests own the tick order.
type chaosNode struct {
	id, addr string
	fleet    *fleet.Fleet
	coord    *cluster.Coordinator
	srv      *Server
	fence    *cluster.FencedStore
	det      *cluster.Detector
	ping     *meshPinger
	serveErr chan error

	mu        sync.Mutex
	evictedAt uint64
}

func startChaosNode(t *testing.T, id, storeDir string, rec *PhaseRecorder, mesh *faults.Mesh, clock *faults.Clock) *chaosNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := &chaosNode{id: id, addr: ln.Addr().String(), serveErr: make(chan error, 1)}

	fs, err := fleet.NewFileStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	n.fence = cluster.NewFencedStore(fs, 1)
	n.fleet = fleet.New(fleet.Config{Shards: 2, Tracker: testTrackerConfig(), OnInterval: rec.Record, Store: n.fence})

	self := cluster.Node{ID: id, Addr: n.addr}
	initial, err := cluster.NewRing(1, []cluster.Node{self})
	if err != nil {
		t.Fatal(err)
	}
	n.coord, err = cluster.NewCoordinator(cluster.CoordinatorConfig{
		Self: self, Fleet: n.fleet, Initial: initial, Fence: n.fence,
		DialTimeout: 2 * time.Second,
		Logf:        func(format string, args ...any) { t.Logf("%s: "+format, append([]any{id}, args...)...) },
	})
	if err != nil {
		t.Fatal(err)
	}

	n.ping = newMeshPinger(mesh, id)
	n.det, err = cluster.NewDetector(cluster.DetectorConfig{
		Coordinator: n.coord,
		Policy:      chaosPolicy(),
		Transport:   n.ping,
		Now:         clock.Now,
		OnEvicted: func(epoch uint64) {
			// phasekitd exits here; the test records instead.
			n.mu.Lock()
			n.evictedAt = epoch
			n.mu.Unlock()
		},
		Logf: func(format string, args ...any) { t.Logf("%s: "+format, append([]any{id}, args...)...) },
	})
	if err != nil {
		t.Fatal(err)
	}
	n.coord.AttachDetector(n.det)

	n.srv, err = New(Config{Fleet: n.fleet, Cluster: n.coord, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	go func() { n.serveErr <- n.srv.Serve(ln) }()
	return n
}

func (n *chaosNode) join(t *testing.T, seedAddr string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.coord.Join(ctx, []string{seedAddr}); err != nil {
		t.Fatalf("%s: join via %s: %v", n.id, seedAddr, err)
	}
}

func (n *chaosNode) evictedEpoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.evictedAt
}

// quiesce checkpoints every resident stream into the shared store, as
// `phasekitctl checkpoint` does. Chaos nodes run without a WAL, so this
// is the only state of theirs a crash leaves behind.
func (n *chaosNode) quiesce(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.fleet.CheckpointCtx(ctx); err != nil {
		t.Fatalf("%s: checkpoint: %v", n.id, err)
	}
}

// crash is the in-process kill -9: the edge stops and the fleet is
// torn down with NO checkpoint — every interval tracker still in
// memory is simply gone.
func (n *chaosNode) crash(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.srv.Shutdown(ctx); err != nil {
		t.Fatalf("%s: shutdown: %v", n.id, err)
	}
	if err := <-n.serveErr; err != nil {
		t.Fatalf("%s: serve: %v", n.id, err)
	}
	n.fleet.Close()
	n.det.Stop()
	n.ping.close()
}

// shutdown is the graceful SIGTERM drain: checkpoint everything, then
// stop.
func (n *chaosNode) shutdown(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.srv.Shutdown(ctx); err != nil {
		t.Fatalf("%s: shutdown: %v", n.id, err)
	}
	if err := <-n.serveErr; err != nil {
		t.Fatalf("%s: serve: %v", n.id, err)
	}
	if err := n.fleet.CheckpointCtx(ctx); err != nil {
		t.Fatalf("%s: checkpoint: %v", n.id, err)
	}
	n.fleet.Close()
	n.det.Stop()
	n.ping.close()
}

// chaosStreams picks deterministic stream names so each of n1, n2, n3
// owns exactly perOwner of them — the failing node provably holds
// streams, and every survivor provably adopts some.
func chaosStreams(t *testing.T, prefix string, perOwner int) []string {
	t.Helper()
	nodes := []cluster.Node{
		{ID: "n1", Addr: "x"}, {ID: "n2", Addr: "x"}, {ID: "n3", Addr: "x"},
	}
	r, err := cluster.NewRing(1, nodes)
	if err != nil {
		t.Fatal(err)
	}
	byOwner := make(map[string][]string)
	for i := 0; i < 100_000; i++ {
		name := fmt.Sprintf("%s-%03d", prefix, i)
		id := r.Owner(name).ID
		if len(byOwner[id]) < perOwner {
			byOwner[id] = append(byOwner[id], name)
		}
		if len(byOwner["n1"]) == perOwner && len(byOwner["n2"]) == perOwner && len(byOwner["n3"]) == perOwner {
			var out []string
			for j := 0; j < perOwner; j++ {
				for _, id := range []string{"n1", "n2", "n3"} {
					out = append(out, byOwner[id][j])
				}
			}
			return out
		}
	}
	t.Fatalf("no stream spread found for prefix %q", prefix)
	return nil
}

// chaosBatches interleaves deterministic per-stream sequences so every
// cut lands mid-interval on every stream.
func chaosBatches(streams []string, per int) []wire.Batch {
	perStream := make(map[string][]wire.Batch, len(streams))
	for _, s := range streams {
		perStream[s] = clusterBatches(s, per)
	}
	var out []wire.Batch
	for i := 0; i < per; i++ {
		for _, s := range streams {
			out = append(out, perStream[s][i])
		}
	}
	return out
}

func chaosSend(t *testing.T, c *wire.Client, batches []wire.Batch, from, to int) {
	t.Helper()
	// A fresh client resuming mid-run must seed its per-stream sequence
	// counters (as phasesim -from-batch does), or the server's dedup
	// drops the resumed batches as already-applied replays.
	if from > 0 {
		seed := map[string]uint64{}
		for i := 0; i < from; i++ {
			seed[batches[i].Stream]++
		}
		for s, n := range seed {
			c.SeedStreamSeq(s, n)
		}
	}
	for i := from; i < to; i++ {
		b := batches[i]
		if err := c.QueueBatch(b.Stream, b.Cycles, b.Events, b.EndInterval); err != nil {
			t.Fatalf("queue batch %d: %v", i, err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestClusterCrashFailover is the headline acceptance scenario: a node
// is kill -9'd mid-run with no operator command. The survivors detect
// the silence, confirm the death with each other, bump the epoch, adopt
// the dead node's streams from its last checkpoint, and the completed
// run's phase log is byte-identical to the single-process oracle.
func TestClusterCrashFailover(t *testing.T) {
	streams := chaosStreams(t, "cf", 3)
	batches := chaosBatches(streams, 40)
	want := oracleLines(t, batches)

	mesh := faults.NewMesh(0xc4a05)
	clock := faults.NewClock(time.Unix(1_000_000, 0))
	storeDir := t.TempDir()
	rec := NewPhaseRecorder()
	n1 := startChaosNode(t, "n1", storeDir, rec, mesh, clock)
	n2 := startChaosNode(t, "n2", storeDir, rec, mesh, clock)
	n3 := startChaosNode(t, "n3", storeDir, rec, mesh, clock)
	n2.join(t, n1.addr)
	n3.join(t, n1.addr)
	if e := n1.coord.Epoch(); e != 3 {
		t.Fatalf("epoch after two joins: %d, want 3", e)
	}
	// Registration round: every detector meets its peers at T0.
	for _, n := range []*chaosNode{n1, n2, n3} {
		n.det.Tick()
	}

	c1, err := wire.Dial(n1.addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c1.FollowRedirects(nil)
	c1.Window = 4
	cut := len(batches) / 2
	chaosSend(t, c1, batches, 0, cut)
	c1.Close()

	// The victim's last checkpoint lands in the shared store before the
	// crash: every stream resident on it is readable there, by a
	// survivor's handle, at the victim's epoch. Takeover recovers from
	// nothing else.
	n2.quiesce(t)
	n2Streams := n2.fleet.Streams()
	n2Resident := len(n2Streams)
	if n2Resident == 0 {
		t.Fatal("test needs streams resident on the dying node; got none")
	}
	for _, s := range n2Streams {
		if e, ok, err := n1.fence.LoadEpoch(s); err != nil || !ok || e != n2.coord.Epoch() {
			t.Fatalf("stream %q before the crash: stored epoch %d ok=%v err=%v, want a checkpoint at n2's epoch %d",
				s, e, ok, err, n2.coord.Epoch())
		}
	}
	n2.crash(t)

	// One suspicion interval of silence: both survivors degrade but act
	// on nothing yet.
	clock.Advance(200 * time.Millisecond)
	n3.det.Tick()
	n1.det.Tick()
	if e := n1.coord.Epoch(); e != 3 {
		t.Fatalf("takeover before DeadAfter: epoch %d", e)
	}
	if !n1.coord.Degraded() || !n3.coord.Degraded() {
		t.Fatal("survivors not degraded while the peer is suspect")
	}

	// Past DeadAfter: n3 (observer) sees the death first, then n1 (the
	// smallest alive ID — the initiator) confirms via n3 and fails over.
	for i := 0; i < 6 && n1.coord.Epoch() == 3; i++ {
		clock.Advance(200 * time.Millisecond)
		n3.det.Tick()
		n1.det.Tick()
	}
	if e1, e3 := n1.coord.Epoch(), n3.coord.Epoch(); e1 != 4 || e3 != 4 {
		t.Fatalf("post-takeover epochs: n1=%d n3=%d, want 4", e1, e3)
	}
	st1, st3 := n1.coord.Status(), n3.coord.Status()
	if st1.TakeoversDone != 1 || st3.TakeoversDone != 0 {
		t.Fatalf("takeovers: n1=%d n3=%d, want exactly one on the initiator",
			st1.TakeoversDone, st3.TakeoversDone)
	}
	if got := st1.OrphansAdopted + st3.OrphansAdopted; got != uint64(n2Resident) {
		t.Fatalf("orphans adopted: %d, want %d (every stream the dead node held)", got, n2Resident)
	}
	if st1.Health == nil || st1.Health.Failovers != 1 || st1.Health.Deaths == 0 {
		t.Fatalf("n1 detector counters: %+v", st1.Health)
	}

	// One more round prunes the dead peer from the tables; the cluster
	// reports healthy again.
	clock.Advance(50 * time.Millisecond)
	n3.det.Tick()
	n1.det.Tick()
	if n1.coord.Degraded() || n3.coord.Degraded() {
		t.Fatal("survivors still degraded after takeover completed")
	}
	if peers := n1.coord.Status().Peers; len(peers) != 1 || peers[0].Node.ID != "n3" || peers[0].State != "alive" {
		t.Fatalf("n1 peer table after takeover: %+v", peers)
	}

	// The run completes against the survivors with no operator action;
	// the dead node's streams resume from their checkpoint horizon.
	c2, err := wire.Dial(n1.addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c2.FollowRedirects(nil)
	c2.Window = 4
	chaosSend(t, c2, batches, cut, len(batches))
	if err := c2.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	c2.Close()

	got := recorderLines(t, rec)
	sortPhaseLines(got)
	comparePhaseLines(t, got, want, "crash-failover run")

	for _, n := range []*chaosNode{n1, n3} {
		if m := n.fleet.Metrics(); m.DroppedBatches != 0 {
			t.Fatalf("%s dropped %d batches", n.id, m.DroppedBatches)
		}
		n.shutdown(t)
	}
}

// TestClusterOneWayPartitionHeals pins the quorum-denial guard: a
// two-way block between n1 and n2 makes each declare the other dead,
// but n3 — which hears both — vouches for each subject, so every
// takeover attempt is denied. The epoch never moves, nobody is
// evicted, ingest continues through the partition, and the phase log
// still matches the oracle after the link heals.
func TestClusterOneWayPartitionHeals(t *testing.T) {
	streams := chaosStreams(t, "pt", 3)
	batches := chaosBatches(streams, 30)
	want := oracleLines(t, batches)

	mesh := faults.NewMesh(0x9a27)
	clock := faults.NewClock(time.Unix(1_000_000, 0))
	storeDir := t.TempDir()
	rec := NewPhaseRecorder()
	n1 := startChaosNode(t, "n1", storeDir, rec, mesh, clock)
	n2 := startChaosNode(t, "n2", storeDir, rec, mesh, clock)
	n3 := startChaosNode(t, "n3", storeDir, rec, mesh, clock)
	n2.join(t, n1.addr)
	n3.join(t, n1.addr)
	for _, n := range []*chaosNode{n1, n2, n3} {
		n.det.Tick()
	}

	hs := httptest.NewServer(n1.srv.HealthHandler())
	defer hs.Close()
	readyz := func() string {
		res, err := hs.Client().Get(hs.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		buf := make([]byte, 256)
		k, _ := res.Body.Read(buf)
		if res.StatusCode != 200 {
			t.Fatalf("/readyz: %d %s", res.StatusCode, buf[:k])
		}
		return string(buf[:k])
	}

	c, err := wire.Dial(n1.addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.FollowRedirects(nil)
	c.Window = 4
	cut1, cut2 := len(batches)/3, 2*len(batches)/3
	chaosSend(t, c, batches, 0, cut1)

	// The n1↔n2 link dies in both directions. Ingest (client-facing) is
	// unaffected; only the cluster's internal heartbeats are cut.
	mesh.BlockBoth("n1", "n2")
	for i := 0; i < 4; i++ {
		clock.Advance(200 * time.Millisecond)
		n3.det.Tick()
		n2.det.Tick()
		n1.det.Tick()
	}
	for _, n := range []*chaosNode{n1, n2, n3} {
		if e := n.coord.Epoch(); e != 3 {
			t.Fatalf("%s epoch moved to %d during a denied partition", n.id, e)
		}
		if n.coord.Ring().Len() != 3 {
			t.Fatalf("%s membership shrank during a denied partition", n.id)
		}
	}
	st1, st2, st3 := n1.coord.Status(), n2.coord.Status(), n3.coord.Status()
	if st1.Health.Denials == 0 || st2.Health.Denials == 0 {
		t.Fatalf("no quorum denials recorded: n1=%+v n2=%+v", st1.Health, st2.Health)
	}
	if st1.Health.Failovers != 0 || st2.Health.Failovers != 0 || st3.Health.Failovers != 0 {
		t.Fatal("a blinded node failed over a healthy peer")
	}
	if !st1.Degraded || !st2.Degraded || st3.Degraded {
		t.Fatalf("degraded flags: n1=%v n2=%v n3=%v, want true/true/false",
			st1.Degraded, st2.Degraded, st3.Degraded)
	}
	if out := readyz(); !strings.Contains(out, "degraded") {
		t.Fatalf("/readyz during partition: %q, want degraded marker", out)
	}

	// Ingest rides straight through the partition.
	chaosSend(t, c, batches, cut1, cut2)

	mesh.HealBoth("n1", "n2")
	clock.Advance(50 * time.Millisecond)
	for _, n := range []*chaosNode{n3, n2, n1} {
		n.det.Tick()
	}
	for _, n := range []*chaosNode{n1, n2, n3} {
		if n.coord.Degraded() {
			t.Fatalf("%s still degraded after heal", n.id)
		}
		if e := n.coord.Epoch(); e != 3 {
			t.Fatalf("%s epoch after heal: %d", n.id, e)
		}
	}
	if out := readyz(); !strings.Contains(out, "ready") {
		t.Fatalf("/readyz after heal: %q", out)
	}

	chaosSend(t, c, batches, cut2, len(batches))
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	c.Close()

	got := recorderLines(t, rec)
	sortPhaseLines(got)
	comparePhaseLines(t, got, want, "partition run")

	for _, n := range []*chaosNode{n1, n2, n3} {
		n.shutdown(t)
	}
}

// TestClusterZombieReturn pins the fencing guarantee end to end: a
// fully isolated node keeps running at the old epoch while the
// survivors take its streams over. The zombie (a) cannot evict the
// survivors — its own takeover attempts die for lack of quorum, (b)
// cannot write a single checkpoint — every save is refused as stale,
// and (c) learns of its eviction from the first heartbeat after the
// partition heals. The completed run still matches the oracle.
func TestClusterZombieReturn(t *testing.T) {
	streams := chaosStreams(t, "zb", 3)
	batches := chaosBatches(streams, 30)
	want := oracleLines(t, batches)

	mesh := faults.NewMesh(0x20b1e)
	clock := faults.NewClock(time.Unix(1_000_000, 0))
	storeDir := t.TempDir()
	rec := NewPhaseRecorder()
	n1 := startChaosNode(t, "n1", storeDir, rec, mesh, clock)
	n2 := startChaosNode(t, "n2", storeDir, rec, mesh, clock)
	n3 := startChaosNode(t, "n3", storeDir, rec, mesh, clock)
	n2.join(t, n1.addr)
	n3.join(t, n1.addr)
	for _, n := range []*chaosNode{n1, n2, n3} {
		n.det.Tick()
	}

	c1, err := wire.Dial(n1.addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c1.FollowRedirects(nil)
	c1.Window = 4
	cut := len(batches) / 2
	chaosSend(t, c1, batches, 0, cut)
	c1.Close()

	// Quiesce everyone: the store holds every stream at the cut horizon,
	// all stamped epoch 3.
	for _, n := range []*chaosNode{n1, n2, n3} {
		n.quiesce(t)
	}
	n2Resident := n2.coord.Status().ResidentStreams
	if n2Resident == 0 {
		t.Fatal("test needs streams resident on the zombie; got none")
	}

	// n2 is cut off in both directions but keeps running — the zombie.
	mesh.Isolate("n2", "n1", "n3")
	for i := 0; i < 6 && n1.coord.Epoch() == 3; i++ {
		clock.Advance(200 * time.Millisecond)
		n2.det.Tick()
		n3.det.Tick()
		n1.det.Tick()
	}

	// Survivors moved on; the zombie could not.
	if e1, e3 := n1.coord.Epoch(), n3.coord.Epoch(); e1 != 4 || e3 != 4 {
		t.Fatalf("survivor epochs: n1=%d n3=%d, want 4", e1, e3)
	}
	if e2 := n2.coord.Epoch(); e2 != 3 {
		t.Fatalf("zombie epoch: %d, want 3 (no ASSIGN reaches a removed node)", e2)
	}
	st1, st2, st3 := n1.coord.Status(), n2.coord.Status(), n3.coord.Status()
	if st1.TakeoversDone != 1 {
		t.Fatalf("n1 takeovers: %d, want 1", st1.TakeoversDone)
	}
	if got := st1.OrphansAdopted + st3.OrphansAdopted; got != uint64(n2Resident) {
		t.Fatalf("orphans adopted: %d, want %d", got, n2Resident)
	}
	// The zombie saw everyone dead but could not confirm a single death:
	// its probes were dropped, quorum was unreachable, and both subjects
	// were denied.
	if st2.Health.Failovers != 0 {
		t.Fatal("the zombie evicted a survivor without quorum")
	}
	if st2.Health.Denials == 0 {
		t.Fatalf("zombie counters: %+v, want denials", st2.Health)
	}

	// Takeover eagerly re-stamped the adopted streams at epoch 4 …
	names, err := n1.fence.List()
	if err != nil {
		t.Fatal(err)
	}
	restamped := 0
	for _, s := range names {
		if ep, ok, err := n1.fence.LoadEpoch(s); err == nil && ok && ep == 4 {
			restamped++
		}
	}
	if restamped != n2Resident {
		t.Fatalf("streams re-stamped at epoch 4: %d, want %d", restamped, n2Resident)
	}
	// … so every checkpoint the zombie attempts is refused as stale.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	zerr := n2.fleet.CheckpointCtx(ctx)
	cancel()
	if zerr == nil || !strings.Contains(zerr.Error(), "stale epoch") {
		t.Fatalf("zombie checkpoint: %v, want a stale-epoch refusal", zerr)
	}

	// The partition heals; the zombie's next heartbeat answers with a
	// higher epoch that no longer includes it, and OnEvicted fires
	// (phasekitd exits 3 here).
	mesh.Rejoin("n2", "n1", "n3")
	n2.det.Tick()
	if got := n2.evictedEpoch(); got != 4 {
		t.Fatalf("zombie eviction epoch: %d, want 4", got)
	}
	n2.crash(t)

	c2, err := wire.Dial(n1.addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c2.FollowRedirects(nil)
	c2.Window = 4
	chaosSend(t, c2, batches, cut, len(batches))
	if err := c2.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	c2.Close()

	got := recorderLines(t, rec)
	sortPhaseLines(got)
	comparePhaseLines(t, got, want, "zombie-return run")

	for _, n := range []*chaosNode{n1, n3} {
		if m := n.fleet.Metrics(); m.DroppedBatches != 0 {
			t.Fatalf("%s dropped %d batches", n.id, m.DroppedBatches)
		}
		n.shutdown(t)
	}
}
