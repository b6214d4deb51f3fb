package server

// Cluster acceptance tests: the golden determinism contract (a stream's
// phase sequence is byte-identical whether it ran on one node or was
// migrated through the shared store across a 3-node cluster mid-run,
// or back again when a live node leaves), node-failure takeover from
// the shared checkpoint store, and epoch fencing at the wire and store
// layers.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"phasekit/internal/cluster"
	"phasekit/internal/fleet"
	"phasekit/internal/rng"
	"phasekit/internal/trace"
	"phasekit/internal/wire"
)

// clusterNode is one in-process phasekitd: fleet, coordinator, server,
// bound to a loopback port, with the phasekitd drain sequence.
type clusterNode struct {
	id       string
	addr     string
	fleet    *fleet.Fleet
	coord    *cluster.Coordinator
	srv      *Server
	fence    *cluster.FencedStore
	serveErr chan error
}

// startClusterNode boots a node. storeDir is the shared checkpoint
// directory (every node of a test passes the same one). rec receives
// every interval result the node classifies.
func startClusterNode(t *testing.T, id, storeDir string, rec *PhaseRecorder) *clusterNode {
	t.Helper()
	// The listener comes first: the coordinator needs the advertised
	// address before the server can exist.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := &clusterNode{id: id, addr: ln.Addr().String(), serveErr: make(chan error, 1)}

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

	n.srv, err = New(Config{Fleet: n.fleet, Cluster: n.coord, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	go func() { n.serveErr <- n.srv.Serve(ln) }()
	return n
}

// join announces the node to the cluster through a seed member.
func (n *clusterNode) join(t *testing.T, seedAddr string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.coord.Join(ctx, []string{seedAddr}); err != nil {
		t.Fatalf("%s: join via %s: %v", n.id, seedAddr, err)
	}
}

// drain runs the phasekitd SIGTERM sequence: stop the edge, checkpoint
// every stream (mid-interval state included), close the fleet.
func (n *clusterNode) drain(t *testing.T) {
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
}

// migratingStream searches deterministic names for one whose owner is
// n1 alone, then n2 once n2 joins, then n3 once n3 joins — so the
// stream provably migrates on each membership change.
func migratingStream(t *testing.T) string {
	t.Helper()
	mk := func(ids ...string) *cluster.Ring {
		nodes := make([]cluster.Node, len(ids))
		for i, id := range ids {
			nodes[i] = cluster.Node{ID: id, Addr: "x"}
		}
		r, err := cluster.NewRing(1, nodes)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r2, r3 := mk("n1", "n2"), mk("n1", "n2", "n3")
	for i := 0; i < 100_000; i++ {
		name := fmt.Sprintf("mig-%d", i)
		if r2.Owner(name).ID == "n2" && r3.Owner(name).ID == "n3" {
			return name
		}
	}
	t.Fatal("no doubly-migrating stream name found")
	return ""
}

// clusterBatches builds a deterministic single-stream batch sequence
// whose batches do not align with interval boundaries, so every
// migration cut lands mid-interval.
func clusterBatches(stream string, n int) []wire.Batch {
	x := rng.NewXoshiro256(0xc1057e4)
	out := make([]wire.Batch, 0, n)
	region := uint64(0x400000)
	for i := 0; i < n; i++ {
		if i%12 == 0 {
			region = 0x400000 + (x.Uint64()%4)*0x100000
		}
		events := make([]trace.BranchEvent, 37+int(x.Uint64()%80))
		for j := range events {
			events[j] = trace.BranchEvent{
				PC:     region + (x.Uint64()%64)*64,
				Instrs: 50 + uint32(x.Uint64()%100),
			}
		}
		out = append(out, wire.Batch{Stream: stream, Cycles: uint64(len(events)) * 100, Events: events})
	}
	return out
}

// oracleLines runs batches through a single-process fleet and returns
// its phase log — the golden answer every cluster topology must match.
func oracleLines(t *testing.T, batches []wire.Batch) []string {
	t.Helper()
	rec := NewPhaseRecorder()
	golden := fleet.New(fleet.Config{Shards: 1, Tracker: testTrackerConfig(), OnInterval: rec.Record})
	for _, b := range batches {
		if err := golden.Send(fleet.Batch{Stream: b.Stream, Cycles: b.Cycles, Events: b.Events, EndInterval: b.EndInterval}); err != nil {
			t.Fatalf("oracle send: %v", err)
		}
	}
	golden.Flush()
	golden.Close()
	want := recorderLines(t, rec)
	sortPhaseLines(want)
	return want
}

func comparePhaseLines(t *testing.T, got, want []string, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d phase-log lines, oracle has %d\ngot  %v\nwant %v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: phase log line %d: %q, oracle %q — cluster run diverged", label, i, got[i], want[i])
		}
	}
}

// TestClusterGoldenDeterminismAcrossMigrations is the tentpole
// acceptance test: one stream ingested through a redirect-following
// client while the cluster grows from one node to three — the stream
// provably changes owner on each join, mid-interval, with frames in
// flight, each time through the shared store — must produce a phase
// sequence byte-identical to the single-process oracle.
func TestClusterGoldenDeterminismAcrossMigrations(t *testing.T) {
	stream := migratingStream(t)
	batches := clusterBatches(stream, 120)
	want := oracleLines(t, batches)

	storeDir := t.TempDir()
	rec := NewPhaseRecorder()
	n1 := startClusterNode(t, "n1", storeDir, rec)
	c, err := wire.Dial(n1.addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.FollowRedirects(nil)
	c.Window = 4

	queue := func(from, to int) {
		for i := from; i < to; i++ {
			b := batches[i]
			if err := c.QueueBatch(b.Stream, b.Cycles, b.Events, b.EndInterval); err != nil {
				t.Fatalf("queue batch %d: %v", i, err)
			}
		}
	}

	cut1, cut2 := len(batches)/3, 2*len(batches)/3
	queue(0, cut1)

	// First migration: n2 joins, n1 saves the stream to the store while
	// up to a window of frames is still in flight.
	n2 := startClusterNode(t, "n2", storeDir, rec)
	n2.join(t, n1.addr)
	queue(cut1, cut2)

	// Second migration: n3 joins through n1 (any member can seed); the
	// stream now lives on n2, which saves it for n3 when the ASSIGN
	// reaches it.
	n3 := startClusterNode(t, "n3", storeDir, rec)
	n3.join(t, n1.addr)
	queue(cut2, len(batches))

	if err := c.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	c.Close()

	got := recorderLines(t, rec)
	sortPhaseLines(got)
	comparePhaseLines(t, got, want, "migrated run")

	// The migrations actually happened: the stream ended on n3, each
	// previous owner detached it once and redirected its client, and each
	// joiner adopted it from the store once its previous owner had saved
	// it.
	if st := n3.coord.Status(); st.ResidentStreams != 1 || st.OwnedStreams != 1 {
		t.Fatalf("n3 status: %+v", st)
	}
	if st := n2.coord.Status(); st.ResidentStreams != 0 {
		t.Fatalf("n2 status: %+v", st)
	}
	for _, tc := range []struct {
		n                *clusterNode
		detaches, adopts uint64
		redirect         bool
	}{{n1, 1, 0, true}, {n2, 1, 1, true}, {n3, 0, 1, false}} {
		m, sm := tc.n.fleet.Metrics(), tc.n.srv.Metrics()
		if m.Detaches != tc.detaches || m.Adopts != tc.adopts {
			t.Fatalf("%s: %d detaches, %d adopts; want %d, %d", tc.n.id, m.Detaches, m.Adopts, tc.detaches, tc.adopts)
		}
		if (sm.Redirects > 0) != tc.redirect {
			t.Fatalf("%s answered %d redirects", tc.n.id, sm.Redirects)
		}
	}
	if e1, e2, e3 := n1.coord.Epoch(), n2.coord.Epoch(), n3.coord.Epoch(); e1 != 3 || e2 != 3 || e3 != 3 {
		t.Fatalf("epochs diverged: n1=%d n2=%d n3=%d", e1, e2, e3)
	}

	for _, n := range []*clusterNode{n1, n2, n3} {
		if m := n.fleet.Metrics(); m.DroppedBatches != 0 {
			t.Fatalf("%s dropped %d batches", n.id, m.DroppedBatches)
		}
		n.drain(t)
	}
}

// testRing builds a ring of the given member IDs (addresses are
// irrelevant to placement).
func testRing(t *testing.T, ids ...string) *cluster.Ring {
	t.Helper()
	nodes := make([]cluster.Node, len(ids))
	for i, id := range ids {
		nodes[i] = cluster.Node{ID: id, Addr: "x"}
	}
	r, err := cluster.NewRing(1, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// findStreams returns the first n of the deterministic names prefix-0,
// prefix-1, ... that ok accepts.
func findStreams(t *testing.T, prefix string, n int, ok func(name string) bool) []string {
	t.Helper()
	var out []string
	for i := 0; i < 100_000 && len(out) < n; i++ {
		if name := fmt.Sprintf("%s-%d", prefix, i); ok(name) {
			out = append(out, name)
		}
	}
	if len(out) < n {
		t.Fatalf("found %d %s stream names, want %d", len(out), prefix, n)
	}
	return out
}

// leavingStream searches deterministic names for one that n2 takes
// from n1 when it joins, so a leave of n2 returns it to n1.
func leavingStream(t *testing.T) string {
	r := testRing(t, "n1", "n2")
	return findStreams(t, "leave", 1, func(s string) bool { return r.Owner(s).ID == "n2" })[0]
}

// batchQueue sends batches through a redirect-following client and
// fails the test on any NACK.
type batchQueue struct {
	t       *testing.T
	c       *wire.Client
	batches []wire.Batch
	next    int
}

func newBatchQueue(t *testing.T, addr string, batches []wire.Batch) *batchQueue {
	t.Helper()
	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.FollowRedirects(nil)
	c.Window = 4
	t.Cleanup(func() { c.Close() })
	return &batchQueue{t: t, c: c, batches: batches}
}

// noNack fails the test on err, naming a NACK as such.
func (q *batchQueue) noNack(err error) {
	q.t.Helper()
	var ne *wire.NackError
	if errors.As(err, &ne) {
		q.t.Fatalf("client saw a NACK: %v", err)
	}
	if err != nil {
		q.t.Fatal(err)
	}
}

// queue sends the batches up to index to, one window in flight.
func (q *batchQueue) queue(to int) {
	q.t.Helper()
	for ; q.next < to; q.next++ {
		b := q.batches[q.next]
		if err := q.c.QueueBatch(b.Stream, b.Cycles, b.Events, b.EndInterval); err != nil {
			q.noNack(fmt.Errorf("queue batch %d: %w", q.next, err))
		}
	}
}

// during runs op in the background while the client keeps sending
// batches one at a time, a window of frames in flight, until op
// returns; it waits for op before sending batch stop.
func (q *batchQueue) during(stop int, label string, op func() error) {
	q.t.Helper()
	done := make(chan error, 1)
	go func() { done <- op() }()
	for {
		var err error
		select {
		case err = <-done:
		default:
			if q.next < stop {
				q.queue(q.next + 1)
				continue
			}
			err = <-done
		}
		if err != nil {
			q.t.Fatalf("%s: %v", label, err)
		}
		return
	}
}

// finish sends the remaining batches, drains and flushes.
func (q *batchQueue) finish() {
	q.t.Helper()
	q.queue(len(q.batches))
	q.noNack(q.c.Drain())
	q.noNack(q.c.Flush())
}

// TestClusterLiveLeaveReturnsStream pins the one ordering a live leave
// needs: the departed node saves its streams but keeps holding their
// batches until the survivors have flipped, so a redirect-following
// client with frames in flight is never bounced between a survivor
// that still names the departed node and the departed node itself.
// The stream moves n1 → n2 on n2's join and back on n2's leave; the
// phase log must match the oracle, with no NACK reaching the client
// and no batch dropped.
func TestClusterLiveLeaveReturnsStream(t *testing.T) {
	stream := leavingStream(t)
	batches := clusterBatches(stream, 120)
	want := oracleLines(t, batches)

	storeDir := t.TempDir()
	rec := NewPhaseRecorder()
	n1 := startClusterNode(t, "n1", storeDir, rec)
	n2 := startClusterNode(t, "n2", storeDir, rec)
	q := newBatchQueue(t, n1.addr, batches)

	cut1, cut2 := len(batches)/3, 2*len(batches)/3
	q.queue(cut1)
	n2.join(t, n1.addr)
	q.queue(cut2)
	if st := n2.coord.Status(); st.ResidentStreams != 1 {
		t.Fatalf("stream did not move to n2 on its join: %+v", st)
	}

	// n2 leaves while it is alive: the client keeps streaming to it,
	// a window of frames in flight, until the leave returns, and sends
	// the tail after it.
	q.during(len(batches)-8, "leave n2", func() error {
		_, err := n1.coord.HandleLeave("n2")
		return err
	})
	q.finish()

	got := recorderLines(t, rec)
	sortPhaseLines(got)
	comparePhaseLines(t, got, want, "live-leave run")

	if st := n1.coord.Status(); st.ResidentStreams != 1 || st.OwnedStreams != 1 {
		t.Fatalf("stream did not return to n1: %+v", st)
	}
	if st := n2.coord.Status(); st.ResidentStreams != 0 || st.Epoch != n1.coord.Epoch() {
		t.Fatalf("n2 after leave: %+v (n1 at epoch %d)", st, n1.coord.Epoch())
	}
	// n1 saved it for n2, which adopted it from the store; n2 saved it
	// back, and n1 adopted it; n2 sent the client back to n1.
	if m1, m2 := n1.fleet.Metrics(), n2.fleet.Metrics(); m1.Detaches != 1 || m1.Adopts != 1 || m2.Detaches != 1 || m2.Adopts != 1 {
		t.Fatalf("n1 %d detaches %d adopts, n2 %d detaches %d adopts; want 1 1 1 1",
			m1.Detaches, m1.Adopts, m2.Detaches, m2.Adopts)
	}
	if m := n2.srv.Metrics(); m.Redirects == 0 {
		t.Fatal("n2 answered no redirects")
	}
	for _, n := range []*clusterNode{n1, n2} {
		if m := n.fleet.Metrics(); m.DroppedBatches != 0 {
			t.Fatalf("%s dropped %d batches", n.id, m.DroppedBatches)
		}
		n.drain(t)
	}
}

// TestClusterRejoinAfterLiveLeave pins a node's return after a live
// leave. The departed node keeps running on a ring without itself,
// with a detach fence on every stream it saved. When it is joined back
// (as phasekitctl join does), the streams the ring returns to it must
// lose that fence, and it must flip before the member losing them
// redirects a client there — else the client bounces between the two
// until its hop budget runs out. The stream moves n2 → n3 on the leave
// and n3 → n2 on the rejoin, n3 being neither the seed nor the
// joiner; a window-4 client streams through both changes.
func TestClusterRejoinAfterLiveLeave(t *testing.T) {
	all, rest := testRing(t, "n1", "n2", "n3"), testRing(t, "n1", "n3")
	stream := findStreams(t, "rejoin", 1, func(s string) bool {
		return all.Owner(s).ID == "n2" && rest.Owner(s).ID == "n3"
	})[0]
	batches := clusterBatches(stream, 150)
	want := oracleLines(t, batches)

	storeDir := t.TempDir()
	rec := NewPhaseRecorder()
	n1 := startClusterNode(t, "n1", storeDir, rec)
	n2 := startClusterNode(t, "n2", storeDir, rec)
	n3 := startClusterNode(t, "n3", storeDir, rec)
	n2.join(t, n1.addr)
	n3.join(t, n1.addr)
	q := newBatchQueue(t, n1.addr, batches)

	q.queue(len(batches) / 3)
	q.during(2*len(batches)/3, "leave n2", func() error {
		_, err := n1.coord.HandleLeave("n2")
		return err
	})
	q.noNack(q.c.Drain())
	if st := n3.coord.Status(); st.ResidentStreams != 1 {
		t.Fatalf("stream did not move to n3 on the leave: %+v", st)
	}
	q.during(len(batches)-8, "rejoin n2", func() error {
		_, err := n1.coord.HandleJoin(cluster.Node{ID: "n2", Addr: n2.addr})
		return err
	})
	q.finish()

	got := recorderLines(t, rec)
	sortPhaseLines(got)
	comparePhaseLines(t, got, want, "rejoin run")

	if st := n2.coord.Status(); st.ResidentStreams != 1 || st.OwnedStreams != 1 || st.Epoch != n1.coord.Epoch() {
		t.Fatalf("stream did not return to n2: %+v (n1 at epoch %d)", st, n1.coord.Epoch())
	}
	if m2, m3 := n2.fleet.Metrics(), n3.fleet.Metrics(); m2.Detaches != 1 || m3.Detaches != 1 || m3.Adopts != 1 {
		t.Fatalf("n2 %d detaches, n3 %d detaches %d adopts; want 1, 1 1", m2.Detaches, m3.Detaches, m3.Adopts)
	}
	for _, n := range []*clusterNode{n1, n2, n3} {
		if m := n.fleet.Metrics(); m.DroppedBatches != 0 {
			t.Fatalf("%s dropped %d batches", n.id, m.DroppedBatches)
		}
		n.drain(t)
	}
}

// TestClusterJoinFlushClosesIdleStream pins the join path's claim on a
// stream that receives no batch after it moves: the stream went quiet
// mid-interval on n1, n2 joins and takes it through the store, and the
// client's final flush — which reaches n2 because a second stream moved
// there too and still sends — must close the idle stream's partial
// interval on n2, exactly as the single-process oracle does.
func TestClusterJoinFlushClosesIdleStream(t *testing.T) {
	r := testRing(t, "n1", "n2")
	names := findStreams(t, "idle", 2, func(s string) bool { return r.Owner(s).ID == "n2" })
	idle, busy := clusterBatches(names[0], 50), clusterBatches(names[1], 60)
	batches := append(append([]wire.Batch(nil), idle...), busy...)
	want := oracleLines(t, batches)

	storeDir := t.TempDir()
	rec := NewPhaseRecorder()
	n1 := startClusterNode(t, "n1", storeDir, rec)
	q := newBatchQueue(t, n1.addr, batches)
	q.queue(len(idle) + len(busy)/2)
	q.noNack(q.c.Drain())

	n2 := startClusterNode(t, "n2", storeDir, rec)
	n2.join(t, n1.addr)
	q.finish()

	got := recorderLines(t, rec)
	sortPhaseLines(got)
	comparePhaseLines(t, got, want, "join-then-flush run")

	if st := n2.coord.Status(); st.ResidentStreams != 2 {
		t.Fatalf("n2 after flush: %+v, want both streams resident", st)
	}
	if m := n2.fleet.Metrics(); m.Adopts != 2 {
		t.Fatalf("n2 adopted %d streams from the store, want 2", m.Adopts)
	}
	for _, n := range []*clusterNode{n1, n2} {
		if m := n.fleet.Metrics(); m.DroppedBatches != 0 {
			t.Fatalf("%s dropped %d batches", n.id, m.DroppedBatches)
		}
		n.drain(t)
	}
}

// TestClusterNodeFailureTakeover pins the takeover path: one of three
// nodes is drained (its streams checkpoint to the shared store) and
// declared left; a client reconnecting to a survivor is redirected to
// the new owners, which resume every stream from the shared store with
// no divergence, and the old epoch can no longer write checkpoints.
func TestClusterNodeFailureTakeover(t *testing.T) {
	const streams = 8
	// Interleave deterministic per-stream sequences.
	var batches []wire.Batch
	perStream := make(map[string][]wire.Batch)
	for s := 0; s < streams; s++ {
		name := fmt.Sprintf("tk-%02d", s)
		perStream[name] = clusterBatches(name, 40)
	}
	for i := 0; i < 40; i++ {
		for s := 0; s < streams; s++ {
			batches = append(batches, perStream[fmt.Sprintf("tk-%02d", s)][i])
		}
	}
	want := oracleLines(t, batches)

	storeDir := t.TempDir()
	rec := NewPhaseRecorder()
	n1 := startClusterNode(t, "n1", storeDir, rec)
	n2 := startClusterNode(t, "n2", storeDir, rec)
	n3 := startClusterNode(t, "n3", storeDir, rec)
	n2.join(t, n1.addr)
	n3.join(t, n1.addr)

	send := func(c *wire.Client, from, to int) {
		// A fresh client resuming mid-run seeds its per-stream sequence
		// counters so the server's dedup doesn't drop its batches.
		seed := map[string]uint64{}
		for i := 0; i < from; i++ {
			seed[batches[i].Stream]++
		}
		for s, n := range seed {
			c.SeedStreamSeq(s, n)
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

	c1, err := wire.Dial(n1.addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c1.FollowRedirects(nil)
	c1.Window = 4
	cut := len(batches) / 2
	send(c1, 0, cut)
	c1.Close()

	// n2 dies mid-run: the SIGTERM drain checkpoints its streams —
	// mid-interval state included — into the shared store.
	epochBefore := n2.coord.Epoch()
	if st := n2.coord.Status(); st.ResidentStreams == 0 {
		t.Fatal("test needs streams resident on the dying node; got none")
	}
	n2.drain(t)

	// Declare it left through a survivor's coordinator (what
	// `phasekitctl leave` does over the admin endpoint).
	if _, err := n1.coord.HandleLeave("n2"); err != nil {
		t.Fatalf("leave n2: %v", err)
	}
	if e1, e3 := n1.coord.Epoch(), n3.coord.Epoch(); e1 != epochBefore+1 || e3 != epochBefore+1 {
		t.Fatalf("survivor epochs after leave: n1=%d n3=%d, want %d", e1, e3, epochBefore+1)
	}

	// A reconnecting client finishes the run; n2's streams are
	// redirected to their new owners and resume from the store.
	c2, err := wire.Dial(n1.addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c2.FollowRedirects(nil)
	c2.Window = 4
	send(c2, cut, len(batches))
	if err := c2.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	c2.Close()

	got := recorderLines(t, rec)
	sortPhaseLines(got)
	comparePhaseLines(t, got, want, "takeover run")

	for _, n := range []*clusterNode{n1, n3} {
		if m := n.fleet.Metrics(); m.DroppedBatches != 0 {
			t.Fatalf("%s dropped %d batches", n.id, m.DroppedBatches)
		}
		n.drain(t)
	}

	// Epoch fencing: the dead node's epoch can no longer write to the
	// shared store for a taken-over stream (a zombie that was merely
	// partitioned cannot clobber its successor's checkpoints).
	fs, err := fleet.NewFileStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	zombie := cluster.NewFencedStore(fs, epochBefore)
	var fenced string
	for name := range perStream {
		if ep, ok, err := zombie.LoadEpoch(name); err == nil && ok && ep > epochBefore {
			fenced = name
			break
		}
	}
	if fenced == "" {
		t.Fatal("no taken-over stream checkpointed at the new epoch")
	}
	if err := zombie.Save(fenced, []byte("zombie")); err == nil {
		t.Fatalf("zombie checkpoint at epoch %d accepted for %q", epochBefore, fenced)
	}
}

// TestClusterStaleAssignNackedOnWire pins the wire-level fence: an
// ASSIGN carrying an older epoch is refused with NackStaleEpoch.
func TestClusterStaleAssignNackedOnWire(t *testing.T) {
	rec := NewPhaseRecorder()
	n1 := startClusterNode(t, "n1", t.TempDir(), rec)
	defer n1.drain(t)

	// Move the node to epoch 3 with two forced rebalances.
	if _, err := n1.coord.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if _, err := n1.coord.Rebalance(); err != nil {
		t.Fatal(err)
	}

	c, err := wire.Dial(n1.addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stale := wire.RingInfo{Epoch: 2, Nodes: []wire.NodeInfo{{ID: "n1", Addr: n1.addr}, {ID: "nx", Addr: "127.0.0.1:1"}}}
	err = c.SendAssign(stale)
	var ne *wire.NackError
	if !errors.As(err, &ne) || ne.Code != wire.NackStaleEpoch {
		t.Fatalf("stale assign over the wire: %v, want NackStaleEpoch", err)
	}
	// A replay of the current assignment is an idempotent ack.
	if err := c.SendAssign(cluster.InfoFromRing(n1.coord.Ring())); err != nil {
		t.Fatalf("idempotent assign replay: %v", err)
	}
}

// TestClusterAdminEndpoint drives the HTTP admin surface phasekitctl
// uses: status, a forced rebalance, and the /metricz Cluster section.
func TestClusterAdminEndpoint(t *testing.T) {
	rec := NewPhaseRecorder()
	n1 := startClusterNode(t, "n1", t.TempDir(), rec)
	defer n1.drain(t)

	ts := httptest.NewServer(n1.srv.HealthHandler())
	defer ts.Close()

	get := func(path string) string {
		res, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		buf := make([]byte, 1<<16)
		n, _ := res.Body.Read(buf)
		if res.StatusCode != 200 {
			t.Fatalf("GET %s: %d %s", path, res.StatusCode, buf[:n])
		}
		return string(buf[:n])
	}
	post := func(path string) string {
		res, err := ts.Client().Post(ts.URL+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		buf := make([]byte, 1<<16)
		n, _ := res.Body.Read(buf)
		if res.StatusCode != 200 {
			t.Fatalf("POST %s: %d %s", path, res.StatusCode, buf[:n])
		}
		return string(buf[:n])
	}

	status := get("/clusterz")
	for _, wantSub := range []string{`"Node":{"ID":"n1"`, `"Epoch":1`} {
		if !strings.Contains(status, wantSub) {
			t.Fatalf("/clusterz missing %q: %s", wantSub, status)
		}
	}
	if out := post("/cluster/rebalance"); !strings.Contains(out, `"Epoch":2`) {
		t.Fatalf("rebalance reply: %s", out)
	}
	if n1.coord.Epoch() != 2 {
		t.Fatalf("rebalance did not advance the epoch: %d", n1.coord.Epoch())
	}
	// The satellite: /metricz surfaces the cluster view next to server
	// and fleet counters.
	metricz := get("/metricz")
	for _, wantSub := range []string{`"Cluster":{`, `"Epoch":2`, `"ResidentStreams":0`, `"Redirects":0`} {
		if !strings.Contains(metricz, wantSub) {
			t.Fatalf("/metricz missing %q: %s", wantSub, metricz)
		}
	}
	// Leave of an unknown node is a clean 400-class error, not a crash.
	res, err := ts.Client().Post(ts.URL+"/cluster/leave?id=ghost", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 400 {
		t.Fatalf("leave ghost: status %d", res.StatusCode)
	}
}
