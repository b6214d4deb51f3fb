package server

import (
	"encoding/json"
	"errors"
	"net/http"

	"phasekit/internal/cluster"
	"phasekit/internal/fleet"
)

// HealthHandler returns an http.Handler exposing Kubernetes-style
// probes next to the binary ingest port:
//
//	GET /healthz — liveness: 200 while the process is up.
//	GET /readyz  — readiness: 200 while accepting and not draining,
//	               503 otherwise (load balancers stop routing new
//	               connections during drain).
//	GET /metricz — a JSON snapshot of server and fleet counters (plus
//	               the cluster view when clustered; streams moved in
//	               and out are the fleet's Adopts and Detaches).
//
// In cluster mode (Config.Cluster set) it is also the admin endpoint
// phasekitctl drives:
//
//	GET  /clusterz           — node ID, ring epoch, membership, stream
//	                           and assignment counters.
//	POST /cluster/join       — ?id=&addr=: add (or re-address) a member
//	                           and rebalance toward it.
//	POST /cluster/leave      — ?id=: remove a member; if it is still
//	                           alive it saves its streams to the shared
//	                           store first.
//	POST /cluster/rebalance  — renumber the membership to a fresh epoch
//	                           (fences stale writers; no streams move).
//
// The admin verbs respond with the new assignment as JSON.
func (s *Server) HealthHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.Ready() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		// Degraded is 200, not 503: a node that suspects a peer (or is
		// mid-takeover) is still fully able to serve, and pulling it
		// from the load balancer during a partition would turn one
		// node's outage into the cluster's.
		if s.cfg.Cluster != nil && s.cfg.Cluster.Degraded() {
			w.WriteHeader(http.StatusOK)
			w.Write([]byte("degraded: peer suspect/dead or takeover in flight\n"))
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ready\n"))
	})
	mux.HandleFunc("/metricz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var cl *cluster.Status
		if s.cfg.Cluster != nil {
			st := s.cfg.Cluster.Status()
			cl = &st
		}
		json.NewEncoder(w).Encode(struct {
			Server     Metrics
			Fleet      any
			Classifier fleet.ClassifierStats
			Cluster    *cluster.Status `json:",omitempty"`
		}{s.Metrics(), s.cfg.Fleet.Metrics(), s.cfg.Fleet.ClassifierStats(), cl})
	})
	if s.cfg.Cluster != nil {
		s.clusterRoutes(mux)
	}
	return mux
}

// clusterRoutes mounts the cluster admin verbs.
func (s *Server) clusterRoutes(mux *http.ServeMux) {
	co := s.cfg.Cluster
	writeRing := func(w http.ResponseWriter, ring *cluster.Ring) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Epoch uint64
			Nodes []cluster.Node
		}{ring.Epoch(), ring.Nodes()})
	}
	fail := func(w http.ResponseWriter, err error) {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, cluster.ErrUnknownNode), errors.Is(err, cluster.ErrDuplicateNode):
			code = http.StatusBadRequest
		case errors.Is(err, cluster.ErrStaleEpoch):
			code = http.StatusConflict
		}
		http.Error(w, err.Error(), code)
	}
	post := func(w http.ResponseWriter, r *http.Request) bool {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return false
		}
		return true
	}
	mux.HandleFunc("/clusterz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(co.Status())
	})
	mux.HandleFunc("/cluster/join", func(w http.ResponseWriter, r *http.Request) {
		if !post(w, r) {
			return
		}
		id, addr := r.FormValue("id"), r.FormValue("addr")
		if id == "" || addr == "" {
			http.Error(w, "need id and addr", http.StatusBadRequest)
			return
		}
		ring, err := co.HandleJoin(cluster.Node{ID: id, Addr: addr})
		if err != nil {
			fail(w, err)
			return
		}
		writeRing(w, ring)
	})
	mux.HandleFunc("/cluster/leave", func(w http.ResponseWriter, r *http.Request) {
		if !post(w, r) {
			return
		}
		id := r.FormValue("id")
		if id == "" {
			http.Error(w, "need id", http.StatusBadRequest)
			return
		}
		ring, err := co.HandleLeave(id)
		if err != nil {
			fail(w, err)
			return
		}
		writeRing(w, ring)
	})
	mux.HandleFunc("/cluster/rebalance", func(w http.ResponseWriter, r *http.Request) {
		if !post(w, r) {
			return
		}
		ring, err := co.Rebalance()
		if err != nil {
			fail(w, err)
			return
		}
		writeRing(w, ring)
	})
	mux.HandleFunc("/cluster/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		// Quiesce durable state without stopping the node: checkpoint
		// every resident stream through the fenced store. After a 200
		// the store holds everything the node has seen, so a node
		// without a WAL can be killed without losing acked state.
		if !post(w, r) {
			return
		}
		if err := s.cfg.Fleet.CheckpointCtx(r.Context()); err != nil {
			fail(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Checkpointed bool
			Epoch        uint64
		}{true, co.Epoch()})
	})
}
