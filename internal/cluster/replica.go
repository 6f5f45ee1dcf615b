// Package cluster implements the live replicated middle tier: HEDC
// "scales by replication" — identical DM nodes multiply against one
// shared database while a gateway spreads the presentation tier's
// requests across them (§5.4, Figure 5). A Replica is one such node; a
// Gateway fronts N of them with health checks, cache-affinity load
// balancing, failover and admission control.
package cluster

import (
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/dm"
	"repro/internal/minidb"
)

// Capacity calibrates a replica's middle-tier resource model so that a
// live node degrades the way Figure 4 measured: fine until ~16
// simultaneous clients, then thrashing. Zero value disables the model
// (the node is then bounded only by real CPU and the shared database).
type Capacity struct {
	// Workers is the node's core count — concurrent CPU slices (default
	// 2, the dual-PIII web server).
	Workers int
	// CPUPerCall is the middle-tier CPU burst per API call. Figure 4's
	// node spends ~0.11 core-seconds per page over ~8 slices.
	CPUPerCall time.Duration
	// ThrashThreshold and ThrashFactor inflate the burst under load:
	// demand *= 1 + ThrashFactor*max(0, inflight-ThrashThreshold),
	// the same law the simulator's CPU uses (memory pressure past ~16
	// clients per node).
	ThrashThreshold int
	ThrashFactor    float64
}

func (c Capacity) enabled() bool { return c.CPUPerCall > 0 }

// ReplicaOptions configures one middle-tier node.
type ReplicaOptions struct {
	// Name is the node name (e.g. "replica-2").
	Name string
	// DB is the shared metadata engine, as DialEngine opens it: a
	// dbnet.Client, or a shard.Router over one per shard, so all replicas
	// see one database.
	DB minidb.Engine
	// Addr is the HTTP listen address; empty means 127.0.0.1:0.
	Addr string
	// Capacity is the per-node load model.
	Capacity Capacity
	// Logger receives node messages. Nil discards them.
	Logger *log.Logger
}

// Replica is one live DM node serving the dm RPC surface over HTTP,
// with a health endpoint and a calibrated capacity model.
type Replica struct {
	name string
	dm   *dm.DM
	srv  *http.Server
	ln   net.Listener
	cap  Capacity
	slot chan struct{}

	inflight atomic.Int64
	served   atomic.Int64
	stopped  atomic.Bool
}

// StartReplica opens a DM over the shared engine and serves it.
func StartReplica(opts ReplicaOptions) (*Replica, error) {
	if opts.Name == "" {
		opts.Name = "replica"
	}
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}
	logger := opts.Logger
	if logger == nil {
		logger = log.New(discard{}, "", 0)
	}
	d, err := dm.Open(dm.Options{Node: opts.Name, MetaDB: opts.DB, Logger: logger})
	if err != nil {
		return nil, fmt.Errorf("cluster: open DM for %s: %w", opts.Name, err)
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen for %s: %w", opts.Name, err)
	}
	r := &Replica{name: opts.Name, dm: d, ln: ln, cap: opts.Capacity}
	workers := opts.Capacity.Workers
	if workers <= 0 {
		workers = 2
	}
	r.slot = make(chan struct{}, workers)

	rpc := dm.NewServer(dm.Local{DM: d}, "/dm/").Mux()
	mux := http.NewServeMux()
	mux.Handle("/dm/", r.capacityMiddleware(rpc))
	mux.HandleFunc("/healthz", r.healthz)
	r.srv = &http.Server{Handler: mux}
	go r.srv.Serve(ln)
	return r, nil
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// capacityMiddleware charges each RPC the node's CPU burst, inflated
// under load — the web-node side of the Figure 4/5 curves. Pings are
// exempt: health checks must stay cheap on a drowning node (they probe
// liveness, not latency).
func (r *Replica) capacityMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/dm/ping" {
			next.ServeHTTP(w, req)
			return
		}
		n := r.inflight.Add(1)
		defer r.inflight.Add(-1)
		defer r.served.Add(1)
		if r.cap.enabled() {
			demand := r.cap.CPUPerCall
			if over := int(n) - r.cap.ThrashThreshold; over > 0 && r.cap.ThrashFactor > 0 {
				demand = time.Duration(float64(demand) * (1 + r.cap.ThrashFactor*float64(over)))
			}
			r.slot <- struct{}{} // one of Workers cores
			time.Sleep(demand)
			<-r.slot
		}
		next.ServeHTTP(w, req)
	})
}

func (r *Replica) healthz(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"name":     r.name,
		"inflight": r.inflight.Load(),
		"served":   r.served.Load(),
	})
}

// Name returns the node name.
func (r *Replica) Name() string { return r.name }

// Addr returns the replica's listen address.
func (r *Replica) Addr() string { return r.ln.Addr().String() }

// URL returns the DM RPC base URL remote callers dial.
func (r *Replica) URL() string { return "http://" + r.Addr() + "/dm/" }

// HealthURL returns the liveness endpoint.
func (r *Replica) HealthURL() string { return "http://" + r.Addr() + "/healthz" }

// DM exposes the node's DM (tests and diagnostics).
func (r *Replica) DM() *dm.DM { return r.dm }

// Stop kills the node abruptly — the listener and every live connection
// drop, as when a machine dies. The shared engine is not closed.
func (r *Replica) Stop() {
	if r.stopped.Swap(true) {
		return
	}
	r.srv.Close()
}
