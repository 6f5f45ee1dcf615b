// Command hedc-server runs one HEDC process. Five modes:
//
//	-mode repo         (default) a full standalone node: web interface at /,
//	                   DM RPC at /dm/ for remote DMs, StreamCorders and peers
//	-mode db           serve the shared metadata database over the dbnet wire
//	                   protocol, with the calibrated ops/sec ceiling
//	-mode replica      a middle-tier replica: a full DM dialing a -db-addr
//	                   database, serving /dm/ and /healthz
//	-mode shard-router serve a sharded metadata tier as one dbnet endpoint:
//	                   dials every -shard-addrs database, routes point ops
//	                   to the owning shard and scatter-gathers the rest
//	-mode gateway      the cluster front door: load-balances /dm/ across
//	                   -replicas with health checks, circuit breakers and
//	                   failover; serves the web UI and /stats over the cluster
//
// A shared-database cluster on one machine:
//
//	hedc-server -mode db -addr 127.0.0.1:7000 -data /var/hedc-db
//	hedc-server -mode replica -addr 127.0.0.1:8081 -db-addr 127.0.0.1:7000 -node r1
//	hedc-server -mode replica -addr 127.0.0.1:8082 -db-addr 127.0.0.1:7000 -node r2
//	hedc-server -mode gateway -addr 127.0.0.1:8080 \
//	    -replicas http://127.0.0.1:8081/dm/,http://127.0.0.1:8082/dm/
//
// A sharded metadata tier replaces the single -mode db process with N
// shard databases plus a router; replicas dial the router unchanged:
//
//	hedc-server -mode db -addr 127.0.0.1:7001 -data /var/hedc-shard0
//	hedc-server -mode db -addr 127.0.0.1:7002 -data /var/hedc-shard1
//	hedc-server -mode shard-router -addr 127.0.0.1:7000 -data /var/hedc-router \
//	    -shard-addrs 127.0.0.1:7001,127.0.0.1:7002
//
// Every mode shuts down gracefully on SIGINT/SIGTERM: the listener
// closes, in-flight requests drain, and state is flushed.
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

	hedc "repro"
	"repro/internal/cluster"
	"repro/internal/colseg"
	"repro/internal/dbnet"
	"repro/internal/dm"
	"repro/internal/minidb"
	"repro/internal/overload"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/web"
)

func main() {
	var (
		mode       = flag.String("mode", "repo", "process role: repo|db|replica|shard-router|gateway")
		data       = flag.String("data", "./hedc-data", "data directory (database + archives)")
		addr       = flag.String("addr", ":8081", "listen address (HTTP, or TCP in db mode)")
		node       = flag.String("node", "hedc-0", "node name")
		loadDays   = flag.Int("load-days", 0, "generate and ingest this many synthetic mission days at startup (repo mode)")
		seed       = flag.Int64("seed", 2002, "telemetry seed")
		dayLen     = flag.Float64("day-length", 7200, "seconds of observation per synthetic day")
		partDom    = flag.Bool("partition", false, "put the domain schema on a separate database instance (repo mode)")
		importPw   = flag.String("import-password", "import", "password of the system import account")
		dbAddr     = flag.String("db-addr", "", "dbnet address of the shared metadata database (replica mode)")
		shardAddrs = flag.String("shard-addrs", "", "comma-separated dbnet addresses of the shard databases, index = shard id (shard-router mode)")
		dbMaxOps   = flag.Float64("db-max-ops", 0, "database ops/sec ceiling, 0 = unlimited (db mode)")
		replicas   = flag.String("replicas", "", "comma-separated replica /dm/ base URLs (gateway mode)")
		adaptive   = flag.Bool("adaptive", false, "adaptive admission control: latency-gradient concurrency limit + brownout ladder (gateway mode)")
		bootPw     = flag.String("bootstrap-password", "", "bootstrap the shared database with this admin password if empty (db mode)")
		pprofAddr  = flag.String("pprof", "", "serve /debug/pprof on this address (e.g. 127.0.0.1:6060; empty: disabled)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Profiling is opt-in and listens on its own address, so no production
	// mode ever exposes pprof on the service port. Started before the mode
	// switch: every role (repo, db, replica, gateway) gets it.
	if *pprofAddr != "" {
		go func() {
			mux := http.NewServeMux()
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			log.Printf("pprof: serving /debug/pprof on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				log.Printf("pprof: %v", err)
			}
		}()
	}

	var err error
	switch *mode {
	case "repo":
		err = runRepo(ctx, repoConfig{
			data: *data, addr: *addr, node: *node, loadDays: *loadDays,
			seed: *seed, dayLen: *dayLen, partDom: *partDom, importPw: *importPw,
		})
	case "db":
		err = runDB(ctx, *data, *addr, *dbMaxOps, *bootPw)
	case "replica":
		err = runReplica(ctx, *addr, *dbAddr, *node)
	case "shard-router":
		err = runShardRouter(ctx, *data, *addr, *shardAddrs)
	case "gateway":
		err = runGateway(ctx, *addr, *replicas, *adaptive)
	default:
		err = fmt.Errorf("unknown -mode %q (repo|db|replica|shard-router|gateway)", *mode)
	}
	if err != nil {
		log.Fatal(err)
	}
}

type repoConfig struct {
	data, addr, node, importPw string
	loadDays                   int
	seed                       int64
	dayLen                     float64
	partDom                    bool
}

func runRepo(ctx context.Context, cfg repoConfig) error {
	repo, err := hedc.Open(hedc.Config{
		DataDir:         cfg.data,
		Node:            cfg.node,
		ImportPassword:  cfg.importPw,
		URLRoot:         "http://localhost" + cfg.addr,
		PartitionDomain: cfg.partDom,
		Logger:          log.New(os.Stderr, "hedc ", log.LstdFlags),
	})
	if err != nil {
		return err
	}
	defer repo.Close()

	for d := 1; d <= cfg.loadDays; d++ {
		reports, err := repo.LoadDay(d, hedc.MissionConfig{
			Seed: cfg.seed, DayLength: cfg.dayLen, BackgroundRate: 5, Flares: -1, Bursts: -1,
		}, 0)
		if err != nil {
			return fmt.Errorf("load day %d: %w", d, err)
		}
		var events int
		for _, r := range reports {
			events += r.Events
		}
		log.Printf("day %d: %d units, %d events", d, len(reports), events)
	}
	if err := repo.Checkpoint(); err != nil {
		return err
	}
	stopMaintenance := repo.Node().StartMaintenance(time.Minute)
	defer stopMaintenance()

	fmt.Printf("HEDC node %s serving on %s (data in %s)\n", cfg.node, cfg.addr, cfg.data)
	fmt.Printf("  web UI:  http://localhost%s/\n", cfg.addr)
	fmt.Printf("  DM RPC:  http://localhost%s/dm/\n", cfg.addr)
	return serveHTTP(ctx, cfg.addr, repo.Handler())
}

// runDB serves one minidb over the dbnet wire protocol — the shared
// database that every replica dials.
func runDB(ctx context.Context, data, addr string, maxOps float64, bootPw string) error {
	dir := filepath.Join(data, "metadb")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	db, err := minidb.Open(dir, schema.AllSchemas()...)
	if err != nil {
		return err
	}
	defer db.Close()
	if bootPw != "" {
		// A fresh database needs accounts before replicas can serve
		// logins; bootstrap through a throwaway DM if none exist yet.
		d, err := dm.Open(dm.Options{Node: "db-bootstrap", MetaDB: db,
			Logger: log.New(os.Stderr, "boot ", 0)})
		if err != nil {
			return err
		}
		if err := d.Bootstrap(bootPw); err != nil {
			return err
		}
	}

	// Columnar segments live next to the database they shadow; replicas
	// ship analytics queries here over the wire instead of pulling rows.
	segs, err := colseg.Open(colseg.Options{
		DB:     db,
		Dir:    filepath.Join(data, "colseg"),
		Tables: []string{schema.TableEvents},
	})
	if err != nil {
		return err
	}
	if err := segs.RefreshAll(); err != nil {
		log.Printf("colseg: initial refresh: %v", err)
	}
	go func() {
		ticker := time.NewTicker(30 * time.Second)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				if err := segs.RefreshAll(); err != nil {
					log.Printf("colseg: refresh: %v", err)
				}
			}
		}
	}()

	srv, err := dbnet.Listen(addr, dbnet.Options{
		DB: db, MaxOpsPerSec: maxOps, Analytics: segs,
		Logger: log.New(os.Stderr, "dbnet ", log.LstdFlags),
	})
	if err != nil {
		return err
	}
	fmt.Printf("HEDC metadata database serving dbnet on %s (data in %s)\n", srv.Addr(), dir)
	<-ctx.Done()
	log.Printf("dbnet: shutting down")
	err = srv.Close()
	log.Printf("db: shutdown: ops=%d overload-refusals=%d deadline-refusals=%d txns=%d txn-timeouts=%d free-ops=%d",
		srv.Ops(), srv.OverloadRefusals(), srv.DeadlineRefusals(), srv.Txns(), srv.TxnTimeouts(), srv.FreeOps())
	return err
}

// runReplica runs one middle-tier node: a full DM whose metadata engine
// is a dbnet client dialing the shared database.
func runReplica(ctx context.Context, addr, dbAddr, name string) error {
	if dbAddr == "" {
		return fmt.Errorf("replica mode requires -db-addr")
	}
	cl, err := dbnet.Dial(dbnet.ClientOptions{Addr: dbAddr})
	if err != nil {
		return err
	}
	defer cl.Close()
	rep, err := cluster.StartReplica(cluster.ReplicaOptions{
		Name: name, DB: cl, Addr: addr,
		Logger: log.New(os.Stderr, name+" ", log.LstdFlags),
	})
	if err != nil {
		return err
	}
	fmt.Printf("HEDC replica %s serving on %s (database at %s)\n", name, rep.Addr(), dbAddr)
	fmt.Printf("  DM RPC:  %s\n", rep.URL())
	fmt.Printf("  health:  %s\n", rep.HealthURL())
	<-ctx.Done()
	log.Printf("%s: shutting down", name)
	rep.Stop()
	return nil
}

// runShardRouter serves a sharded metadata tier behind the same dbnet
// protocol a single -mode db process speaks. It dials each shard
// database, loads (or lays out and persists) the hash-slot shard map
// under -data, and serves the router: replicas dial it exactly as they
// would a single shared database, and never learn the catalog is
// partitioned.
func runShardRouter(ctx context.Context, data, addr, shardList string) error {
	var addrs []string
	for _, a := range strings.Split(shardList, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return fmt.Errorf("shard-router mode requires -shard-addrs addr,addr,...")
	}
	dir := filepath.Join(data, "shardmap")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	engines := make(map[int]minidb.Engine, len(addrs))
	defer func() {
		for _, e := range engines {
			if cl, isClient := e.(*dbnet.Client); isClient {
				cl.Close()
			}
		}
	}()
	for sid, a := range addrs {
		cl, err := dbnet.Dial(dbnet.ClientOptions{Addr: a})
		if err != nil {
			return fmt.Errorf("dial shard %d at %s: %w", sid, a, err)
		}
		engines[sid] = cl
	}
	router, err := shard.NewRouter(shard.Options{
		Shards: engines,
		Dir:    dir,
		Logger: log.New(os.Stderr, "shard ", log.LstdFlags),
	})
	if err != nil {
		return err
	}
	// The router owns the clients now; Close them exactly once through it.
	engines = nil

	// The router is both the engine and the analytics runner: point ops
	// route to the owning shard, scatter ops fan out and merge.
	srv, err := dbnet.Listen(addr, dbnet.Options{
		DB: router, Analytics: router,
		Logger: log.New(os.Stderr, "dbnet ", log.LstdFlags),
	})
	if err != nil {
		router.Close()
		return err
	}
	st := router.Status()
	fmt.Printf("HEDC shard router serving dbnet on %s over %d shards (map v%d in %s)\n",
		srv.Addr(), len(addrs), st.MapVersion, dir)
	<-ctx.Done()
	st = router.Status()
	log.Printf("shard-router: shutdown: map=v%d single-shard=%d scatter=%d fanout-calls=%d shard-failures=%d",
		st.MapVersion, st.SingleShard, st.Scatter, st.FanoutCalls, st.ShardFailures)
	err = srv.Close()
	router.Close()
	return err
}

// runGateway fronts a set of replicas with the cluster gateway:
// health-checked, cache-affine load balancing with failover, exposed as
// the same /dm/ protocol the replicas speak.
func runGateway(ctx context.Context, addr, replicaList string, adaptive bool) error {
	opts := cluster.GatewayOptions{
		Logger: log.New(os.Stderr, "gateway ", log.LstdFlags),
	}
	if adaptive {
		// Zero-value configs take the package defaults. Without the
		// flag the gateway sets no MaxInflight, so it has no semaphore
		// and admits everything; with it, the AIMD limiter admits and
		// the brownout ladder runs.
		opts.AdaptiveLimit = &overload.Config{}
		opts.Brownout = &overload.LadderConfig{}
	}
	gw := cluster.NewGateway(opts)
	defer gw.Close()
	n := 0
	for _, u := range strings.Split(replicaList, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		n++
		gw.AddReplica(fmt.Sprintf("replica-%d", n), dm.NewRemote(u, nil))
	}
	if n == 0 {
		return fmt.Errorf("gateway mode requires -replicas url,url,...")
	}

	mux := dm.NewServer(gw, "/dm/").Mux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		healthy := 0
		for _, m := range gw.Members() {
			if m.Healthy {
				healthy++
			}
		}
		if healthy == 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprintf(w, `{"members":%d,"healthy":%d}`+"\n", n, healthy)
	})
	// The gateway is a dm.API like any other, so the whole presentation
	// tier runs over the cluster; /stats adds the per-replica health,
	// circuit and retry-budget view.
	mux.Handle("/", web.New(web.Config{API: gw, Cluster: gw, Node: "gateway"}).Handler())
	fmt.Printf("HEDC gateway serving on %s over %d replicas\n", addr, n)
	err := serveHTTP(ctx, addr, mux)
	logGatewayStatus(gw)
	return err
}

// logGatewayStatus prints the resilience counters on shutdown, so an
// operator reading the logs of a finished run sees what the cluster
// absorbed: load shed, failovers, circuit opens, degraded serves.
func logGatewayStatus(gw *cluster.Gateway) {
	st := gw.Status()
	log.Printf("gateway: shutdown: shed=%d failovers=%d retries-denied=%d retry-tokens=%.1f/%d degraded-serves=%d demotions=%d writes-failed-fast=%d write-epoch=%d stale-entries=%d",
		st.Shed, st.Failovers, st.RetriesDenied, st.RetryTokens, st.RetryBurst,
		st.DegradedServes, st.SessionDemotions, st.WritesFailedFast, st.WriteEpoch, st.StaleEntries)
	for _, m := range st.Members {
		log.Printf("gateway: replica %s: healthy=%v circuit=%s fails=%d opens=%d served=%d failed=%d",
			m.Name, m.Healthy, m.Circuit, m.CircuitFails, m.CircuitOpens, m.Served, m.Failed)
	}
}

// serveHTTP runs an HTTP server until ctx is cancelled, then drains
// in-flight requests before returning.
func serveHTTP(ctx context.Context, addr string, h http.Handler) error {
	srv := &http.Server{Addr: addr, Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("shutting down, draining in-flight requests")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return srv.Close()
	}
	return nil
}
