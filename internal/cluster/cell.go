package cluster

import (
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"repro/internal/dbnet"
	"repro/internal/dm"
	"repro/internal/minidb"
	"repro/internal/schema"
	"repro/internal/shard"
)

// The harness cell: the one small deployment the chaos and stampede
// harnesses, the measured Figure 5 sweeps and this package's tests all
// run against. It comes in two halves because a sweep keeps its
// databases across points while rebuilding the tier above them:
// StartBackends owns the shard databases and their dbnet servers,
// StartCell the replicas and the gateway dialing them.

// Backends is the database half of a cell: N in-memory shard databases,
// each served by its own dbnet server, bootstrapped with the standard
// accounts (admin password "secret"; scientist "sci"/"pw" with browse,
// download, analyze and upload rights).
type Backends struct {
	// DBs and Srvs are indexed by shard id.
	DBs  []*minidb.DB
	Srvs []*dbnet.Server
	// Boot is the engine to seed and audit through: the database itself
	// for one shard, an in-process shard.Router over the raw databases
	// for more, so rows land on their owning shards under the same map
	// every replica computes. It owns nothing; Close closes the DBs.
	Boot minidb.Engine
}

// StartBackends opens the shard databases, serves each with srv (its DB
// field is filled in per shard), creates the boot accounts and hands
// the boot engine to seed (which may be nil).
func StartBackends(shards int, srv dbnet.Options, seed func(boot minidb.Engine) error) (*Backends, error) {
	if shards < 1 {
		return nil, fmt.Errorf("cluster: cell needs at least one shard, got %d", shards)
	}
	b := &Backends{}
	ok := false
	defer func() {
		if !ok {
			b.Close()
		}
	}()
	engines := make(map[int]minidb.Engine, shards)
	for i := 0; i < shards; i++ {
		db, err := minidb.Open("", schema.AllSchemas()...)
		if err != nil {
			return nil, err
		}
		b.DBs = append(b.DBs, db)
		srv.DB = db
		s, err := dbnet.Listen("127.0.0.1:0", srv)
		if err != nil {
			return nil, err
		}
		b.Srvs = append(b.Srvs, s)
		engines[i] = db
	}
	b.Boot = b.DBs[0]
	if shards > 1 {
		router, err := shard.NewRouter(shard.Options{Shards: engines})
		if err != nil {
			return nil, err
		}
		b.Boot = router
	}
	boot, err := dm.Open(dm.Options{Node: "boot", MetaDB: b.Boot, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		return nil, err
	}
	if err := boot.Bootstrap("secret"); err != nil {
		return nil, err
	}
	if err := boot.CreateUser("sci", "pw", dm.GroupScientist,
		dm.RightBrowse, dm.RightDownload, dm.RightAnalyze, dm.RightUpload); err != nil {
		return nil, err
	}
	if seed != nil {
		if err := seed(b.Boot); err != nil {
			return nil, err
		}
	}
	ok = true
	return b, nil
}

// Addrs returns the dbnet server addresses, index = shard id.
func (b *Backends) Addrs() []string {
	addrs := make([]string, len(b.Srvs))
	for i, s := range b.Srvs {
		addrs[i] = s.Addr()
	}
	return addrs
}

// Close stops the servers and closes the databases. Idempotent.
func (b *Backends) Close() {
	for _, s := range b.Srvs {
		s.Close()
	}
	for _, db := range b.DBs {
		db.Close()
	}
}

// DialFunc is dbnet.ClientOptions.Dial: the connection-level fault seam.
type DialFunc = func(network, addr string, timeout time.Duration) (net.Conn, error)

// CellOptions configures the replica-and-gateway half of a cell. Only
// what the harnesses vary is here; listen addresses, the boot accounts
// and in-memory storage are fixed.
type CellOptions struct {
	// Replicas is the middle-tier node count at start.
	Replicas int
	// Gateway configures the fronting gateway.
	Gateway GatewayOptions
	// Capacity is the per-replica load model (zero disables it).
	Capacity Capacity
	// Client is the template for every replica→database dbnet client
	// (timeouts); Addr and Dial are filled in per (replica, shard).
	Client dbnet.ClientOptions
	// Router is the template for each replica's shard.Router when the
	// cell has more than one shard (breaker tuning); Shards and Logger
	// are filled in.
	Router shard.Options
	// HTTPTimeout bounds each gateway→replica RPC (0 = dm.NewRemote's
	// default).
	HTTPTimeout time.Duration
	// NamePrefix names the replicas "<prefix>-<i>" (default "replica").
	NamePrefix string
	// Logger receives replica and router noise. Nil discards it.
	Logger *log.Logger
	// Dial, when set, may return a dialer to wrap replica's link to
	// shard in a fault rig (nil = dial normally).
	Dial func(replica, shard int) DialFunc
	// Transport, when set, may return the HTTP transport for the
	// gateway's link to replica (nil = the default transport).
	Transport func(replica int) http.RoundTripper
}

// Cell is a running deployment: replicas over the backends' addresses
// and the gateway fronting them. Its methods are not safe for
// concurrent use with each other (traffic through GW is).
type Cell struct {
	// GW is the cell's client surface.
	GW *Gateway
	// Replicas are every node ever started, stopped ones included;
	// index i is named "<prefix>-<i>".
	Replicas []*Replica

	addrs []string
	opts  CellOptions
	// engines[i] is replica i's database engine: its dbnet client for a
	// one-shard cell, else its shard.Router (which owns its clients).
	engines []minidb.Engine
}

// StartCell brings up o.Replicas replicas over the dbnet servers at
// addrs (index = shard id) and a gateway in front. Each replica opens its
// engine with DialEngine, as `hedc-server -mode replica` does: with one
// address it dials the database directly, with more it routes through
// its own shard.Router.
// On error everything already opened is closed.
func StartCell(addrs []string, o CellOptions) (*Cell, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: cell needs at least one shard address")
	}
	if o.NamePrefix == "" {
		o.NamePrefix = "replica"
	}
	c := &Cell{GW: NewGateway(o.Gateway), addrs: addrs, opts: o}
	for i := 0; i < o.Replicas; i++ {
		if _, err := c.AddReplica(); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// AddReplica starts one more replica and puts it in the gateway's
// rotation — a replacement node joining.
func (c *Cell) AddReplica() (*Replica, error) {
	i := len(c.Replicas)
	var dial func(int) DialFunc
	if c.opts.Dial != nil {
		dial = func(sid int) DialFunc { return c.opts.Dial(i, sid) }
	}
	ro := c.opts.Router
	ro.Logger = c.opts.Logger
	eng, err := DialEngine(c.addrs, c.opts.Client, ro, dial)
	if err != nil {
		return nil, fmt.Errorf("cluster: replica %d: %w", i, err)
	}
	c.engines = append(c.engines, eng)
	rep, err := StartReplica(ReplicaOptions{
		Name:     fmt.Sprintf("%s-%d", c.opts.NamePrefix, i),
		DB:       eng,
		Capacity: c.opts.Capacity,
		Logger:   c.opts.Logger,
	})
	if err != nil {
		return nil, err
	}
	c.Replicas = append(c.Replicas, rep)
	remote := dm.NewRemote(rep.URL(), nil)
	if c.opts.HTTPTimeout > 0 {
		remote.Client.Timeout = c.opts.HTTPTimeout
	}
	if c.opts.Transport != nil {
		if rt := c.opts.Transport(i); rt != nil {
			remote.Client.Transport = rt
		}
	}
	c.GW.AddReplica(rep.Name(), remote)
	return rep, nil
}

// DialEngine opens the metadata engine a replica programs against, over
// the dbnet servers at addrs (index = shard id): a dbnet client for one
// address, refused if that database is one shard of several, else a
// shard.Router over one client per address. co and ro are templates
// (timeouts, breaker tuning); Addr and Shards are filled in. dial, when
// set, may return the dialer for shard sid's link (nil = dial
// normally). On error every client already dialled is closed.
func DialEngine(addrs []string, co dbnet.ClientOptions, ro shard.Options, dial func(sid int) DialFunc) (minidb.Engine, error) {
	clients := make(map[int]minidb.Engine, len(addrs))
	closeClients := func() {
		for _, cl := range clients {
			cl.Close()
		}
	}
	for sid, addr := range addrs {
		o := co
		o.Addr = addr
		if dial != nil {
			if d := dial(sid); d != nil {
				o.Dial = d
			}
		}
		cl, err := dbnet.Dial(o)
		if err != nil {
			closeClients()
			return nil, fmt.Errorf("cluster: dial shard %d at %s: %w", sid, addr, err)
		}
		clients[sid] = cl
	}
	if len(clients) == 1 {
		if err := shard.CheckUnsharded(clients[0]); err != nil {
			closeClients()
			return nil, err
		}
		return clients[0], nil
	}
	ro.Shards = clients
	router, err := shard.NewRouter(ro)
	if err != nil {
		closeClients()
		return nil, err
	}
	return router, nil
}

// Close stops the gateway, the replicas and every replica's database
// engine (clients, and routers with the clients under them). The
// backends stay up. Idempotent.
func (c *Cell) Close() {
	c.GW.Close()
	for _, r := range c.Replicas {
		r.Stop()
	}
	for _, e := range c.engines {
		e.Close()
	}
}
