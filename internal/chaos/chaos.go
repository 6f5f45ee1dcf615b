// Package chaos is the network-fault torture harness for the live middle
// tier — the counterpart of internal/torture (which breaks the storage
// under the database) for the wires between the tiers. Every schedule
// runs against one cell, the small deployment cluster.StartBackends and
// cluster.StartCell build: shard databases behind dbnet, two replicas
// dialing them, and a gateway in front. One hop of that deployment is
// wrapped in a fault.Net rig, and a scripted browse+write workload runs
// while the rig breaks the hop at exactly the Nth network operation in
// one of the shapes real networks fail (latency, partition, reset, slow
// drip, black hole, torn frame).
//
// The hop decides the cell's shape. HopDB and HopHTTP rig replica-0's
// link to one shared database, or the gateway's link to replica-0: one
// flaky cable in an otherwise healthy cluster. HopShard runs a two-shard
// cell whose replicas route through shard.Router and rigs EVERY
// replica's link to shard 1: the shard itself partitioned away from the
// middle tier, the failure the router's typed errors and breakers exist
// for.
//
// One run loop asserts the end-to-end resilience contract for every
// enumerated schedule:
//
//  1. Bounded latency: no request — served, degraded or failed — may
//     exceed the harness deadline. A hang is the one unforgivable
//     outcome; every timeout, breaker and deadline in the stack exists
//     to prevent it.
//  2. No duplicate effects: every write carries a unique marker value;
//     after the run the shard databases together must hold at most one
//     row per marker (exactly one if the write was acknowledged).
//     Failover must never re-execute a mutation that may have landed.
//  3. Bounded failure, full recovery: every error during the fault
//     window must be one of the typed, expected failures (transport,
//     DB-unavailable, deadline, overload, denial, degraded); after the
//     fault clears, the cluster must converge to serving everything
//     cleanly again within the convergence deadline.
//  4. Partial availability (HopShard only): while shard 1 is
//     unreachable, point reads whose partition key routes to shard 0
//     must still be served LIVE — not degraded, not failed. A router
//     that lets one dead shard poison single-shard traffic has lost the
//     point of sharding. Scatter reads may be served live (soft faults),
//     degraded from the gateway's stale cache, or fail typed — and for
//     the hard fault shapes (partition, black hole) at least one must
//     actually be pushed off the live path, proving the schedule bit.
package chaos

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/dbnet"
	"repro/internal/dm"
	"repro/internal/fault"
	"repro/internal/minidb"
	"repro/internal/schema"
	"repro/internal/shard"
)

// Hop names the network link a schedule breaks.
type Hop string

const (
	// HopDB is replica-0's connection to the shared database (dbnet).
	HopDB Hop = "db"
	// HopHTTP is the gateway's connection to replica-0 (dm RPC over HTTP).
	HopHTTP Hop = "http"
	// HopShard is the dbnet link from every replica's router to shard 1
	// of a two-shard cell.
	HopShard Hop = "shard1"
)

// Schedule is one enumerated fault: break one hop, one way, at the
// At-th network operation after arming.
type Schedule struct {
	Hop  Hop
	Mode fault.NetMode
	At   int
}

// Name is the schedule's subtest-friendly identifier.
func (s Schedule) Name() string {
	return fmt.Sprintf("%s-%s-at%02d", s.Hop, s.Mode, s.At)
}

var netModes = []fault.NetMode{
	fault.NetLatency, fault.NetPartition, fault.NetReset,
	fault.NetSlowDrip, fault.NetBlackHole, fault.NetDropHalf,
}

var opIndices = []int{1, 5, 11, 23, 37}

func schedulesOn(hops ...Hop) []Schedule {
	var out []Schedule
	for _, hop := range hops {
		for _, mode := range netModes {
			for _, at := range opIndices {
				out = append(out, Schedule{Hop: hop, Mode: mode, At: at})
			}
		}
	}
	return out
}

// Schedules enumerates the single-database fault matrix: every mode on
// both hops at every armed op index — 6 × 2 × 5 = 60 distinct schedules.
func Schedules() []Schedule { return schedulesOn(HopDB, HopHTTP) }

// ShardSchedules enumerates the sharded-cell fault matrix: every mode
// against the shard-1 hop at every armed op index — 30 schedules.
func ShardSchedules() []Schedule { return schedulesOn(HopShard) }

// hardMode reports whether a fault shape severs the hop persistently (as
// opposed to slowing it, or breaking it once and letting the client's
// reconnect absorb the hit, as a single reset does): for these, scatter
// traffic cannot stay fully live once the fault fires.
func hardMode(m fault.NetMode) bool {
	return m == fault.NetPartition || m == fault.NetBlackHole
}

// faultRounds is the number of fault-phase workload rounds: each round is
// two anonymous reads and one write, plus a point read per shard on the
// sharded cell.
const faultRounds = 8

// Config tunes a run.
type Config struct {
	// MinFaultTime keeps the fault phase running for at least this long
	// regardless of faultRounds — the CHAOSTIME knob.
	MinFaultTime time.Duration
}

// Result is one schedule's outcome.
type Result struct {
	Schedule Schedule
	Fired    bool // the armed fault actually triggered

	// Fault-phase request accounting.
	Requests int
	OK       int // served live
	Degraded int // served from the gateway's stale cache, tagged
	TypedErr int // failed with an expected, typed error

	WritesAcked  int
	WritesFailed int

	// HealthyOK counts sharded-cell healthy-shard point reads served
	// live (invariant 4; always zero for unsharded schedules).
	HealthyOK int

	MaxWall   time.Duration // slowest fault-phase request
	Converged time.Duration // time from heal to a fully clean round
}

// Available returns the fraction of fault-phase requests that were
// answered with data (live or degraded).
func (r *Result) Available() float64 {
	if r.Requests == 0 {
		return 1
	}
	return float64(r.OK+r.Degraded) / float64(r.Requests)
}

// Harness timeouts. Everything is short: the cell exists to prove that
// no fault shape can stall a request past its budget, and short budgets
// keep the schedules affordable.
const (
	httpTimeout    = 300 * time.Millisecond // gateway→replica RPC budget
	dbCallTimeout  = 150 * time.Millisecond // replica→database call budget
	healthInterval = 20 * time.Millisecond
	breakerCool    = 80 * time.Millisecond
	retryBackoff   = 2 * time.Millisecond

	// reqDeadline is invariant 1's ceiling on any single workload request,
	// derived from the budgets above (two replica attempts at httpTimeout
	// plus a possible re-auth leg) with scheduler slack for parallel -race
	// runs. Far below "hang".
	reqDeadline = 2 * time.Second

	convergeDeadline = 5 * time.Second
	maxPumpOps       = 60 // extra reads to push the op counter to At

	// seededHLEs public events are seeded, split evenly over the shards.
	seededHLEs = 16
)

// cell is the deployment under test plus the scripted client's state.
type cell struct {
	*cluster.Backends
	*cluster.Cell
	rig *fault.Net

	token     string
	ip        string
	markerSeq int
	markers   []marker

	// shardIDs[s] are the seeded public HLE ids shard s owns. On the
	// sharded cell shard 0's are the "healthy shard" probes (invariant
	// 4) and shard 1's the partitioned ones.
	shardIDs [][]string
}

// marker is one write's unique fingerprint: the TStart value it inserts.
type marker struct {
	t     float64
	acked bool
}

func (c *cell) close() {
	if c.Cell != nil {
		c.Cell.Close()
	}
	c.Backends.Close()
}

// startCell builds a cell around rig (whose hooks o carries): shards
// databases served with srv, seededHLEs public events spread evenly over
// them — ids are probed until each shard has its share, so scatter
// queries genuinely span every shard and each has known keys to probe —
// and the replicas and gateway o describes.
func startCell(rig *fault.Net, shards int, srv dbnet.Options, o cluster.CellOptions) (*cell, error) {
	c := &cell{rig: rig, ip: "10.9.0.1", shardIDs: make([][]string, shards)}
	var err error
	c.Backends, err = cluster.StartBackends(shards, srv, func(boot minidb.Engine) error {
		owner := func(string) int { return 0 }
		if r, ok := boot.(*shard.Router); ok {
			m := r.Map()
			owner = func(id string) int { return m.ReadOwner(shard.SlotOf(minidb.S(id))) }
		}
		for seq, n := 0, 0; n < seededHLEs; seq++ {
			id := fmt.Sprintf("hle-chaos-%04d", seq)
			ids := &c.shardIDs[owner(id)]
			if len(*ids) >= seededHLEs/shards {
				continue
			}
			h := &schema.HLE{
				ID: id, Version: 1, Owner: "sci", Public: true,
				KindHint: []string{"flare", "burst"}[seq%2],
				TStart:   float64(seq), TStop: float64(seq + 1),
				Day: int64(seq % 8), CalibVersion: 1,
			}
			if _, err := boot.Insert(schema.TableHLE, h.ToRow()); err != nil {
				return err
			}
			*ids = append(*ids, id)
			n++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.Cell, err = cluster.StartCell(c.Addrs(), o)
	if err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// rigReplica0 is the CellOptions.Transport hook that routes the
// gateway's link to replica-0 through rig.
func rigReplica0(rig *fault.Net) func(int) http.RoundTripper {
	return func(replica int) http.RoundTripper {
		if replica != 0 {
			return nil
		}
		return &http.Transport{DialContext: rig.DialContext}
	}
}

// cellFor builds the schedule's deployment with its hop wrapped in the
// rig. On the single-database hops only replica-0's link is faulted:
// chaos asserts that a cluster with one broken link keeps its promises,
// not that a fully dead one does (internal/cluster's degraded-mode tests
// cover total database loss). On HopShard shard 1's dial is rigged for
// BOTH replicas, and the gateway→replica budget is left at its default:
// a replica waiting out a dead shard is slow, not dead, and must not be
// failed over.
func cellFor(s Schedule) (*cell, error) {
	rig := fault.NewNet()
	shards := 1
	o := cluster.CellOptions{
		Replicas: 2,
		Gateway: cluster.GatewayOptions{
			HealthInterval:   healthInterval,
			RetryBackoff:     retryBackoff,
			BreakerThreshold: 2,
			BreakerCooldown:  breakerCool,
		},
		Client:      dbnet.ClientOptions{DialTimeout: dbCallTimeout, CallTimeout: dbCallTimeout},
		Router:      shard.Options{BreakerCooldown: breakerCool},
		HTTPTimeout: httpTimeout,
	}
	switch s.Hop {
	case HopDB:
		o.Dial = func(replica, _ int) cluster.DialFunc {
			if replica != 0 {
				return nil
			}
			return rig.Dial
		}
	case HopHTTP:
		o.Transport = rigReplica0(rig)
	case HopShard:
		shards = 2
		o.HTTPTimeout = 0
		o.Dial = func(_, sid int) cluster.DialFunc {
			if sid != 1 {
				return nil
			}
			return rig.Dial
		}
	default:
		return nil, fmt.Errorf("unknown hop %q", s.Hop)
	}
	return startCell(rig, shards, dbnet.Options{}, o)
}

// filterFor cycles the workload over distinct affinity keys so traffic
// reaches both replicas (rendezvous hashing splits the keys).
func filterFor(i int) dm.HLEFilter {
	return dm.HLEFilter{
		Kind:   []string{"flare", "burst"}[i%2],
		HasDay: true,
		Day:    int64(i % 8),
	}
}

// The anonymous reads the workload is scripted from.
func (c *cell) query(i int) error {
	_, err := c.GW.QueryHLEs("", c.ip, filterFor(i))
	return err
}

func (c *cell) count(i int) error {
	_, err := c.GW.CountHLEs("", c.ip, filterFor(i))
	return err
}

func (c *cell) get(id string) error {
	_, err := c.GW.GetHLE("", c.ip, id)
	return err
}

// outcome classifies one request: "ok", "degraded", "typed", or "" for an
// error outside the failure model (an invariant violation).
func outcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case cluster.IsDegraded(err):
		return "degraded"
	case dm.IsUnreachable(err), dm.IsDBUnavailable(err), dm.IsDenied(err):
		return "typed"
	case errors.Is(err, cluster.ErrNoReplicas), errors.Is(err, cluster.ErrOverloaded):
		return "typed"
	case dbnet.IsDeadline(err), dbnet.IsUnavailable(err):
		return "typed"
	default:
		return ""
	}
}

// timed runs one workload request under invariant 1 and classifies it
// under invariant 3, folding the outcome into res and handing the
// classification back so callers can layer stricter demands on it.
func timed(res *Result, what string, fn func() error) (string, error) {
	start := time.Now()
	err := fn()
	wall := time.Since(start)
	res.Requests++
	if wall > res.MaxWall {
		res.MaxWall = wall
	}
	if wall > reqDeadline {
		return "", fmt.Errorf("%s: request took %v, past the %v deadline (err=%v)", what, wall, reqDeadline, err)
	}
	o := outcome(err)
	switch o {
	case "ok":
		res.OK++
	case "degraded":
		res.Degraded++
	case "typed":
		res.TypedErr++
	default:
		return "", fmt.Errorf("%s: error outside the failure model: %v", what, err)
	}
	return o, nil
}

// healthyRead is invariant 4: a point read keyed to shard 0 must be
// served live whatever is happening to shard 1.
func (c *cell) healthyRead(res *Result, i int) error {
	id := c.shardIDs[0][i%len(c.shardIDs[0])]
	o, err := timed(res, "healthy-shard read", func() error { return c.get(id) })
	if err != nil {
		return err
	}
	if o != "ok" {
		return fmt.Errorf("healthy-shard read %s was %q, want live: one dead shard poisoned single-shard traffic", id, o)
	}
	res.HealthyOK++
	return nil
}

// write creates one HLE carrying a fresh unique marker. A denial means
// the session died with its replica (the documented demotion path): the
// client re-authenticates and retries the same marker — safe, because a
// denial is an answer, proof the write did not execute. On the sharded
// cell the new row's shard follows its generated id's hash, so during a
// shard-1 fault roughly half the writes fail typed — and their markers
// must still never surface twice.
func (c *cell) write() error {
	c.markerSeq++
	m := marker{t: 50000 + float64(c.markerSeq)}
	create := func() error {
		_, err := c.GW.CreateHLE(c.token, c.ip, &schema.HLE{
			KindHint: "flare", Day: 1, TStart: m.t, TStop: m.t + 0.5,
			Version: 1, CalibVersion: 1,
		})
		return err
	}
	err := create()
	if dm.IsDenied(err) {
		if err = c.auth(); err == nil {
			err = create()
		}
	}
	m.acked = err == nil
	c.markers = append(c.markers, m)
	return err
}

func (c *cell) auth() error {
	si, err := c.GW.Authenticate("sci", "pw", c.ip, dm.SessionHLE)
	if err != nil {
		return err
	}
	c.token = si.Token
	return nil
}

// warm brings the cell to a healthy serving baseline: every filter's
// query and count answer (priming the gateway's stale cache so hard
// faults can degrade), every seeded row reads back by id, a session
// exists, a write lands. Failures here are harness bugs, not chaos
// findings.
func (c *cell) warm() error {
	for i := 0; i < 4; i++ {
		if err := c.query(i); err != nil {
			return fmt.Errorf("warm query %d: %w", i, err)
		}
		if err := c.count(i); err != nil {
			return fmt.Errorf("warm count %d: %w", i, err)
		}
	}
	for _, ids := range c.shardIDs {
		for _, id := range ids {
			if err := c.get(id); err != nil {
				return fmt.Errorf("warm point read %s: %w", id, err)
			}
		}
	}
	if err := c.auth(); err != nil {
		return fmt.Errorf("warm auth: %w", err)
	}
	if err := c.write(); err != nil {
		return fmt.Errorf("warm write: %w", err)
	}
	return nil
}

// converge waits for the healed cluster to serve a fully clean round:
// every filter live (not degraded) so both replicas have answered, a
// count, a point read on every shard (proving a router's breakers closed
// and the partitioned shard rejoined), a write accepted. Invariant 3's
// recovery half.
func (c *cell) converge() error {
	deadline := time.Now().Add(convergeDeadline)
	var last error
	for time.Now().Before(deadline) {
		last = func() error {
			for i := 0; i < 4; i++ {
				if err := c.query(i); err != nil {
					return fmt.Errorf("query %d: %w", i, err)
				}
			}
			if err := c.count(1); err != nil {
				return fmt.Errorf("count: %w", err)
			}
			for _, ids := range c.shardIDs {
				if err := c.get(ids[0]); err != nil {
					return fmt.Errorf("point read %s: %w", ids[0], err)
				}
			}
			if err := c.write(); err != nil {
				return fmt.Errorf("write: %w", err)
			}
			return nil
		}()
		if last == nil {
			return nil
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("cluster did not converge within %v after heal: %v", convergeDeadline, last)
}

// verifyMarkers checks invariant 2 against the shard databases directly:
// a marker may live on any shard (its row's id decides), must appear at
// most once in the union, and exactly once if acknowledged.
func (c *cell) verifyMarkers() error {
	for _, m := range c.markers {
		n := 0
		for sid, db := range c.DBs {
			res, err := db.Query(minidb.Query{
				Table: schema.TableHLE,
				Where: []minidb.Pred{{Col: "tstart", Op: minidb.OpEq, Val: minidb.F(m.t)}},
			})
			if err != nil {
				return fmt.Errorf("marker query on shard %d: %w", sid, err)
			}
			n += len(res.Rows)
		}
		if n > 1 {
			return fmt.Errorf("marker %v: %d rows across shards — a mutation was executed twice", m.t, n)
		}
		if m.acked && n != 1 {
			return fmt.Errorf("marker %v: acknowledged write has %d rows, want 1", m.t, n)
		}
	}
	return nil
}

// Run executes one schedule and checks every invariant. The returned
// error is a violated invariant (or a harness failure); the Result is
// the availability record for schedules that pass.
func Run(s Schedule, cfg Config) (*Result, error) {
	c, err := cellFor(s)
	if err != nil {
		return nil, fmt.Errorf("cell: %w", err)
	}
	defer c.close()
	if err := c.warm(); err != nil {
		return nil, err
	}

	res := &Result{Schedule: s}
	c.rig.SetFault(c.rig.OpCount()+s.At, s.Mode)
	sharded := s.Hop == HopShard

	// scatter runs one anonymous read that fans out over every shard,
	// counting the ones answered degraded or typed.
	offLive := 0
	scatter := func(what string, fn func() error) error {
		o, err := timed(res, what, fn)
		if o != "ok" {
			offLive++
		}
		return err
	}

	start := time.Now()
	for i := 0; i < faultRounds || time.Since(start) < cfg.MinFaultTime; i++ {
		if sharded {
			if err := c.healthyRead(res, i); err != nil {
				return res, err
			}
		}
		if err := scatter("anon query", func() error { return c.query(i) }); err != nil {
			return res, err
		}
		if err := scatter("anon count", func() error { return c.count(i + 1) }); err != nil {
			return res, err
		}
		if sharded {
			// Point read on the partitioned shard: any classified outcome —
			// live before the fault fires, degraded from the stale cache or
			// typed after — as long as it stays inside the deadline.
			sick := c.shardIDs[1]
			if _, err := timed(res, "sick-shard read", func() error { return c.get(sick[i%len(sick)]) }); err != nil {
				return res, err
			}
		}
		var werr error
		if _, err := timed(res, "write", func() error {
			werr = c.write()
			return werr
		}); err != nil {
			return res, err
		}
		if werr == nil {
			res.WritesAcked++
		} else {
			res.WritesFailed++
		}
	}
	// If the scripted rounds did not push the hop to its armed op (quiet
	// hops count slowly, and healthy-shard reads never touch a rigged
	// shard link), pump scatter reads until the fault fires.
	for i := 0; !c.rig.Faulted() && i < maxPumpOps; i++ {
		if err := scatter("pump query", func() error { return c.query(i) }); err != nil {
			return res, err
		}
	}
	res.Fired = c.rig.Faulted()

	// Post-fire probes: with the shard fault definitely live, invariant 4
	// must hold right now, and hard fault shapes must push scatter
	// traffic off the live path.
	if sharded && res.Fired {
		for i := 0; i < 2; i++ {
			if err := c.healthyRead(res, i); err != nil {
				return res, err
			}
			if err := scatter("post-fire count", func() error { return c.count(i) }); err != nil {
				return res, err
			}
		}
	}
	c.rig.ClearFault()

	if sharded && hardMode(s.Mode) && offLive == 0 {
		return res, fmt.Errorf("%s fired but every scatter request stayed live — the fault never bit", s.Mode)
	}

	healed := time.Now()
	if err := c.converge(); err != nil {
		return res, err
	}
	res.Converged = time.Since(healed)

	if err := c.verifyMarkers(); err != nil {
		return res, err
	}
	if !res.Fired {
		return res, fmt.Errorf("armed fault at op +%d never fired (%d hop ops total) — the schedule tested nothing", s.At, c.rig.OpCount())
	}
	return res, nil
}
