package shard

import (
	"fmt"
	"log"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/circuit"
	"repro/internal/colseg"
	"repro/internal/dbnet"
	"repro/internal/minidb"
)

// Options configures a Router.
type Options struct {
	// Shards maps shard id -> engine (in-process *minidb.DB or a
	// dbnet.Client). Required, non-empty.
	Shards map[int]minidb.Engine
	// breakerThreshold and BreakerCooldown tune the per-shard circuit
	// breakers (defaults 3 failures / 500ms).
	breakerThreshold int
	BreakerCooldown  time.Duration
	// Logger, if set, is told the shards the router opened with.
	Logger *log.Logger
}

// node is one shard behind the router.
type node struct {
	id  int
	eng minidb.Engine
	bk  *circuit.Breaker
}

// viewDef remembers a registered count view so ViewCount can route it.
type viewDef struct {
	table   string
	groupBy string
}

// Router implements minidb.Engine and colseg.Runner over N shard engines.
// It drops in wherever a single dbnet client sits today: the DM and the
// cluster replicas program against minidb.Engine and never learn the
// catalog is partitioned.
type Router struct {
	mu    sync.RWMutex // guards nodes, views
	smap  *Map         // fixed at construction
	nodes map[int]*node
	views map[string]viewDef

	threshold int
	cooldown  time.Duration

	// Schema routing caches, snapshotted from the home shard at
	// construction. Schemas are immutable for the life of a cell, and
	// caching them means no routing decision ever calls into an engine —
	// which matters inside routerTx, where an open sub-transaction holds
	// its engine's write lock and a stray Schema() would self-deadlock.
	schemaMu sync.Mutex
	tables   []string
	schemas  map[string]*minidb.Schema
	colCache map[string]tableCols

	stats routerStats
}

// tableCols caches the column indexes routing needs per table.
type tableCols struct {
	keyIdx int // partition key column (-1 = homed table)
	pkIdx  int // primary key column index (-1 = none)
}

type routerStats struct {
	singleShard   atomic.Uint64
	scatter       atomic.Uint64
	fanoutCalls   atomic.Uint64
	shardFailures atomic.Uint64
	anaFanout     atomic.Uint64
}

// NewRouter builds a router over the given shard engines. Each engine
// must be the shard it is handed as: its identity row (identity.go) is
// checked, or written on first open, so swapped, missing or extra
// engines and a database laid out unsharded are refused.
func NewRouter(o Options) (*Router, error) {
	if len(o.Shards) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one shard")
	}
	r := &Router{
		nodes:     make(map[int]*node, len(o.Shards)),
		views:     make(map[string]viewDef),
		threshold: o.breakerThreshold,
		cooldown:  o.BreakerCooldown,
		colCache:  make(map[string]tableCols),
	}
	if r.threshold <= 0 {
		r.threshold = 3
	}
	if r.cooldown <= 0 {
		r.cooldown = 500 * time.Millisecond
	}
	ids := make([]int, 0, len(o.Shards))
	for id, eng := range o.Shards {
		if eng == nil {
			return nil, fmt.Errorf("shard: nil engine for shard %d", id)
		}
		if id < 0 || id > 1<<15 {
			return nil, fmt.Errorf("shard: shard id %d out of range", id)
		}
		r.nodes[id] = &node{id: id, eng: eng, bk: circuit.New(r.threshold, r.cooldown)}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	if err := checkIdentities(o.Shards, ids); err != nil {
		return nil, err
	}
	m := NewMap(ids)
	r.smap = m
	if o.Logger != nil {
		o.Logger.Printf("shard: routing over shards %v", m.Shards)
	}
	home := r.nodes[m.Home()].eng
	r.tables = append([]string(nil), home.TableNames()...)
	r.schemas = make(map[string]*minidb.Schema, len(r.tables))
	for _, name := range r.tables {
		sc := home.Schema(name)
		if sc == nil {
			return nil, fmt.Errorf("shard: home shard lists table %s but has no schema", name)
		}
		r.schemas[name] = sc
	}
	return r, nil
}

// Map returns the router's shard map (immutable).
func (r *Router) Map() *Map { return r.smap }

// snapshotRouting returns the current map and node set coherently.
func (r *Router) snapshotRouting() (*Map, map[int]*node) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.smap, r.nodes
}

// isShardFailure classifies an error as "this shard cannot serve" —
// transport loss or a propagated-deadline expiry, the same taxonomy the
// gateway uses for replicas. Overload refusals are deliberately NOT
// shard failures: a shard shedding load is alive and telling callers to
// back off, so the typed overload error (with its retry-after hint)
// passes through unwrapped, the breaker does not count it, and the
// scatter-gather layer never converts it into DBUnavailable.
func isShardFailure(err error) bool {
	return dbnet.IsUnavailable(err) || dbnet.IsDeadline(err)
}

// callShard runs one engine call under the shard's circuit breaker. An
// open breaker refuses immediately; transport failures trip it; every
// failure is wrapped in a typed ShardUnavailableError.
func callShard[T any](r *Router, n *node, f func(minidb.Engine) (T, error)) (T, error) {
	var zero T
	if !n.bk.TryAcquire() {
		r.stats.shardFailures.Add(1)
		return zero, &ShardUnavailableError{Shard: n.id, Err: ErrCircuitOpen}
	}
	v, err := f(n.eng)
	if err != nil && isShardFailure(err) {
		n.bk.Failure()
		r.stats.shardFailures.Add(1)
		return zero, &ShardUnavailableError{Shard: n.id, Err: err}
	}
	n.bk.Success()
	return v, err
}

// cols resolves (and caches) the routing column indexes for a table,
// using the home shard's schema; schemas are identical across shards.
func (r *Router) cols(table string) (tableCols, error) {
	r.schemaMu.Lock()
	defer r.schemaMu.Unlock()
	if tc, ok := r.colCache[table]; ok {
		return tc, nil
	}
	sc := r.schemas[table]
	if sc == nil {
		return tableCols{}, fmt.Errorf("shard: unknown table %s", table)
	}
	tc := tableCols{keyIdx: -1, pkIdx: -1}
	if keyCol, ok := KeyColumn(table); ok {
		tc.keyIdx = sc.ColIndex(keyCol)
		if tc.keyIdx < 0 {
			return tableCols{}, fmt.Errorf("shard: table %s lacks key column %s", table, keyCol)
		}
	}
	if sc.PrimaryKey != "" {
		tc.pkIdx = sc.ColIndex(sc.PrimaryKey)
	}
	r.colCache[table] = tc
	return tc, nil
}

// routeQuery decides whether q is single-shard: homed tables go to the
// home shard; a key-equality conjunct pins a sharded query to the slot
// owner; anything else scatters.
func routeQuery(m *Map, q minidb.Query) (int, bool) {
	keyCol, sharded := KeyColumn(q.Table)
	if !sharded {
		return m.Home(), true
	}
	for _, p := range q.Where {
		if p.Col == keyCol && p.Op == minidb.OpEq {
			return m.ReadOwner(SlotOf(p.Val)), true
		}
	}
	return 0, false
}

// --- minidb.Engine ---

// Query routes or scatters q. Rowids of sharded tables come back tagged
// with their shard, so later Get/Update/Delete on them route directly.
func (r *Router) Query(q minidb.Query) (*minidb.Result, error) {
	m, nodes := r.snapshotRouting()
	if sid, ok := routeQuery(m, q); ok {
		r.stats.singleShard.Add(1)
		res, err := callShard(r, nodes[sid], func(e minidb.Engine) (*minidb.Result, error) {
			return e.Query(q)
		})
		if err != nil {
			return nil, err
		}
		if _, sharded := KeyColumn(q.Table); sharded {
			for i, id := range res.RowIDs {
				res.RowIDs[i] = TagRowid(sid, id)
			}
		}
		return res, nil
	}
	r.stats.scatter.Add(1)
	return r.scatterQuery(m, nodes, q)
}

// Get fetches one row by routed rowid.
func (r *Router) Get(table string, rowid int64) (minidb.Row, error) {
	m, nodes := r.snapshotRouting()
	if _, sharded := KeyColumn(table); !sharded {
		return callShard(r, nodes[m.Home()], func(e minidb.Engine) (minidb.Row, error) {
			return e.Get(table, rowid)
		})
	}
	sid, local := UntagRowid(rowid)
	n := nodes[sid]
	if n == nil {
		return nil, fmt.Errorf("shard: rowid %d names unknown shard %d", rowid, sid)
	}
	return callShard(r, n, func(e minidb.Engine) (minidb.Row, error) {
		return e.Get(table, local)
	})
}

// keyOf extracts the partition key value from a row.
func (r *Router) keyOf(table string, row minidb.Row) (minidb.Value, error) {
	tc, err := r.cols(table)
	if err != nil {
		return minidb.Value{}, err
	}
	if tc.keyIdx < 0 || tc.keyIdx >= len(row) {
		return minidb.Value{}, fmt.Errorf("shard: row for %s lacks key column", table)
	}
	return row[tc.keyIdx], nil
}

// Insert routes by partition key to the slot's owner.
func (r *Router) Insert(table string, row minidb.Row) (int64, error) {
	m, nodes := r.snapshotRouting()
	if _, sharded := KeyColumn(table); !sharded {
		return callShard(r, nodes[m.Home()], func(e minidb.Engine) (int64, error) {
			return e.Insert(table, row)
		})
	}
	key, err := r.keyOf(table, row)
	if err != nil {
		return 0, err
	}
	owner := m.ReadOwner(SlotOf(key))
	rowid, err := callShard(r, nodes[owner], func(e minidb.Engine) (int64, error) {
		return e.Insert(table, row)
	})
	if err != nil {
		return 0, err
	}
	return TagRowid(owner, rowid), nil
}

// Update replaces the row at a routed rowid.
func (r *Router) Update(table string, rowid int64, row minidb.Row) error {
	m, nodes := r.snapshotRouting()
	if _, sharded := KeyColumn(table); !sharded {
		_, err := callShard(r, nodes[m.Home()], func(e minidb.Engine) (struct{}, error) {
			return struct{}{}, e.Update(table, rowid, row)
		})
		return err
	}
	sid, local := UntagRowid(rowid)
	n := nodes[sid]
	if n == nil {
		return fmt.Errorf("shard: rowid %d names unknown shard %d", rowid, sid)
	}
	_, err := callShard(r, n, func(e minidb.Engine) (struct{}, error) {
		return struct{}{}, e.Update(table, local, row)
	})
	return err
}

// Delete removes the row at a routed rowid.
func (r *Router) Delete(table string, rowid int64) error {
	m, nodes := r.snapshotRouting()
	if _, sharded := KeyColumn(table); !sharded {
		_, err := callShard(r, nodes[m.Home()], func(e minidb.Engine) (struct{}, error) {
			return struct{}{}, e.Delete(table, rowid)
		})
		return err
	}
	sid, local := UntagRowid(rowid)
	n := nodes[sid]
	if n == nil {
		return fmt.Errorf("shard: rowid %d names unknown shard %d", rowid, sid)
	}
	_, err := callShard(r, n, func(e minidb.Engine) (struct{}, error) {
		return struct{}{}, e.Delete(table, local)
	})
	return err
}

// Apply partitions a batch into per-shard sub-batches (each group-commits
// on its shard) and stitches the insert rowids back into batch order.
// Cross-shard batches are not atomic: shards commit in ascending id
// order, and a mid-sequence failure leaves earlier shards committed —
// the reason HEDC keeps multi-row invariants within one partition key.
func (r *Router) Apply(b *minidb.Batch) ([]int64, error) {
	m, nodes := r.snapshotRouting()
	type insertRef struct {
		shard int
		pos   int  // index into that shard's sub-batch inserts
		tag   bool // sharded-table insert: tag the rowid
	}
	subs := make(map[int]*minidb.Batch)
	order := make([]int, 0, 4)
	sub := func(id int) *minidb.Batch {
		sb := subs[id]
		if sb == nil {
			sb = &minidb.Batch{}
			subs[id] = sb
			order = append(order, id)
		}
		return sb
	}
	var refs []insertRef
	for i := 0; i < b.Len(); i++ {
		op := b.Op(i)
		_, sharded := KeyColumn(op.Table)
		switch op.Kind {
		case minidb.BatchInsert:
			sid := m.Home()
			if sharded {
				key, err := r.keyOf(op.Table, op.Row)
				if err != nil {
					return nil, err
				}
				sid = m.ReadOwner(SlotOf(key))
			}
			sb := sub(sid)
			refs = append(refs, insertRef{shard: sid, pos: sb.Inserts(), tag: sharded})
			sb.Insert(op.Table, op.Row)
		case minidb.BatchUpdate:
			if !sharded {
				sub(m.Home()).Update(op.Table, op.RowID, op.Row)
			} else {
				sid, local := UntagRowid(op.RowID)
				sub(sid).Update(op.Table, local, op.Row)
			}
		case minidb.BatchDelete:
			if !sharded {
				sub(m.Home()).Delete(op.Table, op.RowID)
			} else {
				sid, local := UntagRowid(op.RowID)
				sub(sid).Delete(op.Table, local)
			}
		}
	}
	sort.Ints(order)
	got := make(map[int][]int64, len(order))
	for _, sid := range order {
		n := nodes[sid]
		if n == nil {
			return nil, fmt.Errorf("shard: batch names unknown shard %d", sid)
		}
		ids, err := callShard(r, n, func(e minidb.Engine) ([]int64, error) {
			return e.Apply(subs[sid])
		})
		if err != nil {
			return nil, err
		}
		got[sid] = ids
	}
	out := make([]int64, len(refs))
	for i, ref := range refs {
		id := got[ref.shard][ref.pos]
		if ref.tag {
			id = TagRowid(ref.shard, id)
		}
		out[i] = id
	}
	return out, nil
}

// TableNames reports the cell's tables (snapshotted at construction;
// schemas are cell-wide and immutable).
func (r *Router) TableNames() []string {
	return append([]string(nil), r.tables...)
}

// TableLen sums live rows across owners.
func (r *Router) TableLen(name string) int {
	m, nodes := r.snapshotRouting()
	if _, sharded := KeyColumn(name); !sharded {
		return nodes[m.Home()].eng.TableLen(name)
	}
	total := 0
	for _, sid := range m.ReadShards() {
		n := nodes[sid].eng.TableLen(name)
		if n < 0 {
			return -1
		}
		total += n
	}
	return total
}

// TableEpoch folds (shard id, per-shard epoch) over the read set for
// sharded tables, so any shard's commit moves the value. It is not
// monotone across shards, only change-detecting: exactly what the DM's
// equality-checked cache keys need.
func (r *Router) TableEpoch(name string) uint64 {
	m, nodes := r.snapshotRouting()
	if _, sharded := KeyColumn(name); !sharded {
		return nodes[m.Home()].eng.TableEpoch(name)
	}
	shards := m.ReadShards()
	// (shard id, epoch, shard id, epoch, ...) for minidb.FoldEpochs.
	words := make([]uint64, 2*len(shards))
	var wg sync.WaitGroup
	for i, sid := range shards {
		i, n := i, nodes[sid]
		words[2*i] = uint64(sid)
		wg.Add(1)
		go func() {
			defer wg.Done()
			words[1+2*i] = n.eng.TableEpoch(name)
		}()
	}
	wg.Wait()
	return minidb.FoldEpochs(words...)
}

// QueryEpoch is the shard-aware cache key the DM prefers over TableEpoch
// (structurally discovered, satellite 5): a key-equality query depends
// only on its owning shard's epoch, so a commit on shard k stops
// invalidating every other shard's cached results.
func (r *Router) QueryEpoch(q minidb.Query) uint64 {
	m, nodes := r.snapshotRouting()
	if sid, ok := routeQuery(m, q); ok {
		if _, sharded := KeyColumn(q.Table); sharded {
			// Fold the owner id in, as TableEpoch does.
			return minidb.FoldEpochs(uint64(sid), nodes[sid].eng.TableEpoch(q.Table))
		}
		return nodes[m.Home()].eng.TableEpoch(q.Table)
	}
	return r.TableEpoch(q.Table)
}

// Schema returns the cell schema for a table (identical on every shard,
// snapshotted at construction).
func (r *Router) Schema(name string) *minidb.Schema {
	return r.schemas[name]
}

// Stats sums the engine counters across every registered shard.
func (r *Router) Stats() minidb.StatsSnapshot {
	r.mu.RLock()
	nodes := make([]*node, 0, len(r.nodes))
	for _, n := range r.nodes {
		nodes = append(nodes, n)
	}
	r.mu.RUnlock()
	var sum minidb.StatsSnapshot
	for _, n := range nodes {
		s := n.eng.Stats()
		sum.Queries += s.Queries
		sum.CountQueries += s.CountQueries
		sum.FullScans += s.FullScans
		sum.IndexEqScans += s.IndexEqScans
		sum.IndexRanges += s.IndexRanges
		sum.FullIndexScans += s.FullIndexScans
		sum.RowsScanned += s.RowsScanned
		sum.Inserts += s.Inserts
		sum.Updates += s.Updates
		sum.Deletes += s.Deletes
		sum.Commits += s.Commits
		sum.Rollbacks += s.Rollbacks
		sum.Checkpoints += s.Checkpoints
		sum.ViewRefreshes += s.ViewRefreshes
		sum.SnapshotPublishes += s.SnapshotPublishes
		sum.GroupCommits += s.GroupCommits
		sum.GroupedTxns += s.GroupedTxns
	}
	return sum
}

// CreateCountView registers the view on every shard and remembers the
// definition for ViewCount routing.
func (r *Router) CreateCountView(name, table, groupBy string) error {
	r.mu.Lock()
	r.views[name] = viewDef{table: table, groupBy: groupBy}
	nodes := make([]*node, 0, len(r.nodes))
	for _, n := range r.nodes {
		nodes = append(nodes, n)
	}
	r.mu.Unlock()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].id < nodes[j].id })
	for _, n := range nodes {
		if _, err := callShard(r, n, func(e minidb.Engine) (struct{}, error) {
			return struct{}{}, e.CreateCountView(name, table, groupBy)
		}); err != nil {
			return err
		}
	}
	return nil
}

// ViewCount sums a group's count across the read set.
func (r *Router) ViewCount(name string, key minidb.Value) (int, error) {
	r.mu.RLock()
	def, ok := r.views[name]
	r.mu.RUnlock()
	m, nodes := r.snapshotRouting()
	if !ok {
		// Unknown to this router (e.g. registered by a peer replica):
		// route to home for homed tables, else fail like the engine would.
		return callShard(r, nodes[m.Home()], func(e minidb.Engine) (int, error) {
			return e.ViewCount(name, key)
		})
	}
	if _, sharded := KeyColumn(def.table); !sharded {
		return callShard(r, nodes[m.Home()], func(e minidb.Engine) (int, error) {
			return e.ViewCount(name, key)
		})
	}
	total := 0
	for _, sid := range m.ReadShards() {
		c, err := callShard(r, nodes[sid], func(e minidb.Engine) (int, error) {
			return e.ViewCount(name, key)
		})
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// Close closes every shard engine, returning the first error.
func (r *Router) Close() error {
	r.mu.Lock()
	nodes := r.nodes
	r.nodes = map[int]*node{}
	r.mu.Unlock()
	var first error
	for _, n := range nodes {
		if err := n.eng.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ShardStatus is one shard's routing view for /stats.
type ShardStatus struct {
	ID      int
	Slots   int
	Circuit string
	Fails   int
	Opens   int64
}

// Status describes the router for the /stats page and tests.
type Status struct {
	Shards        []ShardStatus
	SingleShard   uint64
	Scatter       uint64
	FanoutCalls   uint64
	ShardFailures uint64
	AnaFanout     uint64
}

// Status returns a point-in-time routing snapshot.
func (r *Router) Status() Status {
	m, nodes := r.snapshotRouting()
	st := Status{
		SingleShard:   r.stats.singleShard.Load(),
		Scatter:       r.stats.scatter.Load(),
		FanoutCalls:   r.stats.fanoutCalls.Load(),
		ShardFailures: r.stats.shardFailures.Load(),
		AnaFanout:     r.stats.anaFanout.Load(),
	}
	slotsOf := make(map[int]int)
	for s := 0; s < NumSlots; s++ {
		slotsOf[m.Slots[s]]++
	}
	ids := make([]int, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		state, fails, opens := nodes[id].bk.Snapshot()
		st.Shards = append(st.Shards, ShardStatus{
			ID: id, Slots: slotsOf[id], Circuit: state, Fails: fails, Opens: opens,
		})
	}
	return st
}

var (
	_ minidb.Engine = (*Router)(nil)
	_ colseg.Runner = (*Router)(nil)
)
