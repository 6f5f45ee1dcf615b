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
	// Map is the initial shard map. When nil, a persisted map is loaded
	// from Dir, or a fresh one laid out over the Shards ids.
	Map *Map
	// Dir persists the shard map through FS ("" = in-memory only).
	Dir string
	// FS is the VFS for map persistence (nil = the OS filesystem).
	FS minidb.VFS
	// BreakerThreshold/BreakerCooldown tune the per-shard circuit
	// breakers (defaults 3 failures / 500ms).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	Logger           *log.Logger
}

// node is one shard behind the router.
type node struct {
	id  int
	eng minidb.Engine
	bk  *circuit.Breaker
}

// viewDef remembers a registered count view so ViewCount can route and a
// newly added shard can have the view replayed onto it.
type viewDef struct {
	table   string
	groupBy string
}

// Router implements minidb.Engine and colseg.Runner over N shard engines.
// It drops in wherever a single dbnet client sits today: the DM and the
// cluster replicas program against minidb.Engine and never learn the
// catalog is partitioned.
type Router struct {
	mu          sync.RWMutex // guards smap, nodes, views, moveDeleted
	smap        *Map
	nodes       map[int]*node
	views       map[string]viewDef
	moveDeleted map[string]bool // "table|pk" deleted during a dual-write window

	fs        minidb.VFS
	dir       string
	threshold int
	cooldown  time.Duration
	logf      func(format string, args ...any)

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
	keyIdx int    // partition key column (-1 = homed table)
	pkCol  string // primary key column name ("" = none)
	pkIdx  int    // primary key column index (-1 = none)
}

type routerStats struct {
	singleShard   atomic.Uint64
	scatter       atomic.Uint64
	fanoutCalls   atomic.Uint64
	shardFailures atomic.Uint64
	mirrorWrites  atomic.Uint64
	countRewrites atomic.Uint64
	anaFanout     atomic.Uint64
	anaFallback   atomic.Uint64
	splits        atomic.Uint64
}

// NewRouter builds a router over the given shard engines. When Dir holds
// a persisted map it wins over Options.Map; a persisted map with an
// in-flight Move is rolled forward (recoverSplit) before the router
// serves traffic, so reopening after a crash mid-split always yields a
// consistent cell.
func NewRouter(o Options) (*Router, error) {
	if len(o.Shards) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one shard")
	}
	r := &Router{
		nodes:       make(map[int]*node, len(o.Shards)),
		views:       make(map[string]viewDef),
		moveDeleted: make(map[string]bool),
		fs:          o.FS,
		dir:         o.Dir,
		threshold:   o.BreakerThreshold,
		cooldown:    o.BreakerCooldown,
		colCache:    make(map[string]tableCols),
	}
	if r.fs == nil {
		r.fs = minidb.OSFS
	}
	if r.threshold <= 0 {
		r.threshold = 3
	}
	if r.cooldown <= 0 {
		r.cooldown = 500 * time.Millisecond
	}
	r.logf = func(string, ...any) {}
	if o.Logger != nil {
		r.logf = o.Logger.Printf
	}
	ids := make([]int, 0, len(o.Shards))
	for id, eng := range o.Shards {
		if eng == nil {
			return nil, fmt.Errorf("shard: nil engine for shard %d", id)
		}
		r.nodes[id] = &node{id: id, eng: eng, bk: circuit.New(r.threshold, r.cooldown)}
		ids = append(ids, id)
	}
	sort.Ints(ids)

	m := o.Map
	if r.dir != "" {
		loaded, err := LoadMap(r.fs, r.dir)
		if err != nil {
			return nil, err
		}
		if loaded != nil {
			m = loaded
		}
	}
	if m == nil {
		m = NewMap(ids)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	for _, id := range m.Shards {
		if r.nodes[id] == nil {
			return nil, fmt.Errorf("shard: map names shard %d but no engine was given", id)
		}
	}
	r.smap = m
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
	if r.dir != "" {
		if err := SaveMap(r.fs, r.dir, m); err != nil {
			return nil, err
		}
	}
	if m.Move != nil {
		r.logf("shard: recovering in-flight split %d->%d (phase %s)",
			m.Move.From, m.Move.To, m.Move.Phase)
		if err := r.recoverSplit(); err != nil {
			return nil, fmt.Errorf("shard: split recovery: %w", err)
		}
	}
	return r, nil
}

// Map returns the currently installed shard map (immutable).
func (r *Router) Map() *Map {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.smap
}

// install persists (when configured) and publishes a new map version.
func (r *Router) install(m *Map) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if r.dir != "" {
		if err := SaveMap(r.fs, r.dir, m); err != nil {
			return err
		}
	}
	r.mu.Lock()
	r.smap = m
	r.mu.Unlock()
	return nil
}

// AddShard registers a new shard engine (it owns no slots until a split
// assigns it some) and replays every registered count view onto it.
func (r *Router) AddShard(id int, eng minidb.Engine) error {
	if eng == nil {
		return fmt.Errorf("shard: nil engine for shard %d", id)
	}
	r.mu.Lock()
	if r.nodes[id] != nil {
		r.mu.Unlock()
		return fmt.Errorf("shard: shard %d already registered", id)
	}
	// Copy-on-write: snapshotRouting hands the node map out lock-free.
	next := make(map[int]*node, len(r.nodes)+1)
	for k, v := range r.nodes {
		next[k] = v
	}
	next[id] = &node{id: id, eng: eng, bk: circuit.New(r.threshold, r.cooldown)}
	r.nodes = next
	views := make(map[string]viewDef, len(r.views))
	for name, def := range r.views {
		views[name] = def
	}
	r.mu.Unlock()
	for name, def := range views {
		if err := eng.CreateCountView(name, def.table, def.groupBy); err != nil {
			return fmt.Errorf("shard: replay view %s on shard %d: %w", name, id, err)
		}
	}
	return nil
}

// nodeFor returns the registered node (nil if unknown).
func (r *Router) nodeFor(id int) *node {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.nodes[id]
}

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
		tc.pkCol = sc.PrimaryKey
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

// upsertByPK makes the row with the new row's primary key on shard n
// equal to row: update in place if present, insert otherwise. Used for
// dual-write mirrors and backfill, both of which must be idempotent.
func (r *Router) upsertByPK(n *node, table string, row minidb.Row) error {
	tc, err := r.cols(table)
	if err != nil {
		return err
	}
	if tc.pkIdx < 0 || tc.pkIdx >= len(row) {
		return fmt.Errorf("shard: table %s has no primary key to upsert by", table)
	}
	pk := row[tc.pkIdx]
	q := minidb.Query{Table: table,
		Where: []minidb.Pred{{Col: tc.pkCol, Op: minidb.OpEq, Val: pk}}}
	res, err := callShard(r, n, func(e minidb.Engine) (*minidb.Result, error) { return e.Query(q) })
	if err != nil {
		return err
	}
	if len(res.RowIDs) > 0 {
		_, err = callShard(r, n, func(e minidb.Engine) (struct{}, error) {
			return struct{}{}, e.Update(table, res.RowIDs[0], row)
		})
		return err
	}
	_, err = callShard(r, n, func(e minidb.Engine) (int64, error) { return e.Insert(table, row) })
	if err != nil && !isShardFailure(err) {
		// Unique-key race with a concurrent backfill copy of the same
		// row: re-resolve and update instead.
		res, qerr := callShard(r, n, func(e minidb.Engine) (*minidb.Result, error) { return e.Query(q) })
		if qerr == nil && len(res.RowIDs) > 0 {
			_, err = callShard(r, n, func(e minidb.Engine) (struct{}, error) {
				return struct{}{}, e.Update(table, res.RowIDs[0], row)
			})
		}
	}
	return err
}

// deleteByPK removes every row on shard n matching the primary key.
func (r *Router) deleteByPK(n *node, table string, pk minidb.Value) error {
	tc, err := r.cols(table)
	if err != nil {
		return err
	}
	q := minidb.Query{Table: table,
		Where: []minidb.Pred{{Col: tc.pkCol, Op: minidb.OpEq, Val: pk}}}
	res, err := callShard(r, n, func(e minidb.Engine) (*minidb.Result, error) { return e.Query(q) })
	if err != nil {
		return err
	}
	for _, id := range res.RowIDs {
		id := id
		if _, err := callShard(r, n, func(e minidb.Engine) (struct{}, error) {
			return struct{}{}, e.Delete(table, id)
		}); err != nil {
			return err
		}
	}
	return nil
}

// noteMoveDelete records a dual-write-window delete so a racing backfill
// cannot resurrect the row on the destination shard.
func (r *Router) noteMoveDelete(table string, pk minidb.Value) {
	r.mu.Lock()
	r.moveDeleted[table+"|"+pk.String()] = true
	r.mu.Unlock()
}

func (r *Router) wasMoveDeleted(table string, pk minidb.Value) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.moveDeleted[table+"|"+pk.String()]
}

// Insert routes by partition key; during a dual-write window the write
// lands on both the old and the new owner, and the insert is acked only
// when both copies exist.
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
	primary, mirror, dual := m.WriteOwners(SlotOf(key))
	rowid, err := callShard(r, nodes[primary], func(e minidb.Engine) (int64, error) {
		return e.Insert(table, row)
	})
	if err != nil {
		return 0, err
	}
	if dual {
		r.stats.mirrorWrites.Add(1)
		if err := r.upsertByPK(nodes[mirror], table, row); err != nil {
			return 0, fmt.Errorf("shard: dual-write mirror: %w", err)
		}
	}
	return TagRowid(primary, rowid), nil
}

// Update replaces the row at a routed rowid; a dual-write window repairs
// the destination copy by primary key.
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
	if _, err := callShard(r, n, func(e minidb.Engine) (struct{}, error) {
		return struct{}{}, e.Update(table, local, row)
	}); err != nil {
		return err
	}
	key, err := r.keyOf(table, row)
	if err != nil {
		return err
	}
	if primary, mirror, dual := m.WriteOwners(SlotOf(key)); dual && sid == primary {
		r.stats.mirrorWrites.Add(1)
		if err := r.upsertByPK(nodes[mirror], table, row); err != nil {
			return fmt.Errorf("shard: dual-write mirror: %w", err)
		}
	}
	return nil
}

// Delete removes the row at a routed rowid; a dual-write window deletes
// the destination copy too and records the key against resurrection.
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
	if m.Move == nil || m.Move.Phase != PhaseDualWrite {
		_, err := callShard(r, n, func(e minidb.Engine) (struct{}, error) {
			return struct{}{}, e.Delete(table, local)
		})
		return err
	}
	// Dual-write window: fetch the row first so the destination copy can
	// be removed by primary key.
	row, err := callShard(r, n, func(e minidb.Engine) (minidb.Row, error) {
		return e.Get(table, local)
	})
	if err != nil {
		return err
	}
	if row == nil {
		return fmt.Errorf("shard: no row %d in %s on shard %d", local, table, sid)
	}
	tc, err := r.cols(table)
	if err != nil {
		return err
	}
	key := row[tc.keyIdx]
	primary, mirror, dual := m.WriteOwners(SlotOf(key))
	if dual && sid == primary && tc.pkIdx >= 0 {
		r.noteMoveDelete(table, row[tc.pkIdx])
	}
	if _, err := callShard(r, n, func(e minidb.Engine) (struct{}, error) {
		return struct{}{}, e.Delete(table, local)
	}); err != nil {
		return err
	}
	if dual && sid == primary && tc.pkIdx >= 0 {
		r.stats.mirrorWrites.Add(1)
		if err := r.deleteByPK(nodes[mirror], table, row[tc.pkIdx]); err != nil {
			return fmt.Errorf("shard: dual-write mirror delete: %w", err)
		}
	}
	return nil
}

// Apply partitions a batch into per-shard sub-batches (each group-commits
// on its shard) and stitches the insert rowids back into batch order.
// Cross-shard batches are not atomic: shards commit in ascending id
// order, and a mid-sequence failure leaves earlier shards committed —
// the same contract as the split protocol, and the reason HEDC keeps
// multi-row invariants within one partition key. During a dual-write
// window the batch degrades to op-by-op routing so mirrors stay exact.
func (r *Router) Apply(b *minidb.Batch) ([]int64, error) {
	m, nodes := r.snapshotRouting()
	if m.Move != nil {
		return r.applyOps(b)
	}
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
				sid, _, _ = m.WriteOwners(SlotOf(key))
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

// applyOps replays a batch through the router's single-op path (used
// while a move is in flight, where mirrors need read-modify-write).
func (r *Router) applyOps(b *minidb.Batch) ([]int64, error) {
	var rowids []int64
	for i := 0; i < b.Len(); i++ {
		op := b.Op(i)
		switch op.Kind {
		case minidb.BatchInsert:
			id, err := r.Insert(op.Table, op.Row)
			if err != nil {
				return nil, err
			}
			rowids = append(rowids, id)
		case minidb.BatchUpdate:
			if err := r.Update(op.Table, op.RowID, op.Row); err != nil {
				return nil, err
			}
		case minidb.BatchDelete:
			if err := r.Delete(op.Table, op.RowID); err != nil {
				return nil, err
			}
		}
	}
	return rowids, nil
}

// TableNames reports the cell's tables (snapshotted at construction;
// schemas are cell-wide and immutable).
func (r *Router) TableNames() []string {
	return append([]string(nil), r.tables...)
}

// TableLen sums live rows across owners. While a move is in flight the
// counts come from an ownership-filtered scatter count so leftover copies
// are not double-counted.
func (r *Router) TableLen(name string) int {
	m, nodes := r.snapshotRouting()
	if _, sharded := KeyColumn(name); !sharded {
		return nodes[m.Home()].eng.TableLen(name)
	}
	if m.Move != nil {
		res, err := r.scatterQuery(m, nodes, minidb.Query{Table: name, Count: true})
		if err != nil {
			return -1
		}
		return res.Count
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

// TableEpoch folds (map version, shard id, per-shard epoch) over the
// read set for sharded tables, so any shard's commit — or a map change —
// moves the value. It is not monotone across shards, only change-
// detecting: exactly what the DM's equality-checked cache keys need.
func (r *Router) TableEpoch(name string) uint64 {
	m, nodes := r.snapshotRouting()
	if _, sharded := KeyColumn(name); !sharded {
		return nodes[m.Home()].eng.TableEpoch(name)
	}
	shards := m.ReadShards()
	// (version, shard id, epoch, shard id, epoch, ...) for minidb.FoldEpochs.
	words := make([]uint64, 1+2*len(shards))
	words[0] = m.Version
	var wg sync.WaitGroup
	for i, sid := range shards {
		i, n := i, nodes[sid]
		words[1+2*i] = uint64(sid)
		wg.Add(1)
		go func() {
			defer wg.Done()
			words[2+2*i] = n.eng.TableEpoch(name)
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
			// Fold the owner id in: equal epochs on different owners must
			// not collide after a map change re-homes the key.
			return minidb.FoldEpochs(m.Version, uint64(sid), nodes[sid].eng.TableEpoch(q.Table))
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
// definition for ViewCount routing and future AddShard replays.
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

// ViewCount sums a group's count across the read set. While a move is in
// flight the sum would see leftover copies, so it degrades to an
// ownership-filtered count query instead.
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
	if m.Move != nil {
		r.stats.countRewrites.Add(1)
		res, err := r.scatterQuery(m, nodes, minidb.Query{
			Table: def.table, Count: true,
			Where: []minidb.Pred{{Col: def.groupBy, Op: minidb.OpEq, Val: key}},
		})
		if err != nil {
			return 0, err
		}
		return res.Count, nil
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
	MapVersion    uint64
	Move          string
	Shards        []ShardStatus
	SingleShard   uint64
	Scatter       uint64
	FanoutCalls   uint64
	ShardFailures uint64
	MirrorWrites  uint64
	CountRewrites uint64
	AnaFanout     uint64
	AnaFallback   uint64
	Splits        uint64
}

// Status returns a point-in-time routing snapshot.
func (r *Router) Status() Status {
	m, nodes := r.snapshotRouting()
	st := Status{
		MapVersion:    m.Version,
		SingleShard:   r.stats.singleShard.Load(),
		Scatter:       r.stats.scatter.Load(),
		FanoutCalls:   r.stats.fanoutCalls.Load(),
		ShardFailures: r.stats.shardFailures.Load(),
		MirrorWrites:  r.stats.mirrorWrites.Load(),
		CountRewrites: r.stats.countRewrites.Load(),
		AnaFanout:     r.stats.anaFanout.Load(),
		AnaFallback:   r.stats.anaFallback.Load(),
		Splits:        r.stats.splits.Load(),
	}
	if m.Move != nil {
		st.Move = fmt.Sprintf("%d->%d (%d slots, %s)",
			m.Move.From, m.Move.To, len(m.Move.Slots), m.Move.Phase)
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
