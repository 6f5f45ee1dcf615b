package shard

import (
	"fmt"
	"sort"

	"repro/internal/minidb"
)

// routerTx is a lazily-begun multi-shard transaction: the first write or
// read touching a shard begins that shard's sub-transaction, and Commit
// commits the sub-transactions in ascending shard order. Cross-shard
// commits are not atomic — a failure mid-sequence leaves earlier shards
// committed and rolls back the rest — so HEDC keeps multi-row invariants
// within one partition key (every DM exec flow does: catalog edits pin
// to the member's hle_id, sequence claims live whole on the home shard).
// Reads inside the transaction — single-shard and scatter alike — are
// served through the per-shard sub-transactions, so they observe the
// transaction's own uncommitted writes.
type routerTx struct {
	r     *Router
	m     *Map
	nodes map[int]*node
	txs   map[int]minidb.Tx
	done  bool
}

// BeginTx pins the current map and node set for the transaction's life.
func (r *Router) BeginTx() minidb.Tx {
	m, nodes := r.snapshotRouting()
	return &routerTx{r: r, m: m, nodes: nodes, txs: make(map[int]minidb.Tx)}
}

// tx returns (beginning if needed) the sub-transaction for a shard.
func (t *routerTx) tx(sid int) (minidb.Tx, error) {
	if tx, ok := t.txs[sid]; ok {
		return tx, nil
	}
	n := t.nodes[sid]
	if n == nil {
		return nil, fmt.Errorf("shard: tx names unknown shard %d", sid)
	}
	if !n.bk.TryAcquire() {
		t.r.stats.shardFailures.Add(1)
		return nil, &ShardUnavailableError{Shard: sid, Err: ErrCircuitOpen}
	}
	// The breaker slot is answered at Commit/Rollback via the call's
	// outcome; BeginTx itself does no wire I/O on the local engine and
	// pins a pooled connection on the remote one.
	n.bk.Success()
	tx := n.eng.BeginTx()
	t.txs[sid] = tx
	return tx, nil
}

func (t *routerTx) Insert(table string, row minidb.Row) (int64, error) {
	if _, sharded := KeyColumn(table); !sharded {
		tx, err := t.tx(t.m.Home())
		if err != nil {
			return 0, err
		}
		return tx.Insert(table, row)
	}
	key, err := t.r.keyOf(table, row)
	if err != nil {
		return 0, err
	}
	owner := t.m.ReadOwner(SlotOf(key))
	tx, err := t.tx(owner)
	if err != nil {
		return 0, err
	}
	rowid, err := tx.Insert(table, row)
	if err != nil {
		return 0, err
	}
	return TagRowid(owner, rowid), nil
}

func (t *routerTx) Update(table string, rowid int64, row minidb.Row) error {
	if _, sharded := KeyColumn(table); !sharded {
		tx, err := t.tx(t.m.Home())
		if err != nil {
			return err
		}
		return tx.Update(table, rowid, row)
	}
	sid, local := UntagRowid(rowid)
	tx, err := t.tx(sid)
	if err != nil {
		return err
	}
	return tx.Update(table, local, row)
}

func (t *routerTx) Delete(table string, rowid int64) error {
	if _, sharded := KeyColumn(table); !sharded {
		tx, err := t.tx(t.m.Home())
		if err != nil {
			return err
		}
		return tx.Delete(table, rowid)
	}
	sid, local := UntagRowid(rowid)
	tx, err := t.tx(sid)
	if err != nil {
		return err
	}
	return tx.Delete(table, local)
}

func (t *routerTx) Query(q minidb.Query) (*minidb.Result, error) {
	if sid, ok := routeQuery(t.m, q); ok {
		tx, err := t.tx(sid)
		if err != nil {
			return nil, err
		}
		res, err := tx.Query(q)
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
	// Cross-shard read inside a transaction: every shard's reply comes
	// through that shard's sub-transaction (begun on demand), both for
	// read-your-writes and because an open sub-transaction holds its
	// engine's write lock — reading the engine directly would deadlock.
	t.r.stats.scatter.Add(1)
	return t.scatterQuery(q)
}

// scatterQuery is the in-transaction scatter: sequential fan-out over
// the pinned map's read set, each shard served by its sub-transaction.
func (t *routerTx) scatterQuery(q minidb.Query) (*minidb.Result, error) {
	tc, err := t.r.cols(q.Table)
	if err != nil {
		return nil, err
	}
	shards := t.m.ReadShards()
	sub, sumCounts := prepSub(q)
	replies := make([]shardReply, len(shards))
	for i, sid := range shards {
		tx, err := t.tx(sid)
		if err != nil {
			return nil, err
		}
		t.r.stats.fanoutCalls.Add(1)
		res, err := tx.Query(sub)
		if err != nil {
			if isShardFailure(err) {
				t.r.stats.shardFailures.Add(1)
				return nil, &ShardUnavailableError{Shard: sid, Err: err}
			}
			return nil, err
		}
		replies[i] = shardReply{shard: sid, res: res}
	}
	if sumCounts {
		return sumCountReplies(replies), nil
	}
	return t.r.mergeReplies(t.m, q, tc, replies)
}

func (t *routerTx) Get(table string, rowid int64) (minidb.Row, error) {
	if _, sharded := KeyColumn(table); !sharded {
		tx, err := t.tx(t.m.Home())
		if err != nil {
			return nil, err
		}
		return tx.Get(table, rowid)
	}
	sid, local := UntagRowid(rowid)
	tx, err := t.tx(sid)
	if err != nil {
		return nil, err
	}
	return tx.Get(table, local)
}

// Commit commits the sub-transactions in ascending shard order; the
// first failure rolls back the remaining uncommitted shards and reports.
func (t *routerTx) Commit() error {
	if t.done {
		return fmt.Errorf("shard: tx already finished")
	}
	t.done = true
	ids := make([]int, 0, len(t.txs))
	for id := range t.txs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for i, id := range ids {
		if err := t.txs[id].Commit(); err != nil {
			for _, rest := range ids[i+1:] {
				t.txs[rest].Rollback()
			}
			if isShardFailure(err) {
				t.r.stats.shardFailures.Add(1)
				return &ShardUnavailableError{Shard: id, Err: err}
			}
			return err
		}
	}
	return nil
}

func (t *routerTx) Rollback() {
	if t.done {
		return
	}
	t.done = true
	for _, tx := range t.txs {
		tx.Rollback()
	}
}

var _ minidb.Tx = (*routerTx)(nil)
