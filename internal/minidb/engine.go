package minidb

// Engine abstracts "a database" from the components that program against
// one. HEDC's middle tier scales by replication against a single shared
// DBMS (Figure 5): every replica's DM runs the same code whether the
// metadata database lives in-process (*DB) or on another machine behind
// the dbnet wire protocol (dbnet.Client). The interface is exactly the
// surface the DM layer consumes — structured queries, single-row access,
// transactions, epochs for the query cache, and the count views of §6.3.
type Engine interface {
	// Query plans and executes a structured query.
	Query(q Query) (*Result, error)
	// Get returns a copy of the row at rowid (nil if absent).
	Get(table string, rowid int64) (Row, error)
	// Insert/Update/Delete run single-statement transactions.
	Insert(table string, r Row) (int64, error)
	Update(table string, rowid int64, r Row) error
	Delete(table string, rowid int64) error
	// Apply commits a batch of mutations as one transaction, returning the
	// rowids of its inserts in order. Concurrent Apply calls group-commit:
	// the local engine seals many batches under one fsync, the remote one
	// ships the whole batch as a single wire round trip.
	Apply(b *Batch) ([]int64, error)
	// BeginTx starts a read-write transaction. Writers serialize on the
	// engine's single writer lock — local and remote callers alike.
	BeginTx() Tx
	// TableNames returns table names in creation order.
	TableNames() []string
	// TableLen returns the live row count (-1 if unknown table).
	TableLen(name string) int
	// TableEpoch returns the table's commit epoch (0 if unknown). Epoch
	// reads must be fresh: the DM's epoch-keyed query cache is only
	// stale-free if a commit anywhere is visible to every replica's next
	// epoch read.
	TableEpoch(name string) uint64
	// Schema returns the named table's schema, or nil. Schemas are fixed
	// at runtime, so remote engines may cache them.
	Schema(name string) *Schema
	// Stats returns a point-in-time copy of the engine counters.
	Stats() StatsSnapshot
	// CreateCountView registers a grouped-count materialized view (§6.3).
	// Re-registering an identical definition is a no-op, so every replica
	// may issue it against the shared database.
	CreateCountView(name, table, groupBy string) error
	// ViewCount returns one group's count (0 for absent keys).
	ViewCount(name string, key Value) (int, error)
	// Close releases the engine: flushes the redo log (local) or closes
	// the wire connections (remote).
	Close() error
}

// Tx is the transaction surface of an Engine. *Txn implements it for the
// in-process engine; a remote transaction holds one wire connection (and
// the remote writer lock) from BeginTx to Commit/Rollback.
type Tx interface {
	Insert(table string, r Row) (int64, error)
	Update(table string, rowid int64, r Row) error
	Delete(table string, rowid int64) error
	Query(q Query) (*Result, error)
	Get(table string, rowid int64) (Row, error)
	Commit() error
	Rollback()
}

var (
	_ Engine = (*DB)(nil)
	_ Tx     = (*Txn)(nil)
)

// BeginTx starts a transaction behind the Engine interface. It is Begin
// with an interface return type — existing callers of Begin keep the
// concrete *Txn.
func (db *DB) BeginTx() Tx { return db.Begin() }

// FoldEpochs hashes a sequence of epochs (and whatever tags the caller
// interleaves with them: map versions, shard ids) into one change-detecting
// value, for cache keys that depend on several commit epochs at once. It is
// order-sensitive and not monotone. A fresh table sits at epoch 0 until its
// first commit, so 0 is a legitimate input; the fold itself never returns 0
// (callers may reserve it for "unknown").
func FoldEpochs(words ...uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range words {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	if h == 0 {
		h = 1
	}
	return h
}
