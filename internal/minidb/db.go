package minidb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
)

const (
	snapshotName = "snapshot.mdb"
	walName      = "wal.log"
	// snapshotMagic (v2) prefixes a txn watermark: redo-log transactions at
	// or below it are already inside the snapshot and are skipped on
	// replay. That makes recovery idempotent when a crash lands between the
	// checkpoint rename and the old log's removal — without the watermark,
	// replaying the stale log would re-apply rows the snapshot already
	// holds and recovery would fail on "insert over live rowid".
	// A snapshot with any other magic, the watermark-less "MDBSNAP1"
	// included, is refused.
	snapshotMagic = "MDBSNAP2"
)

// DB is a collection of tables with transactional mutation, a redo log, and
// snapshot checkpoints. Reads are lock-free: they execute against each
// table's immutable published snapshot (an atomic pointer swap installs a
// new one at commit). A transaction holds the writer lock from Begin to
// Commit/Rollback, so writers serialize against each other while readers
// observe either the pre- or post-commit snapshot — serializable isolation
// with no dirty reads and no reader/writer blocking (the single-writer
// discipline HEDC's DM enforces around entities, §4.4).
type DB struct {
	mu      sync.RWMutex // writer-writer ordering; checkpoint/close exclusion
	tables  map[string]*Table
	order   []string // table creation order, for deterministic snapshots
	dir     string   // "" means memory-only
	fs      VFS      // filesystem seam; OSFS in production, fault.FS in torture tests
	wal     *walWriter
	nextTxn uint64
	// replayFloor is the snapshot's txn watermark during Open: sealed log
	// transactions at or below it are already in the snapshot.
	replayFloor uint64
	views       map[string]*matView

	// group is the group-commit queue (batch.go): concurrent Apply calls
	// elect a leader that seals many batches under one fsync.
	group groupCommitter

	stats Stats
}

// Stats counts engine activity. All fields are atomically maintained;
// read them through DB.Stats.
type Stats struct {
	Queries           atomic.Int64
	CountQueries      atomic.Int64
	FullScans         atomic.Int64
	IndexEqScans      atomic.Int64
	IndexRanges       atomic.Int64
	FullIndexScans    atomic.Int64
	RowsScanned       atomic.Int64
	Inserts           atomic.Int64
	Updates           atomic.Int64
	Deletes           atomic.Int64
	Commits           atomic.Int64
	Rollbacks         atomic.Int64
	Checkpoints       atomic.Int64
	ViewRefreshes     atomic.Int64
	SnapshotPublishes atomic.Int64 // per-table snapshot views installed by commits
	GroupCommits      atomic.Int64 // fsync groups sealed by Apply leaders
	GroupedTxns       atomic.Int64 // batches committed inside those groups
}

// StatsSnapshot is a point-in-time copy of Stats.
type StatsSnapshot struct {
	Queries           int64
	CountQueries      int64
	FullScans         int64
	IndexEqScans      int64
	IndexRanges       int64
	FullIndexScans    int64
	RowsScanned       int64
	Inserts           int64
	Updates           int64
	Deletes           int64
	Commits           int64
	Rollbacks         int64
	Checkpoints       int64
	ViewRefreshes     int64
	SnapshotPublishes int64
	GroupCommits      int64
	GroupedTxns       int64
}

// Stats returns a point-in-time copy of the engine counters.
func (db *DB) Stats() StatsSnapshot {
	return StatsSnapshot{
		Queries:           db.stats.Queries.Load(),
		CountQueries:      db.stats.CountQueries.Load(),
		FullScans:         db.stats.FullScans.Load(),
		IndexEqScans:      db.stats.IndexEqScans.Load(),
		IndexRanges:       db.stats.IndexRanges.Load(),
		FullIndexScans:    db.stats.FullIndexScans.Load(),
		RowsScanned:       db.stats.RowsScanned.Load(),
		Inserts:           db.stats.Inserts.Load(),
		Updates:           db.stats.Updates.Load(),
		Deletes:           db.stats.Deletes.Load(),
		Commits:           db.stats.Commits.Load(),
		Rollbacks:         db.stats.Rollbacks.Load(),
		Checkpoints:       db.stats.Checkpoints.Load(),
		ViewRefreshes:     db.stats.ViewRefreshes.Load(),
		SnapshotPublishes: db.stats.SnapshotPublishes.Load(),
		GroupCommits:      db.stats.GroupCommits.Load(),
		GroupedTxns:       db.stats.GroupedTxns.Load(),
	}
}

// Open creates or reopens a database. dir == "" gives a memory-only
// database. Schemas are authoritative and come from code (HEDC splits them
// into a generic and a domain-specific part; see internal/schema): tables
// present on disk but absent from schemas are dropped, new tables start
// empty. On reopen, the snapshot is loaded and the redo log replayed, so
// all committed transactions survive a crash.
func Open(dir string, schemas ...*Schema) (*DB, error) {
	return OpenVFS(OSFS, dir, schemas...)
}

// OpenVFS is Open with an explicit filesystem. Crash-recovery tests pass a
// fault-injecting VFS (internal/fault) so every create/write/sync/rename
// the engine issues becomes an enumerable crash site.
func OpenVFS(fs VFS, dir string, schemas ...*Schema) (*DB, error) {
	db := &DB{tables: make(map[string]*Table), dir: dir, fs: fs}
	db.group.cond = sync.NewCond(&db.group.mu)
	for _, s := range schemas {
		if _, dup := db.tables[s.Name]; dup {
			return nil, fmt.Errorf("minidb: duplicate table %s", s.Name)
		}
		t, err := newTable(s)
		if err != nil {
			return nil, err
		}
		db.tables[s.Name] = t
		db.order = append(db.order, s.Name)
	}
	if dir == "" {
		return db, nil
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := db.loadSnapshot(filepath.Join(dir, snapshotName)); err != nil {
		return nil, err
	}
	goodSize, err := db.replayWal(filepath.Join(dir, walName))
	if err != nil {
		return nil, err
	}
	// Appending resumes at the end of the last valid record; openWalWriter
	// truncates any torn tail first so fresh records never land after
	// garbage (which the next recovery would flag as mid-log corruption).
	w, err := openWalWriter(fs, filepath.Join(dir, walName), goodSize)
	if err != nil {
		return nil, err
	}
	db.wal = w
	return db, nil
}

// Close flushes and closes the redo log.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.wal == nil {
		return nil
	}
	err := db.wal.close()
	db.wal = nil
	return err
}

// TableNames returns table names in creation order.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, len(db.order))
	copy(out, db.order)
	return out
}

// TableLen returns the live row count of a table (-1 if unknown table).
// Like Query, it reads the published snapshot without locking.
func (db *DB) TableLen(name string) int {
	t, ok := db.tables[name]
	if !ok {
		return -1
	}
	return t.Len()
}

// TableEpoch returns the table's commit epoch (0 if unknown table). The
// epoch advances exactly once per committed transaction touching the table,
// so a cache keyed by (query, epoch) is invalidated exactly when the visible
// contents can have changed.
func (db *DB) TableEpoch(name string) uint64 {
	t, ok := db.tables[name]
	if !ok {
		return 0
	}
	return t.Epoch()
}

// Schema returns the schema of the named table, or nil.
func (db *DB) Schema(name string) *Schema {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil
	}
	return t.schema
}

// Query plans and executes q against the table's published snapshot. It
// takes no lock and never blocks, even while a transaction is in flight.
func (db *DB) Query(q Query) (*Result, error) {
	t, ok := db.tables[q.Table]
	if !ok {
		return nil, fmt.Errorf("minidb: no such table %s", q.Table)
	}
	return db.execAndCount(t, t.view.Load(), q)
}

// execAndCount runs q against view v of t and maintains the plan counters.
func (db *DB) execAndCount(t *Table, v *tableView, q Query) (*Result, error) {
	res, err := execQuery(t, v, q)
	if err != nil {
		return nil, err
	}
	db.stats.Queries.Add(1)
	if q.Count {
		db.stats.CountQueries.Add(1)
	}
	switch res.Plan.Kind {
	case PlanFullScan:
		db.stats.FullScans.Add(1)
	case PlanIndexEq:
		db.stats.IndexEqScans.Add(1)
	case PlanIndexRange:
		db.stats.IndexRanges.Add(1)
	case PlanFullIndexScan:
		db.stats.FullIndexScans.Add(1)
	}
	db.stats.RowsScanned.Add(int64(res.Plan.RowsScanned))
	return res, nil
}

// Get returns a copy of the row at rowid in the named table (nil if absent).
// Like Query, it reads the published snapshot without locking.
func (db *DB) Get(table string, rowid int64) (Row, error) {
	t, ok := db.tables[table]
	if !ok {
		return nil, fmt.Errorf("minidb: no such table %s", table)
	}
	r := t.view.Load().get(rowid)
	if r == nil {
		return nil, nil
	}
	return r.Clone(), nil
}

// Insert runs a single-statement transaction inserting one row. It routes
// through Apply, so concurrent single-row writers share group commits (one
// fsync covers many of them) instead of each paying its own.
func (db *DB) Insert(table string, r Row) (int64, error) {
	var b Batch
	b.Insert(table, r)
	rowids, err := db.Apply(&b)
	if err != nil {
		return 0, err
	}
	return rowids[0], nil
}

// Update runs a single-statement transaction replacing one row.
func (db *DB) Update(table string, rowid int64, r Row) error {
	var b Batch
	b.Update(table, rowid, r)
	_, err := db.Apply(&b)
	return err
}

// Delete runs a single-statement transaction deleting one row.
func (db *DB) Delete(table string, rowid int64) error {
	var b Batch
	b.Delete(table, rowid)
	_, err := db.Apply(&b)
	return err
}

// Checkpoint writes a snapshot of all tables and truncates the redo log.
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.dir == "" {
		return nil
	}
	tmp := filepath.Join(db.dir, snapshotName+".tmp")
	if err := db.writeSnapshot(tmp); err != nil {
		return err
	}
	if err := db.fs.Rename(tmp, filepath.Join(db.dir, snapshotName)); err != nil {
		return err
	}
	// The snapshot now covers everything up to its watermark; start a fresh
	// log. A crash anywhere in here is safe: replay skips sealed
	// transactions at or below the watermark, so the stale log is inert.
	// From the rename on, db.wal is nil through any failure exit: the next
	// Commit reopens the log lazily (ensureWal) rather than writing through
	// a closed handle — a transient failure here (out of disk space, say)
	// must not wedge the database, and it must never silently skip logging.
	if db.wal != nil {
		old := db.wal
		db.wal = nil
		if err := old.close(); err != nil {
			return err
		}
	}
	if err := db.fs.Remove(filepath.Join(db.dir, walName)); err != nil && !errors.Is(err, fsErrNotExist) {
		return err
	}
	w, err := openWalWriter(db.fs, filepath.Join(db.dir, walName), 0)
	if err != nil {
		return err
	}
	db.wal = w
	db.stats.Checkpoints.Add(1)
	return nil
}

// writeSnapshot streams every table's published view straight through one
// buffered writer — no staging of the full database image in memory, so
// checkpointing a large database allocates O(bufio buffer), not O(data).
func (db *DB) writeSnapshot(path string) error {
	f, err := db.fs.Create(path, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	bw.WriteString(snapshotMagic)
	// Txn watermark: everything at or below nextTxn is either published in
	// the views serialized below or was rolled back — never replay it.
	putUvarint(bw, db.nextTxn)
	putUvarint(bw, uint64(len(db.order)))
	for _, name := range db.order {
		v := db.tables[name].view.Load()
		putString(bw, name)
		putUvarint(bw, uint64(len(v.rows)))
		putUvarint(bw, uint64(v.live))
		v.scanAll(func(rowid int64, r Row) bool {
			putVarint(bw, rowid)
			putUvarint(bw, uint64(len(r)))
			for _, val := range r {
				encodeValue(bw, val)
			}
			return true
		})
	}
	// bufio errors are sticky: one Flush check covers every write above.
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadSnapshot and replayWal run during Open, before any concurrent access
// exists, so they mutate each table's initial view in place (the freshly
// created view owns its heap and trees — recovery pays no COW cost).
func (db *DB) loadSnapshot(path string) error {
	data, err := db.fs.ReadFile(path)
	if errors.Is(err, fsErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if !bytes.HasPrefix(data, []byte(snapshotMagic)) {
		return fmt.Errorf("minidb: %s is not a snapshot", path)
	}
	r := bytes.NewReader(data[len(snapshotMagic):])
	wm, err := binary.ReadUvarint(r)
	if err != nil {
		return err
	}
	db.replayFloor = wm
	if wm > db.nextTxn {
		db.nextTxn = wm
	}
	nTables, err := binary.ReadUvarint(r)
	if err != nil {
		return err
	}
	for ti := uint64(0); ti < nTables; ti++ {
		name, err := getString(r)
		if err != nil {
			return err
		}
		heapLen, err := binary.ReadUvarint(r)
		if err != nil {
			return err
		}
		live, err := binary.ReadUvarint(r)
		if err != nil {
			return err
		}
		t := db.tables[name] // nil means table was dropped from the schema
		var w *tableView
		if t != nil {
			w = t.view.Load()
		}
		for li := uint64(0); li < live; li++ {
			rowid, err := binary.ReadVarint(r)
			if err != nil {
				return err
			}
			nCols, err := binary.ReadUvarint(r)
			if err != nil {
				return err
			}
			row := make(Row, nCols)
			for ci := range row {
				if row[ci], err = decodeValue(r); err != nil {
					return err
				}
			}
			if t == nil {
				continue
			}
			row, err = t.padForSchema(row)
			if err != nil {
				return fmt.Errorf("minidb: snapshot load: %w", err)
			}
			if err := t.insertAt(w, rowid, row); err != nil {
				return fmt.Errorf("minidb: snapshot load: %w", err)
			}
		}
		if t != nil {
			for uint64(len(w.rows)) < heapLen {
				w.rows = append(w.rows, nil) // preserve rowid allocation
			}
		}
	}
	return nil
}

// replayWal applies the sealed transactions of the redo log and returns the
// byte offset of the last valid record — the point new appends resume from.
func (db *DB) replayWal(path string) (int64, error) {
	ops, goodSize, err := readWal(db.fs, path)
	if err != nil {
		return 0, err
	}
	pending := make(map[uint64][]walOp)
	for _, op := range ops {
		if op.txn > db.nextTxn {
			db.nextTxn = op.txn
		}
		if op.txn <= db.replayFloor {
			continue // already inside the snapshot (stale pre-checkpoint log)
		}
		if op.kind != walCommit {
			pending[op.txn] = append(pending[op.txn], op)
			continue
		}
		for _, p := range pending[op.txn] {
			t, ok := db.tables[p.table]
			if !ok {
				continue // table dropped from the schema
			}
			w := t.view.Load()
			row := p.row
			if p.kind != walDelete {
				if row, err = t.padForSchema(row); err != nil {
					return 0, fmt.Errorf("minidb: wal replay: %w", err)
				}
			}
			switch p.kind {
			case walInsert:
				err = t.insertAt(w, p.rowid, row)
			case walUpdate:
				err = t.update(w, p.rowid, row)
			case walDelete:
				err = t.delete(w, p.rowid)
			}
			if err != nil {
				return 0, fmt.Errorf("minidb: wal replay: %w", err)
			}
		}
		delete(pending, op.txn)
	}
	return goodSize, nil
}
