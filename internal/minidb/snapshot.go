package minidb

import "fmt"

// TableSnap is a stable, lock-free handle on one committed table snapshot:
// the published immutable view plus the bookkeeping a derived read-optimized
// structure (internal/colseg) needs to know when it goes stale. Taking a
// snapshot is one atomic pointer load; holding one never blocks writers, and
// writers never mutate what it sees.
type TableSnap struct {
	table *Table
	view  *tableView
	epoch uint64
}

// TableSnap returns a snapshot of table name's currently published view.
func (db *DB) TableSnap(name string) (*TableSnap, error) {
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("minidb: no such table %s", name)
	}
	// Epoch is read before the view: publish stores the view first, then
	// bumps the epoch, so the label can only under-state the content —
	// a conservative tag for diagnostics and cache keys.
	epoch := t.epoch.Load()
	return &TableSnap{table: t, view: t.view.Load(), epoch: epoch}, nil
}

// Schema returns the snapshotted table's schema.
func (s *TableSnap) Schema() *Schema { return s.table.schema }

// Epoch returns the table's commit epoch at snapshot time (conservative:
// never ahead of the snapshot's contents).
func (s *TableSnap) Epoch() uint64 { return s.epoch }

// Rewrites returns the cumulative count of updates and deletes ever
// committed to the table as of this snapshot. A structure derived from heap
// prefix [0, n) of some snapshot remains exact on a later snapshot iff the
// rewrite counts are equal and the later heap is at least n long: inserts
// only append, so an unchanged count means rows [0, n) are bitwise the same.
func (s *TableSnap) Rewrites() uint64 { return s.view.rewrites }

// HeapLen returns the heap length (max rowid + 1) including tombstones.
func (s *TableSnap) HeapLen() int64 { return int64(len(s.view.rows)) }

// Scan visits rows with rowid in [from, to) in rowid order, skipping
// tombstones; fn returns false to stop. Rows are the snapshot's own storage
// and must not be mutated.
func (s *TableSnap) Scan(from, to int64, fn func(rowid int64, r Row) bool) {
	rows := s.view.rows
	if from < 0 {
		from = 0
	}
	if to > int64(len(rows)) {
		to = int64(len(rows))
	}
	for i := from; i < to; i++ {
		if rows[i] == nil {
			continue
		}
		if !fn(i, rows[i]) {
			return
		}
	}
}
