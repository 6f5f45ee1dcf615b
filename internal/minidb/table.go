package minidb

import (
	"fmt"
	"sync/atomic"
)

// Table is heap storage plus index maintenance, published as an immutable
// snapshot. rowids are positions in the heap slice; deleted rows leave nil
// tombstones.
//
// Reads load the published view through an atomic pointer and never take a
// lock: the view's rows, live count and index trees are immutable once
// published. Writers (serialized by DB.mu) build a private copy-on-write
// working view and publish it at commit, so a reader either sees all of a
// transaction or none of it — the single-writer discipline HEDC's DM
// enforces around entities (§4.4), now without blocking readers.
type Table struct {
	schema *Schema
	colIdx map[string]int // column name -> position, built once at open
	view   atomic.Pointer[tableView]
	epoch  atomic.Uint64 // bumped on every published (committed) change
}

// tableView is one immutable snapshot of a table: the heap, the live count
// and the index trees. Working copies (unpublished, exclusively owned by
// one transaction) are the only views ever mutated.
type tableView struct {
	rows    []Row
	live    int
	indexes map[string]*tableIndex // column name -> index
	// rewrites counts updates and deletes ever applied to this table's
	// lineage of views. Inserts only append (rowids are heap positions), so
	// a derived read-optimized structure covering heap prefix [0, n) stays
	// valid exactly while rewrites is unchanged and the heap has only
	// grown. The counter lives on the immutable view — not on Table — so a
	// reader observes (contents, rewrites) atomically with one view.Load().
	rewrites uint64
	// ownRows marks the rows backing array as exclusively owned by this
	// (unpublished) view. Appends into shared spare capacity are safe —
	// readers never look past their view's length — but in-place writes
	// (update/delete tombstones) first copy the slice.
	ownRows bool
}

type tableIndex struct {
	col    int
	unique bool
	tree   *btree
}

func newTable(schema *Schema) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	t := &Table{schema: schema, colIdx: make(map[string]int, len(schema.Columns))}
	for i, c := range schema.Columns {
		t.colIdx[c.Name] = i
	}
	v := &tableView{indexes: make(map[string]*tableIndex), ownRows: true}
	if schema.PrimaryKey != "" {
		v.indexes[schema.PrimaryKey] = &tableIndex{
			col: t.colIdx[schema.PrimaryKey], unique: true, tree: newBtree(),
		}
	}
	for _, col := range schema.Indexes {
		if _, dup := v.indexes[col]; dup {
			continue // primary key already indexed
		}
		v.indexes[col] = &tableIndex{col: t.colIdx[col], unique: false, tree: newBtree()}
	}
	t.view.Store(v)
	return t, nil
}

// Len returns the number of live rows in the published snapshot.
func (t *Table) Len() int { return t.view.Load().live }

// Epoch returns the table's commit epoch: it advances exactly once per
// committed transaction that touched the table, so equal epochs guarantee
// identical visible contents (the DM's cache invalidation key).
func (t *Table) Epoch() uint64 { return t.epoch.Load() }

// beginWrite returns a working copy of the published view: the heap slice is
// shared (copy-on-write), index trees are cloned (path-copying), the index
// map is fresh. The copy is exclusively owned by the calling transaction.
func (t *Table) beginWrite() *tableView {
	return t.beginWriteFrom(t.view.Load())
}

// beginWriteFrom is beginWrite starting from an arbitrary base view. Group
// commit chains batches through it: batch k+1's working view starts from
// batch k's unpublished result. The copy never owns the base's heap slice
// (ownRows stays false even if the base owned it), so a batch that later
// fails validation cannot have scribbled over its predecessor in place.
func (t *Table) beginWriteFrom(v *tableView) *tableView {
	w := &tableView{
		rows:     v.rows,
		live:     v.live,
		rewrites: v.rewrites,
		indexes:  make(map[string]*tableIndex, len(v.indexes)),
	}
	for name, idx := range v.indexes {
		w.indexes[name] = &tableIndex{col: idx.col, unique: idx.unique, tree: idx.tree.clone()}
	}
	return w
}

// publish installs w as the table's visible snapshot and bumps the epoch.
// Callers must hold the database writer lock.
func (t *Table) publish(w *tableView) {
	t.view.Store(w)
	t.epoch.Add(1)
}

// get returns the row at rowid or nil.
func (v *tableView) get(rowid int64) Row {
	if rowid < 0 || rowid >= int64(len(v.rows)) {
		return nil
	}
	return v.rows[rowid]
}

// scanAll visits every live row in rowid order; fn returns false to stop.
func (v *tableView) scanAll(fn func(rowid int64, r Row) bool) {
	for i, r := range v.rows {
		if r == nil {
			continue
		}
		if !fn(int64(i), r) {
			return
		}
	}
}

// ensureOwnRows makes the heap slice safe for in-place writes by copying it
// once per working view if the backing array is still shared.
func (v *tableView) ensureOwnRows() {
	if v.ownRows {
		return
	}
	rows := make([]Row, len(v.rows))
	copy(rows, v.rows)
	v.rows = rows
	v.ownRows = true
}

// pkLookup returns the rowid holding primary-key value pk in view v, or -1.
func (t *Table) pkLookup(v *tableView, pk Value) int64 {
	if t.schema.PrimaryKey == "" {
		return -1
	}
	idx := v.indexes[t.schema.PrimaryKey]
	found := int64(-1)
	idx.tree.scanRange(&pk, &pk, func(e entry) bool {
		found = e.rowid
		return false
	})
	return found
}

// insert appends the row to working view w, maintaining indexes; it returns
// the new rowid.
func (t *Table) insert(w *tableView, r Row) (int64, error) {
	if err := t.schema.CheckRow(r); err != nil {
		return 0, err
	}
	if pk := t.schema.PrimaryKey; pk != "" {
		v := r[t.colIdx[pk]]
		if t.pkLookup(w, v) >= 0 {
			return 0, fmt.Errorf("minidb: table %s duplicate primary key %s", t.schema.Name, v)
		}
	}
	rowid := int64(len(w.rows))
	if !w.ownRows && len(w.rows) == cap(w.rows) {
		w.ownRows = true // append below reallocates into a fresh array
	}
	w.rows = append(w.rows, r.Clone())
	w.live++
	for _, idx := range w.indexes {
		idx.tree.insert(entry{key: r[idx.col], rowid: rowid})
	}
	return rowid, nil
}

// insertAt replays an insert at a specific rowid (recovery path only).
func (t *Table) insertAt(w *tableView, rowid int64, r Row) error {
	if err := t.schema.CheckRow(r); err != nil {
		return err
	}
	for int64(len(w.rows)) <= rowid {
		if !w.ownRows && len(w.rows) == cap(w.rows) {
			w.ownRows = true
		}
		w.rows = append(w.rows, nil)
	}
	if w.rows[rowid] != nil {
		return fmt.Errorf("minidb: table %s replay insert over live rowid %d", t.schema.Name, rowid)
	}
	w.ensureOwnRows()
	w.rows[rowid] = r.Clone()
	w.live++
	for _, idx := range w.indexes {
		idx.tree.insert(entry{key: r[idx.col], rowid: rowid})
	}
	return nil
}

// update replaces the row at rowid in working view w, maintaining indexes.
func (t *Table) update(w *tableView, rowid int64, r Row) error {
	old := w.get(rowid)
	if old == nil {
		return fmt.Errorf("minidb: table %s update of missing rowid %d", t.schema.Name, rowid)
	}
	if err := t.schema.CheckRow(r); err != nil {
		return err
	}
	if pk := t.schema.PrimaryKey; pk != "" {
		ci := t.colIdx[pk]
		if !Equal(old[ci], r[ci]) {
			if t.pkLookup(w, r[ci]) >= 0 {
				return fmt.Errorf("minidb: table %s duplicate primary key %s", t.schema.Name, r[ci])
			}
		}
	}
	for _, idx := range w.indexes {
		if !Equal(old[idx.col], r[idx.col]) {
			idx.tree.delete(entry{key: old[idx.col], rowid: rowid})
			idx.tree.insert(entry{key: r[idx.col], rowid: rowid})
		}
	}
	w.ensureOwnRows()
	w.rows[rowid] = r.Clone()
	w.rewrites++
	return nil
}

// delete removes the row at rowid from working view w, maintaining indexes.
func (t *Table) delete(w *tableView, rowid int64) error {
	old := w.get(rowid)
	if old == nil {
		return fmt.Errorf("minidb: table %s delete of missing rowid %d", t.schema.Name, rowid)
	}
	for _, idx := range w.indexes {
		idx.tree.delete(entry{key: old[idx.col], rowid: rowid})
	}
	w.ensureOwnRows()
	w.rows[rowid] = nil
	w.live--
	w.rewrites++
	return nil
}

// padForSchema widens a stored row written under an older schema version:
// columns appended since then must be nullable and are filled with NULL.
// This is the §3.1 evolution path — "new raw data formats and new data
// sources ... some of which require a new database schema" — without
// rewriting the store. Narrowing (dropped columns) needs an explicit
// migration and is rejected.
func (t *Table) padForSchema(r Row) (Row, error) {
	switch {
	case len(r) == len(t.schema.Columns):
		return r, nil
	case len(r) > len(t.schema.Columns):
		return nil, fmt.Errorf("minidb: table %s stored row has %d values, schema has %d (column removal needs a migration)",
			t.schema.Name, len(r), len(t.schema.Columns))
	}
	for i := len(r); i < len(t.schema.Columns); i++ {
		if !t.schema.Columns[i].Nullable {
			return nil, fmt.Errorf("minidb: table %s new column %s is not nullable; cannot evolve stored rows",
				t.schema.Name, t.schema.Columns[i].Name)
		}
	}
	padded := make(Row, len(t.schema.Columns))
	copy(padded, r)
	return padded, nil
}
