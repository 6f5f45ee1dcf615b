package minidb

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Materialized views. HEDC's summary queries lean on them: "Many queries
// require summary data and use aggregates. Hence, in addition to indices,
// we use materialized views to improve response time" (§6.3). The engine
// supports grouped-count views: counts per distinct value of a group
// column, invalidated by writes to the base table and recomputed lazily on
// the next read.

// GroupCount is one row of a count view.
type GroupCount struct {
	Key   Value
	Count int
}

type matView struct {
	name    string
	table   string
	groupBy string

	mu     sync.Mutex // guards counts and the stats below
	stale  atomic.Bool
	counts []GroupCount

	refreshes int64
	hits      int64
}

// CreateCountView registers a materialized count view grouping the table
// by the given column. The first read computes it.
func (db *DB) CreateCountView(name, table, groupBy string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[table]
	if !ok {
		return fmt.Errorf("minidb: count view %s over unknown table %s", name, table)
	}
	if t.schema.ColIndex(groupBy) < 0 {
		return fmt.Errorf("minidb: count view %s over unknown column %s.%s", name, table, groupBy)
	}
	if db.views == nil {
		db.views = make(map[string]*matView)
	}
	if old, dup := db.views[name]; dup {
		// Idempotent re-registration: every replica of a shared database
		// issues the same CreateCountView on first use; only a genuinely
		// conflicting definition is an error.
		if old.table == table && old.groupBy == groupBy {
			return nil
		}
		return fmt.Errorf("minidb: duplicate view %s", name)
	}
	v := &matView{name: name, table: table, groupBy: groupBy}
	v.stale.Store(true)
	db.views[name] = v
	return nil
}

// invalidateViews marks views over the touched tables stale. Called with
// db.mu held (commit/rollback path); stale is atomic so no view lock is
// taken here — that would invert the v.mu -> db.mu order ViewCounts uses.
func (db *DB) invalidateViews(tables map[string]bool) {
	for _, v := range db.views {
		if tables[v.table] {
			v.stale.Store(true)
		}
	}
}

// ViewCounts returns the view's rows, refreshing first if a write
// invalidated it. Rows are sorted by key.
func (db *DB) ViewCounts(name string) ([]GroupCount, error) {
	db.mu.RLock()
	v := db.views[name]
	db.mu.RUnlock()
	if v == nil {
		return nil, fmt.Errorf("minidb: no such view %s", name)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.stale.Load() {
		if err := db.refreshView(v); err != nil {
			return nil, err
		}
	} else {
		v.hits++
	}
	out := make([]GroupCount, len(v.counts))
	copy(out, v.counts)
	return out, nil
}

// ViewCount returns one group's count (0 for absent keys).
func (db *DB) ViewCount(name string, key Value) (int, error) {
	counts, err := db.ViewCounts(name)
	if err != nil {
		return 0, err
	}
	i := sort.Search(len(counts), func(i int) bool {
		return Compare(counts[i].Key, key) >= 0
	})
	if i < len(counts) && Equal(counts[i].Key, key) {
		return counts[i].Count, nil
	}
	return 0, nil
}

// refreshView recomputes under the view lock (one full scan of the base
// table's published snapshot — no database lock needed). The stale flag
// clears before the snapshot is loaded: any commit that lands after the
// load re-marks the view and the next read recomputes — conservative,
// never stale-serving.
func (db *DB) refreshView(v *matView) error {
	v.stale.Store(false)
	t, ok := db.tables[v.table]
	if !ok {
		return fmt.Errorf("minidb: view %s base table %s gone", v.name, v.table)
	}
	ci := t.schema.ColIndex(v.groupBy)
	type kc struct {
		key   Value
		count int
	}
	groups := make(map[string]*kc)
	t.view.Load().scanAll(func(_ int64, r Row) bool {
		k := r[ci].String() // rendered key as map key; Value kept for output
		g := groups[k]
		if g == nil {
			g = &kc{key: r[ci]}
			groups[k] = g
		}
		g.count++
		return true
	})

	v.counts = v.counts[:0]
	for _, g := range groups {
		v.counts = append(v.counts, GroupCount{Key: g.key, Count: g.count})
	}
	sort.Slice(v.counts, func(i, j int) bool { return Compare(v.counts[i].Key, v.counts[j].Key) < 0 })
	v.refreshes++
	db.stats.ViewRefreshes.Add(1)
	return nil
}
