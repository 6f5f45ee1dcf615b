package dm

import (
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/minidb"
)

// Read-through query cache for the DM's semantic layer. HEDC's hot reads —
// catalog member counts, duplicate checks, dependency counts, member lists —
// repeat the same structured query many times between writes, and so do the
// catalog-wide aggregates of analytics.go. Both are cached in one
// epochcache.Cache under (canonical query fingerprint, table commit epoch):
// the engine bumps a table's epoch on every committed transaction touching
// it, so a commit anywhere in the process makes the next lookup a miss. The
// invalidation contract is the package comment of internal/epochcache.

const queryCacheEntries = 4096 // fingerprints resident at most

// queryEpocher is the shard-aware refinement of TableEpoch: a sharded
// engine (internal/shard.Router) scopes the epoch to the shards the query
// can actually touch, so a commit on shard k stops invalidating cached
// results that only depend on other shards. Discovered structurally so the
// DM keeps zero compile-time knowledge of the sharding layer.
type queryEpocher interface {
	QueryEpoch(minidb.Query) uint64
}

// epochOf is the commit epoch a cached answer to q depends on.
func epochOf(db minidb.Engine, q minidb.Query) uint64 {
	if qe, ok := db.(queryEpocher); ok {
		return qe.QueryEpoch(q)
	}
	return db.TableEpoch(q.Table)
}

// readThrough answers key from the query cache or runs load, once for
// concurrent identical misses. The caller read epoch BEFORE this call and
// load counts its own miss. Brownout rung 2: under sustained overload the
// ladder flips serveStale on, and a fresh-epoch miss falls back to whatever
// epoch the cache still holds — serving a commit-behind result costs
// staleness; querying a drowning database tier costs everyone's latency.
// Results are SHARED between callers: treat them as immutable.
func (d *DM) readThrough(key string, epoch uint64, hits *atomic.Int64, load func() (any, error)) (any, error) {
	if d.serveStale.Load() {
		if v, at, ok := d.cache.GetStale(key); ok && at != epoch {
			d.stats.StaleServes.Add(1)
			return v, nil
		}
	}
	return d.readFresh(key, epoch, hits, load)
}

// readFresh is readThrough without the stale fallback: the answer is
// always the one at epoch.
func (d *DM) readFresh(key string, epoch uint64, hits *atomic.Int64, load func() (any, error)) (any, error) {
	v, hit, err := d.cache.Do(key, epoch, func() (any, int64, error) {
		v, err := load()
		return v, 1, err
	})
	if hit {
		hits.Add(1)
	}
	return v, err
}

// cachedQuery runs q through the cache. Only deterministic queries belong
// here — anything keyed on sessions is fine because the visibility
// OR-clause is part of the fingerprint.
func (d *DM) cachedQuery(q minidb.Query) (*minidb.Result, error) {
	return d.queryThrough(q, d.readThrough)
}

// freshQuery is cachedQuery for the integrity checks inside writes: it
// never takes brownout rung 2's stale fallback, since a commit-behind
// count would let a write break the very constraint it checks (a second
// AddToCatalog inserting a duplicate member, a DeleteHLE passing the
// dependents check). Writes are not what the stale rung sheds.
func (d *DM) freshQuery(q minidb.Query) (*minidb.Result, error) {
	return d.queryThrough(q, d.readFresh)
}

func (d *DM) queryThrough(q minidb.Query, read func(string, uint64, *atomic.Int64, func() (any, error)) (any, error)) (*minidb.Result, error) {
	epoch := epochOf(d.routeDB(q.Table), q)
	v, err := read(fingerprint(q), epoch, &d.stats.QueryCacheHits, func() (any, error) {
		d.stats.QueryCacheMisses.Add(1)
		return d.query(q)
	})
	if err != nil {
		return nil, err
	}
	return v.(*minidb.Result), nil
}

// DataEpoch renders the commit epochs of a set of tables into one opaque
// tag, for callers that cache derived results outside the DM (the PL's
// analysis memoization). The tag changes iff some listed table's epoch
// changes: per-table epochs are rendered individually (never folded), so
// distinct states cannot collide. Read the tag BEFORE computing the result
// being cached (the epochcache contract).
func (d *DM) DataEpoch(tables ...string) string {
	var b strings.Builder
	for i, table := range tables {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.FormatUint(epochOf(d.routeDB(table), minidb.Query{Table: table}), 10))
	}
	return b.String()
}

// fingerprint renders a Query into a canonical string. Every field that
// affects the result set participates; values are length-prefixed so no
// string content can collide with the structure.
func fingerprint(q minidb.Query) string {
	var b strings.Builder
	b.Grow(64)
	fpStr(&b, q.Table)
	b.WriteByte('|')
	for _, p := range q.Where {
		fpPred(&b, p)
	}
	b.WriteByte('|')
	for _, p := range q.Or {
		fpPred(&b, p)
	}
	b.WriteByte('|')
	for _, o := range q.OrderBy {
		fpStr(&b, o.Col)
		if o.Desc {
			b.WriteByte('-')
		} else {
			b.WriteByte('+')
		}
	}
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(q.Offset))
	b.WriteByte(',')
	b.WriteString(strconv.Itoa(q.Limit))
	b.WriteByte('|')
	for _, c := range q.Project {
		fpStr(&b, c)
	}
	if q.Count {
		b.WriteString("|#")
	}
	return b.String()
}

func fpPred(b *strings.Builder, p minidb.Pred) {
	fpStr(b, p.Col)
	b.WriteString(p.Op.String())
	fpVal(b, p.Val)
	if p.Op == minidb.OpBetween {
		b.WriteByte('~')
		fpVal(b, p.Hi)
	}
	b.WriteByte(';')
}

func fpVal(b *strings.Builder, v minidb.Value) {
	b.WriteString(strconv.Itoa(int(v.T)))
	b.WriteByte(':')
	fpStr(b, v.String())
}

func fpStr(b *strings.Builder, s string) {
	b.WriteString(strconv.Itoa(len(s)))
	b.WriteByte(':')
	b.WriteString(s)
}
