// Package dm implements HEDC's Data Management component: the middle-tier
// layer that "controls and optimizes access to the data" and "hides
// specific details like file formats and the specific data type required by
// analysis programs behind interfaces" (§2.3).
//
// The DM is layered (§5.2):
//
//   - The I/O layer abstracts storage type and location: database adapters
//     translate structured query objects into engine plans, the file
//     adapter talks to archives, dynamic name construction (§4.3) resolves
//     item ids to files/URLs, and vertical partitioning routes tables to
//     different database instances.
//   - The semantic layer enforces access rules and referential consistency
//     and implements entity services: HLE/ANA/catalog creation, analysis
//     import, publication, deletion with dependency checks.
//   - The process layer combines both into workflows: raw-data loading
//     (with event detection, catalog generation and wavelet view
//     construction), archive relocation with compensation, purging.
//
// Sessions and call redirection (local or remote DM execution over HTTP)
// complete the picture (§5.3–5.4).
package dm

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/colseg"
	"repro/internal/epochcache"
	"repro/internal/minidb"
	"repro/internal/schema"
)

// Options configures a DM node.
type Options struct {
	Node string // node name, e.g. "dm-0"
	// MetaDB holds the generic part of the schema (and domain, if DomainDB
	// nil). Any minidb.Engine works: an in-process *minidb.DB, or a
	// dbnet.Client when this node is a replica sharing a networked
	// database with its peers (Figure 5's scaling axis).
	MetaDB   minidb.Engine
	DomainDB minidb.Engine // optional vertical partition for the domain tables
	// DefaultArchive receives newly stored files.
	DefaultArchive string
	// URLRoot is the [root] element for URL name construction (§4.3).
	URLRoot string
	// Analytics serves catalog-wide aggregate queries from columnar
	// segments (internal/colseg). When nil, the DM resolves a runner
	// itself: the domain engine if it implements colseg.Runner, else a
	// row-at-a-time fallback over the routed database.
	Analytics colseg.Runner
	// Logger receives operational messages (nil = standard logger).
	Logger *log.Logger
}

// Stats counts DM activity; experiments and tests read it.
type Stats struct {
	Requests    atomic.Int64 // semantic-layer entry points served
	Queries     atomic.Int64 // database queries issued
	Edits       atomic.Int64 // database mutations issued
	FilesStored atomic.Int64
	FilesRead   atomic.Int64 // real archive reads only: a decoded-item cache hit reads no file
	BytesStored atomic.Int64
	BytesRead   atomic.Int64 // bytes of those archive reads
	NameLookups atomic.Int64
	CacheHits   atomic.Int64 // session-cache hits
	CacheMisses atomic.Int64
	// Epoch-keyed query cache (cache.go). Distinct from the session cache
	// above: these count semantic-layer reads served without touching the
	// database engine.
	QueryCacheHits   atomic.Int64
	QueryCacheMisses atomic.Int64
	// Decoded-item cache (itemcache.go): raw units and wavelet views served
	// to RawPhotons/ViewsInRange without an archive read or a decode, the
	// decodes it could not avoid, entries dropped for room, and the decoded
	// bytes resident now.
	UnitCacheHits      atomic.Int64
	UnitCacheMisses    atomic.Int64
	UnitCacheEvictions atomic.Int64
	UnitCacheBytes     atomic.Int64
	// Analytics path (analytics.go): vectorized runs served by a columnar
	// runner vs row-at-a-time fallbacks, plus cache hits by epoch.
	AnalyticsQueries   atomic.Int64
	AnalyticsVector    atomic.Int64
	AnalyticsRowFall   atomic.Int64
	AnalyticsCacheHits atomic.Int64
	// Time-travel reads (asof.go): sessions pinned to a journal commit.
	AsOfOpens      atomic.Int64
	AsOfReads      atomic.Int64
	AccessDenied   atomic.Int64
	RedirectsIn    atomic.Int64 // calls served on behalf of a remote caller
	EventsDetected atomic.Int64
	UnitsLoaded    atomic.Int64
}

// DM is one Data Management node.
type DM struct {
	node     string
	meta     minidb.Engine
	domain   minidb.Engine
	archives *archive.Set
	defArch  string
	urlRoot  string
	logger   *log.Logger

	sessions  *sessionCache
	analytics colseg.Runner // nil = resolve per call (engine or row fallback)

	cache     *epochcache.Cache[uint64, any]   // query + analytics results (cache.go)
	decoded   *epochcache.Cache[struct{}, any] // decoded archive items (itemcache.go)
	decodedMu sync.Mutex                       // orders the UnitCache* mirror of decoded.Stats

	seqMu  sync.Mutex
	seqHi  map[string]int64 // next unpersisted id per prefix
	seqMax map[string]int64 // persisted ceiling per prefix

	viewOnce sync.Once
	viewErr  error

	stats Stats
}

// Open wires a DM node. The databases must already contain the schema
// tables (see internal/schema).
func Open(opts Options) (*DM, error) {
	if opts.MetaDB == nil {
		return nil, fmt.Errorf("dm: MetaDB is required")
	}
	if opts.Node == "" {
		opts.Node = "dm-0"
	}
	if opts.Logger == nil {
		opts.Logger = log.Default()
	}
	d := &DM{
		node:      opts.Node,
		meta:      opts.MetaDB,
		domain:    opts.DomainDB,
		archives:  archive.NewSet(),
		defArch:   opts.DefaultArchive,
		urlRoot:   opts.URLRoot,
		logger:    opts.Logger,
		sessions:  newSessionCache(),
		cache:     epochcache.New[uint64, any](queryCacheEntries),
		decoded:   epochcache.New[struct{}, any](decodedBudget),
		analytics: opts.Analytics,
		seqHi:     make(map[string]int64),
		seqMax:    make(map[string]int64),
	}
	if d.domain == nil {
		d.domain = d.meta
	}
	if err := d.loadSequences(); err != nil {
		return nil, err
	}
	return d, nil
}

// Stats exposes the counter block.
func (d *DM) Stats() *Stats { return &d.stats }

// QueryCacheStats snapshots the query/analytics cache's occupancy and
// eviction counters (hits and misses are in Stats, split by caller).
func (d *DM) QueryCacheStats() epochcache.Stats { return d.cache.Stats() }

// Archives exposes the archive registry (process-layer tools use it).
func (d *DM) Archives() *archive.Set { return d.archives }

// MetaDB and DomainDB expose the underlying engines for diagnostics.
func (d *DM) MetaDB() minidb.Engine   { return d.meta }
func (d *DM) DomainDB() minidb.Engine { return d.domain }

// routeDB implements vertical partitioning: domain tables go to the domain
// database instance, everything else to the meta instance (§5.2: "data
// requests for certain parts of a database schema are routed to a
// different DBMS").
func (d *DM) routeDB(table string) minidb.Engine {
	switch table {
	case schema.TableHLE, schema.TableANA, schema.TableCatalog,
		schema.TableCatalogMembers, schema.TableRawUnits,
		schema.TableViews, schema.TableVersions, schema.TableEvents:
		return d.domain
	default:
		return d.meta
	}
}

// query runs a read through the routed database's query pool, counting it.
func (d *DM) query(q minidb.Query) (*minidb.Result, error) {
	db := d.routeDB(q.Table)
	res, err := db.Query(q)
	if err == nil {
		d.stats.Queries.Add(1)
	}
	return res, err
}

// exec runs fn inside a transaction on the routed database, counting each
// mutation it performs via the returned edit counter.
func (d *DM) exec(table string, fn func(tx minidb.Tx) error) error {
	db := d.routeDB(table)
	tx := db.BeginTx()
	if err := fn(tx); err != nil {
		tx.Rollback()
		return err
	}
	return tx.Commit()
}

// nextID hands out "prefix-n" identifiers using a hi-lo allocator: the
// persisted ceiling in admin_config moves in blocks, so restarts never
// reuse ids and allocation rarely touches the database. Block claims are
// transactional: replicas sharing one database serialize on the writer
// lock and each walks away with a disjoint block.
func (d *DM) nextID(prefix string) (string, error) {
	ids, err := d.nextIDs(prefix, 1)
	if err != nil {
		return "", err
	}
	return ids[0], nil
}

// nextIDs allocates n identifiers at once — the bulk form the ingest
// pipeline uses. The local window is drained first; if it runs dry, ONE
// transactional claim covers the remainder (at least a full block), so a
// loader asking for hundreds of ids pays one database round trip instead of
// one per block. Ids within one call need not be contiguous across the
// claim boundary; they are merely unique.
func (d *DM) nextIDs(prefix string, n int) ([]string, error) {
	const block = 64
	if n <= 0 {
		return nil, nil
	}
	d.seqMu.Lock()
	defer d.seqMu.Unlock()
	out := make([]string, 0, n)
	for d.seqHi[prefix] < d.seqMax[prefix] && len(out) < n {
		out = append(out, fmt.Sprintf("%s-%08d", prefix, d.seqHi[prefix]))
		d.seqHi[prefix]++
	}
	if rem := n - len(out); rem > 0 {
		claim := int64(rem)
		if claim < block {
			claim = block
		}
		newMax, err := d.claimSequenceBlock(prefix, claim)
		if err != nil {
			return nil, err
		}
		d.seqMax[prefix] = newMax
		start := newMax - claim
		if start < d.seqHi[prefix] {
			start = d.seqHi[prefix] // never step back into handed-out ids
		}
		for i := int64(0); i < int64(rem); i++ {
			out = append(out, fmt.Sprintf("%s-%08d", prefix, start+i))
		}
		d.seqHi[prefix] = start + int64(rem)
	}
	return out, nil
}

func seqKey(prefix string) string { return "seq." + prefix }

func (d *DM) loadSequences() error {
	res, err := d.meta.Query(minidb.Query{
		Table: schema.TableConfig,
		Where: []minidb.Pred{{Col: "section", Op: minidb.OpEq, Val: minidb.S("sequence")}},
	})
	if err != nil {
		return err
	}
	for _, row := range res.Rows {
		key, val := row[0].Str(), row[2].Str()
		var prefix string
		var max int64
		if _, err := fmt.Sscanf(key, "seq.%s", &prefix); err != nil {
			continue
		}
		if _, err := fmt.Sscanf(val, "%d", &max); err != nil {
			continue
		}
		d.seqHi[prefix] = max // resume past the persisted ceiling
		d.seqMax[prefix] = max
	}
	return nil
}

// claimSequenceBlock advances the persisted ceiling by block inside one
// transaction and returns the new ceiling. The re-read under the writer
// lock is what makes concurrent claims from different nodes disjoint.
func (d *DM) claimSequenceBlock(prefix string, block int64) (int64, error) {
	key := seqKey(prefix)
	var newMax int64
	tx := d.meta.BeginTx()
	res, err := tx.Query(minidb.Query{
		Table: schema.TableConfig,
		Where: []minidb.Pred{{Col: "key", Op: minidb.OpEq, Val: minidb.S(key)}},
	})
	if err != nil {
		tx.Rollback()
		return 0, err
	}
	var persisted int64
	if len(res.Rows) > 0 {
		fmt.Sscanf(res.Rows[0][2].Str(), "%d", &persisted)
	}
	newMax = persisted + block
	row := minidb.Row{
		minidb.S(key), minidb.S("sequence"), minidb.S(fmt.Sprintf("%d", newMax)), minidb.Null(),
	}
	if len(res.RowIDs) > 0 {
		err = tx.Update(schema.TableConfig, res.RowIDs[0], row)
	} else {
		_, err = tx.Insert(schema.TableConfig, row)
	}
	if err != nil {
		tx.Rollback()
		return 0, err
	}
	if err := tx.Commit(); err != nil {
		return 0, err
	}
	return newMax, nil
}

// logOp writes one operational message to the process logger.
func (d *DM) logOp(level, component, format string, args ...interface{}) {
	d.logger.Printf("[%s] %s %s: %s", d.node, level, component, fmt.Sprintf(format, args...))
}

// recordLineage appends a lineage row for an entity or item (§3.1 lineage
// tracking). Lineage lives in the generic part of the schema (meta
// database), so it is written outside domain-entity transactions.
func (d *DM) recordLineage(itemID, parent, operation string, version int64, detail string) error {
	id, err := d.nextID("lin")
	if err != nil {
		return err
	}
	var n int64
	fmt.Sscanf(id, "lin-%d", &n)
	parentVal := minidb.Null()
	if parent != "" {
		parentVal = minidb.S(parent)
	}
	detailVal := minidb.Null()
	if detail != "" {
		detailVal = minidb.S(detail)
	}
	_, err = d.meta.Insert(schema.TableLineage, minidb.Row{
		minidb.I(n), minidb.S(itemID), parentVal, minidb.S(operation),
		minidb.I(version), minidb.F(nowSecs()), detailVal,
	})
	if err == nil {
		d.stats.Edits.Add(1)
	}
	return err
}

func nowSecs() float64 { return float64(time.Now().UnixNano()) / 1e9 }
