package dm

import (
	"fmt"
	"io"
	"log"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/colseg"
	"repro/internal/minidb"
	"repro/internal/schema"
)

func newAnalyticsDM(t *testing.T, analytics colseg.Runner) (*DM, *minidb.DB) {
	t.Helper()
	db, err := minidb.Open("", schema.AllSchemas()...)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Open(Options{
		Node:      "dm-ana",
		MetaDB:    db,
		Analytics: analytics,
		Logger:    log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, db
}

func insertTestEvents(t *testing.T, db *minidb.DB, n, base int) {
	t.Helper()
	b := &minidb.Batch{}
	for i := 0; i < n; i++ {
		id := base + i
		energy := minidb.F(3 + float64(id%100))
		if id%11 == 0 {
			energy = minidb.Null()
		}
		b.Insert(schema.TableEvents, minidb.Row{
			minidb.I(int64(id)), minidb.S(fmt.Sprintf("u%03d", id%7)),
			minidb.F(float64(id) / 2), energy, minidb.I(int64(id % 9)), minidb.I(0),
		})
	}
	if _, err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
}

// TestAnalyticsCacheByEpoch: repeated analytics queries are served from the
// epoch-keyed cache, and a commit to the events table invalidates them —
// satellite requirement "cache keys analytics results by (query, data
// epoch)".
func TestAnalyticsCacheByEpoch(t *testing.T) {
	d, db := newAnalyticsDM(t, nil)
	insertTestEvents(t, db, 500, 0)

	q := colseg.Query{Table: schema.TableEvents, Agg: colseg.AggStats, Col: "energy"}
	r1, err := d.Analytics(q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rows != 500 {
		t.Fatalf("rows = %d, want 500", r1.Rows)
	}
	r2, err := d.Analytics(q)
	if err != nil {
		t.Fatal(err)
	}
	if r2 != r1 {
		t.Fatal("second identical query did not hit the cache (different result pointer)")
	}
	if d.Stats().AnalyticsCacheHits.Load() != 1 {
		t.Fatalf("cache hits = %d, want 1", d.Stats().AnalyticsCacheHits.Load())
	}

	// A commit bumps the table epoch; the cached entry must not be served.
	insertTestEvents(t, db, 50, 500)
	r3, err := d.Analytics(q)
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r2 {
		t.Fatal("commit did not invalidate the analytics cache")
	}
	if r3.Rows != 550 {
		t.Fatalf("post-commit rows = %d, want 550", r3.Rows)
	}
	if d.Stats().AnalyticsCacheHits.Load() != 1 {
		t.Fatal("post-commit query counted as a cache hit")
	}
}

// TestAnalyticsServesStaleUnderBrownout: Analytics gets what cachedQuery
// has — with SetServeStale on, an aggregate whose entry a commit
// invalidated is answered commit-behind, without running.
func TestAnalyticsServesStaleUnderBrownout(t *testing.T) {
	d, db := newAnalyticsDM(t, nil)
	insertTestEvents(t, db, 500, 0)
	q := colseg.Query{Table: schema.TableEvents, Agg: colseg.AggStats, Col: "energy"}
	r1, err := d.Analytics(q)
	if err != nil {
		t.Fatal(err)
	}
	insertTestEvents(t, db, 50, 500)

	d.SetServeStale(true)
	ran0 := d.Stats().AnalyticsRowFall.Load()
	stale, err := d.Analytics(q)
	if err != nil {
		t.Fatal(err)
	}
	if stale != r1 || d.Stats().AnalyticsRowFall.Load() != ran0 {
		t.Fatalf("brownout ran the aggregate (rows %d) instead of serving the commit-behind result", stale.Rows)
	}
	if s := d.Stats().StaleServes.Load(); s != 1 {
		t.Fatalf("StaleServes = %d, want 1", s)
	}

	d.SetServeStale(false)
	if fresh, err := d.Analytics(q); err != nil || fresh.Rows != 550 {
		t.Fatalf("fresh aggregate after brownout: %v rows %d, want 550", err, fresh.Rows)
	}
}

// gatedRunner holds every run until open reports true, and counts them.
type gatedRunner struct {
	db   *minidb.DB
	open func() bool
	runs atomic.Int64
}

func (g *gatedRunner) RunAnalytics(q colseg.Query) (*colseg.Result, error) {
	g.runs.Add(1)
	for !g.open() {
		runtime.Gosched()
	}
	return colseg.RunRows(g.db, q)
}

// TestAnalyticsConcurrentMissesRunOnce: eight identical aggregates arriving
// while the first is still running share its one run.
func TestAnalyticsConcurrentMissesRunOnce(t *testing.T) {
	const callers = 8
	runner := &gatedRunner{}
	d, db := newAnalyticsDM(t, runner)
	insertTestEvents(t, db, 500, 0)
	runner.db = db
	// The run in flight finishes only once every caller is inside Analytics.
	runner.open = func() bool { return d.Stats().AnalyticsQueries.Load() == callers }

	q := colseg.Query{Table: schema.TableEvents, Agg: colseg.AggStats, Col: "energy"}
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res, err := d.Analytics(q); err != nil || res.Rows != 500 {
				t.Errorf("analytics: %v (%+v)", err, res)
			}
		}()
	}
	wg.Wait()
	if got := runner.runs.Load(); got != 1 {
		t.Fatalf("%d identical concurrent aggregates ran %d times, want 1", callers, got)
	}
	if got := d.Stats().AnalyticsCacheHits.Load(); got != callers-1 {
		t.Fatalf("AnalyticsCacheHits = %d, want %d", got, callers-1)
	}
}

// TestAnalyticsStoreRunner: with a segment store configured, the DM serves
// vectorized results that are bit-identical to the row path; without one it
// falls back to row-at-a-time and says so in the counters.
func TestAnalyticsStoreRunner(t *testing.T) {
	d, db := newAnalyticsDM(t, nil)
	insertTestEvents(t, db, 1000, 0)
	store, err := colseg.Open(colseg.Options{DB: db, SegmentRows: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	dv, _ := Open(Options{Node: "dm-vec", MetaDB: db, Analytics: store,
		Logger: log.New(io.Discard, "", 0)})

	q := colseg.Query{
		Table: schema.TableEvents, Agg: colseg.AggStats, Col: "energy",
		GroupBy: "detector",
		Where:   []minidb.Pred{{Col: "t", Op: minidb.OpGe, Val: minidb.F(100)}},
	}
	vec, err := dv.Analytics(q)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Stats.Vectorized {
		t.Fatalf("store-backed DM did not vectorize: %+v", vec.Stats)
	}
	row, err := d.Analytics(q)
	if err != nil {
		t.Fatal(err)
	}
	if row.Stats.Vectorized {
		t.Fatal("store-less DM claimed a vectorized run")
	}
	if vec.Rows != row.Rows || vec.Sum != row.Sum || len(vec.Groups) != len(row.Groups) {
		t.Fatalf("vectorized %+v != row %+v", vec, row)
	}
	if dv.Stats().AnalyticsVector.Load() != 1 || d.Stats().AnalyticsRowFall.Load() != 1 {
		t.Fatalf("counters: vec=%d rowfall=%d",
			dv.Stats().AnalyticsVector.Load(), d.Stats().AnalyticsRowFall.Load())
	}
	if dv.AnalyticsRunner() == nil || d.AnalyticsRunner() != nil {
		t.Fatal("AnalyticsRunner resolution wrong")
	}
}
