package dm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/minidb"
	"repro/internal/schema"
	"repro/internal/telemetry"
)

// TestCountCacheHitAndInvalidation is the acceptance path for the
// epoch-keyed cache: two identical catalog count queries with no
// intervening commit cost exactly one engine query; a commit to the table
// makes the next identical count a miss that returns the fresh result.
func TestCountCacheHitAndInvalidation(t *testing.T) {
	d := newTestDM(t)
	alice := newScientist(t, d, "alice")

	for i := 0; i < 3; i++ {
		if _, err := d.CreateHLE(alice, &schema.HLE{
			KindHint: "flare", TStop: 1, Version: 1, CalibVersion: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	f := HLEFilter{Kind: "flare"}

	q0 := d.meta.Stats().Queries
	n, err := d.CountHLEs(alice, f)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("first count = %d, want 3", n)
	}
	n, err = d.CountHLEs(alice, f)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("second count = %d, want 3", n)
	}
	if got := d.meta.Stats().Queries - q0; got != 1 {
		t.Fatalf("two identical counts issued %d engine queries, want 1", got)
	}
	if hits := d.stats.QueryCacheHits.Load(); hits != 1 {
		t.Fatalf("QueryCacheHits = %d, want 1", hits)
	}

	// A commit to the HLE table bumps its epoch: next count misses and
	// sees the new row.
	if _, err := d.CreateHLE(alice, &schema.HLE{
		KindHint: "flare", TStop: 2, Version: 1, CalibVersion: 1,
	}); err != nil {
		t.Fatal(err)
	}
	misses0 := d.stats.QueryCacheMisses.Load()
	n, err = d.CountHLEs(alice, f)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("post-commit count = %d, want 4 (stale cache served)", n)
	}
	if d.stats.QueryCacheMisses.Load() != misses0+1 {
		t.Fatal("post-commit count should be a cache miss")
	}
}

// TestStaleServeUnderBrownout: with SetServeStale on, a count whose
// epoch-fresh entry was invalidated by a commit is answered from the
// stale entry — commit-behind, engine untouched — and turning the knob
// back off restores epoch-strict behaviour.
func TestStaleServeUnderBrownout(t *testing.T) {
	d := newTestDM(t)
	alice := newScientist(t, d, "alice")

	for i := 0; i < 3; i++ {
		if _, err := d.CreateHLE(alice, &schema.HLE{
			KindHint: "flare", TStop: float64(i + 1), Version: 1, CalibVersion: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	f := HLEFilter{Kind: "flare"}
	if n, err := d.CountHLEs(alice, f); err != nil || n != 3 {
		t.Fatalf("warm count = %d (%v), want 3", n, err)
	}

	// A commit bumps the epoch: the cached count of 3 is now stale.
	if _, err := d.CreateHLE(alice, &schema.HLE{
		KindHint: "flare", TStop: 9, Version: 1, CalibVersion: 1,
	}); err != nil {
		t.Fatal(err)
	}

	d.SetServeStale(true)
	q0 := d.meta.Stats().Queries
	n, err := d.CountHLEs(alice, f)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("stale serve returned %d, want the commit-behind 3", n)
	}
	if got := d.meta.Stats().Queries - q0; got != 0 {
		t.Fatalf("stale serve issued %d engine queries, want 0", got)
	}
	if s := d.stats.StaleServes.Load(); s != 1 {
		t.Fatalf("StaleServes = %d, want 1", s)
	}

	d.SetServeStale(false)
	if n, err := d.CountHLEs(alice, f); err != nil || n != 4 {
		t.Fatalf("fresh count after brownout = %d (%v), want 4", n, err)
	}
}

// TestAddToCatalogChecksFreshUnderBrownout: brownout rung 2 serves reads
// commit-behind, but the integrity checks inside writes must not. A second
// AddToCatalog of the same pair must see the first one's row: a stale zero
// would insert a duplicate.
func TestAddToCatalogChecksFreshUnderBrownout(t *testing.T) {
	d := newTestDM(t)
	alice := newScientist(t, d, "alice")
	catID, err := d.CreateCatalog(alice, "work", "private", "", false)
	if err != nil {
		t.Fatal(err)
	}
	h, err := d.CreateHLE(alice, &schema.HLE{KindHint: "flare", TStop: 1, Version: 1, CalibVersion: 1})
	if err != nil {
		t.Fatal(err)
	}

	d.SetServeStale(true)
	defer d.SetServeStale(false)
	for i := 0; i < 2; i++ {
		if err := d.AddToCatalog(alice, catID, h); err != nil {
			t.Fatal(err)
		}
	}
	pair, err := d.query(minidb.Query{Table: schema.TableCatalogMembers, Count: true, Where: []minidb.Pred{
		{Col: "catalog_id", Op: minidb.OpEq, Val: minidb.S(catID)},
		{Col: "hle_id", Op: minidb.OpEq, Val: minidb.S(h)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if pair.Count != 1 {
		t.Fatalf("catalog holds the pair %d times, want 1", pair.Count)
	}
}

// TestDeleteHLEChecksFreshUnderBrownout: at brownout rung 2, DeleteHLE must
// still see an analysis imported after its dependents count was cached.
func TestDeleteHLEChecksFreshUnderBrownout(t *testing.T) {
	d := newTestDM(t)
	alice := newScientist(t, d, "alice")
	catID, err := d.CreateCatalog(alice, "work", "private", "", false)
	if err != nil {
		t.Fatal(err)
	}
	h, err := d.CreateHLE(alice, &schema.HLE{KindHint: "flare", TStop: 1, Version: 1, CalibVersion: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddToCatalog(alice, catID, h); err != nil {
		t.Fatal(err)
	}

	d.SetServeStale(true)
	defer d.SetServeStale(false)
	// The refused delete caches a dependents count of 0; the membership
	// refuses it.
	if err := d.DeleteHLE(alice, h); err == nil || !strings.Contains(err.Error(), "catalogs") {
		t.Fatalf("delete of a catalog member: %v, want the membership refusal", err)
	}
	if _, err := d.ImportAnalysis(alice, &schema.ANA{
		HLEID: h, Type: schema.AnaLightcurve, TStop: 1, Version: 1, CalibVersion: 1,
	}, nil); err != nil {
		t.Fatal(err)
	}
	// Now the analysis is the first dependency the check must find.
	if err := d.DeleteHLE(alice, h); err == nil || !strings.Contains(err.Error(), "dependent analyses") {
		t.Fatalf("delete with an analysis: %v, want the dependents refusal", err)
	}
}

// TestCacheFingerprintDistinguishesQueries: different filters and different
// sessions (whose visibility clause differs) must not share entries.
func TestCacheFingerprintDistinguishesQueries(t *testing.T) {
	d := newTestDM(t)
	alice := newScientist(t, d, "alice")
	bob := newScientist(t, d, "bob")

	if _, err := d.CreateHLE(alice, &schema.HLE{
		KindHint: "flare", TStop: 1, Version: 1, CalibVersion: 1,
	}); err != nil {
		t.Fatal(err)
	}

	na, err := d.CountHLEs(alice, HLEFilter{Kind: "flare"})
	if err != nil {
		t.Fatal(err)
	}
	if na != 1 {
		t.Fatalf("alice sees %d flares, want 1 (her private event)", na)
	}
	// Bob's count has a different visibility OR-clause: must not hit
	// alice's entry, and must not see her private event.
	nb, err := d.CountHLEs(bob, HLEFilter{Kind: "flare"})
	if err != nil {
		t.Fatal(err)
	}
	if nb != 0 {
		t.Fatalf("bob sees %d flares, want 0", nb)
	}
	// Different kind: distinct fingerprint, fresh query.
	nq, err := d.CountHLEs(alice, HLEFilter{Kind: "quiet"})
	if err != nil {
		t.Fatal(err)
	}
	if nq != 0 {
		t.Fatalf("quiet count = %d, want 0", nq)
	}
}

// TestCatalogMemberListCached: browsing a catalog repeatedly reuses the
// cached member list until a membership edit bumps the table epoch.
func TestCatalogMemberListCached(t *testing.T) {
	d := newTestDM(t)
	alice := newScientist(t, d, "alice")

	catID, err := d.CreateCatalog(alice, "work", "private", "", false)
	if err != nil {
		t.Fatal(err)
	}
	var hles []string
	for i := 0; i < 3; i++ {
		id, err := d.CreateHLE(alice, &schema.HLE{
			KindHint: "flare", TStop: float64(i + 1), Version: 1, CalibVersion: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		hles = append(hles, id)
	}
	for _, id := range hles[:2] {
		if err := d.AddToCatalog(alice, catID, id); err != nil {
			t.Fatal(err)
		}
	}

	list, err := d.QueryHLEs(alice, HLEFilter{Catalog: catID})
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("catalog lists %d members, want 2", len(list))
	}
	hits0 := d.stats.QueryCacheHits.Load()
	if _, err := d.QueryHLEs(alice, HLEFilter{Catalog: catID}); err != nil {
		t.Fatal(err)
	}
	if d.stats.QueryCacheHits.Load() == hits0 {
		t.Fatal("second catalog browse should hit the member-list cache")
	}

	// Membership edit invalidates: the third member appears.
	if err := d.AddToCatalog(alice, catID, hles[2]); err != nil {
		t.Fatal(err)
	}
	list, err = d.QueryHLEs(alice, HLEFilter{Catalog: catID})
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 {
		t.Fatalf("catalog lists %d members after add, want 3 (stale cache served)", len(list))
	}
}

// TestQueryCacheKeepsWarmKeyThroughOneShotFlood: more distinct one-shot
// fingerprints than the cache holds evict cold entries one at a time — a
// warm count is still a hit afterwards. (The cache this replaced dropped
// every entry when the 4,097th fingerprint arrived.)
func TestQueryCacheKeepsWarmKeyThroughOneShotFlood(t *testing.T) {
	d := newTestDM(t)
	alice := newScientist(t, d, "alice")
	if _, err := d.CreateHLE(alice, &schema.HLE{
		KindHint: "flare", TStop: 1, Version: 1, CalibVersion: 1,
	}); err != nil {
		t.Fatal(err)
	}
	warm := HLEFilter{Kind: "flare"}
	for i := 0; i < 2; i++ { // fill, then one hit: the entry holds a reference
		if n, err := d.CountHLEs(alice, warm); err != nil || n != 1 {
			t.Fatalf("warm count = %d (%v), want 1", n, err)
		}
	}
	for i := 0; i < 5000; i++ {
		if _, err := d.CountHLEs(alice, HLEFilter{Kind: fmt.Sprintf("one-shot-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if st := d.cache.Stats(); st.Entries != queryCacheEntries || st.Evictions == 0 {
		t.Fatalf("after the flood: %+v, want a full cache that evicted", st)
	}
	q0, hits0 := d.meta.Stats().Queries, d.stats.QueryCacheHits.Load()
	if n, err := d.CountHLEs(alice, warm); err != nil || n != 1 {
		t.Fatalf("warm count after the flood = %d (%v), want 1", n, err)
	}
	if got := d.meta.Stats().Queries - q0; got != 0 || d.stats.QueryCacheHits.Load() != hits0+1 {
		t.Fatalf("warm count after the flood issued %d engine queries, want a cache hit", got)
	}
}

// TestDataEpoch: the multi-table epoch tag changes exactly when a listed
// table commits — per-table epochs are rendered, never folded, so distinct
// states cannot collide.
func TestDataEpoch(t *testing.T) {
	d := newTestDM(t)
	tag0 := d.DataEpoch(schema.TableRawUnits, schema.TableViews)
	if tag0 == "" || !strings.Contains(tag0, ".") {
		t.Fatalf("tag = %q", tag0)
	}
	if again := d.DataEpoch(schema.TableRawUnits, schema.TableViews); again != tag0 {
		t.Fatalf("tag unstable without commits: %q then %q", tag0, again)
	}

	// A commit to a listed table changes the tag...
	day := telemetry.GenerateDay(1, telemetry.Config{Seed: 3, DayLength: 600, BackgroundRate: 2})
	if _, err := d.LoadUnit(telemetry.SegmentDay(day, 600)[0]); err != nil {
		t.Fatal(err)
	}
	tag1 := d.DataEpoch(schema.TableRawUnits, schema.TableViews)
	if tag1 == tag0 {
		t.Fatal("raw_units commit did not change the tag")
	}

	// ...a commit to an unlisted table does not.
	if err := d.CreateUser("epoch-probe", "pw", GroupScientist, RightBrowse); err != nil {
		t.Fatal(err)
	}
	if tag2 := d.DataEpoch(schema.TableRawUnits, schema.TableViews); tag2 != tag1 {
		t.Fatalf("unlisted-table commit changed the tag: %q -> %q", tag1, tag2)
	}

	// Recalibration is a raw_units commit: the invalidation trigger.
	units, err := d.UnitsInRange(0, 600)
	if err != nil || len(units) == 0 {
		t.Fatalf("units: %v %v", units, err)
	}
	if _, err := d.Recalibrate(units[0].UnitID, "probe"); err != nil {
		t.Fatal(err)
	}
	if tag3 := d.DataEpoch(schema.TableRawUnits, schema.TableViews); tag3 == tag1 {
		t.Fatal("recalibration did not change the tag")
	}
}
