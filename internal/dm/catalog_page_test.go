package dm

import (
	"io"
	"log"
	"sync/atomic"
	"testing"

	"repro/internal/minidb"
	"repro/internal/schema"
)

// openOver opens another DM over eng: the same data behind empty caches.
func openOver(t *testing.T, eng minidb.Engine) *DM {
	t.Helper()
	d, err := Open(Options{
		Node: "dm-cold", MetaDB: eng, URLRoot: "http://hedc.test",
		Logger: log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// catalogLists reports whether s's page of the standard catalog, served by
// via, lists the event id.
func catalogLists(t *testing.T, via *DM, s *Session, id string) bool {
	t.Helper()
	hs, err := via.QueryHLEs(s, HLEFilter{Catalog: StandardCat})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hs {
		if h.ID == id {
			return true
		}
	}
	return false
}

// TestCatalogPageCacheVisibilityAndFreshness pins the cached catalog page
// (one entry per catalog and visibility clause) on a 2-shard router. Every
// check runs cold (a fresh DM over the same shards) and warm (through d,
// whose entry for that principal is filled first): a private member is
// listed for its owner and for super, never for anonymous or another user,
// also right after the owner's page filled the cache; a Publish and an
// AddToCatalog show on the next page; a warm page of 150 members reads at
// most four shard epochs, and callers get copies of the cached events.
func TestCatalogPageCacheVisibilityAndFreshness(t *testing.T) {
	var epochReads atomic.Int64
	d, r := newCountingShardedDM(t, &epochReads)
	if err := d.Bootstrap("secret"); err != nil {
		t.Fatal(err)
	}
	sys := d.systemSession()
	alice := newScientist(t, d, "alice")
	bob := newScientist(t, d, "bob")
	for i := 0; i < 150; i++ {
		id, err := d.CreateHLE(sys, &schema.HLE{KindHint: "flare", Public: true,
			TStart: float64(i), TStop: float64(i) + 1, Version: 1, CalibVersion: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.AddToCatalog(sys, StandardCat, id); err != nil {
			t.Fatal(err)
		}
	}
	priv, err := d.CreateHLE(alice, &schema.HLE{KindHint: "flare", TStop: 1, Version: 1, CalibVersion: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddToCatalog(sys, StandardCat, priv); err != nil {
		t.Fatal(err)
	}

	principals := []struct {
		who  string
		s    *Session
		sees bool
	}{{"owner", alice, true}, {"super", sys, true}, {"anonymous", nil, false}, {"another user", bob, false}}
	for _, warm := range []bool{false, true} {
		for _, p := range principals {
			via := d
			if warm {
				catalogLists(t, d, p.s, priv) // the owner's entry is filled first
			} else {
				via = openOver(t, r)
			}
			if got := catalogLists(t, via, p.s, priv); got != p.sees {
				t.Fatalf("warm=%v: %s's page lists the private member: %v, want %v", warm, p.who, got, p.sees)
			}
		}
	}

	// A warm page of 150 members reads the member list's and the event
	// table's epoch on each of the two shards, not one epoch per member.
	epochReads.Store(0)
	hs, err := d.QueryHLEs(nil, HLEFilter{Catalog: StandardCat})
	if err != nil {
		t.Fatal(err)
	}
	if n := epochReads.Load(); len(hs) != 150 || n > 4 {
		t.Fatalf("warm anonymous page: %d members, %d shard epoch reads; want 150, <= 4", len(hs), n)
	}
	hs[0].Label = "scribbled by a caller"
	again, err := d.QueryHLEs(nil, HLEFilter{Catalog: StandardCat, Limit: 1})
	if err != nil || len(again) != 1 || again[0].Label == hs[0].Label {
		t.Fatalf("a caller's edit reached the cached page: %+v (%v)", again, err)
	}

	// After Publish commits, the next anonymous page lists the member; d
	// still holds the pre-publish anonymous page.
	if err := d.Publish(alice, "hle", priv); err != nil {
		t.Fatal(err)
	}
	for _, via := range []*DM{openOver(t, r), d} {
		if !catalogLists(t, via, nil, priv) {
			t.Fatalf("published member missing from the next anonymous page (warm=%v)", via == d)
		}
	}

	// After AddToCatalog, the next page lists the new member.
	extra, err := d.CreateHLE(sys, &schema.HLE{KindHint: "quiet-period", Public: true, TStop: 1, Version: 1, CalibVersion: 1})
	if err != nil {
		t.Fatal(err)
	}
	if catalogLists(t, d, nil, extra) {
		t.Fatal("event listed before it joined the catalog")
	}
	if err := d.AddToCatalog(sys, StandardCat, extra); err != nil {
		t.Fatal(err)
	}
	for _, via := range []*DM{openOver(t, r), d} {
		if !catalogLists(t, via, nil, extra) {
			t.Fatalf("new member missing from the next page (warm=%v)", via == d)
		}
	}
}
