package dm

import (
	"io"
	"log"
	"slices"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/minidb"
	"repro/internal/schema"
	"repro/internal/telemetry"
)

func newTestDM(t testing.TB) *DM {
	t.Helper()
	db, err := minidb.Open("", schema.AllSchemas()...)
	if err != nil {
		t.Fatal(err)
	}
	arch, err := archive.NewLake("disk-0", archive.Disk, t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Open(Options{
		Node:           "dm-test",
		MetaDB:         db,
		DefaultArchive: "disk-0",
		URLRoot:        "http://hedc.test",
		Logger:         log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterArchive(arch, "/archives/disk-0"); err != nil {
		t.Fatal(err)
	}
	if err := d.Bootstrap("secret"); err != nil {
		t.Fatal(err)
	}
	return d
}

func login(t *testing.T, d *DM, user, pass, kind string) *Session {
	t.Helper()
	s, err := d.Authenticate(user, pass, "10.0.0.1", kind)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newScientist(t *testing.T, d *DM, name string) *Session {
	t.Helper()
	if err := d.CreateUser(name, "pw-"+name, GroupScientist,
		RightBrowse, RightDownload, RightAnalyze, RightUpload); err != nil {
		t.Fatal(err)
	}
	return login(t, d, name, "pw-"+name, SessionHLE)
}

func TestBootstrapIdempotent(t *testing.T) {
	d := newTestDM(t)
	if err := d.Bootstrap("secret"); err != nil {
		t.Fatal(err)
	}
	cats, err := d.ListCatalogs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cats) != 2 {
		t.Fatalf("catalogs = %d, want 2 (standard + extended)", len(cats))
	}
	ids := map[string]bool{}
	for _, c := range cats {
		ids[c.ID] = true
		if !c.Public {
			t.Fatalf("bootstrap catalog %s not public", c.ID)
		}
	}
	if !ids[StandardCat] || !ids[ExtendedCat] {
		t.Fatalf("catalog ids = %v", ids)
	}
}

func TestAuthenticateAndSessions(t *testing.T) {
	d := newTestDM(t)
	s := login(t, d, ImportUser, "secret", SessionHLE)
	if !s.Super() || !s.Has(RightAnalyze) {
		t.Fatalf("import session = %+v", s)
	}
	// Wrong password.
	if _, err := d.Authenticate(ImportUser, "wrong", "10.0.0.1", SessionHLE); !IsDenied(err) {
		t.Fatalf("err = %v", err)
	}
	// Unknown user.
	if _, err := d.Authenticate("ghost", "x", "", SessionHLE); !IsDenied(err) {
		t.Fatalf("err = %v", err)
	}
	// Token lookup honours IP binding.
	if got := d.SessionFor(s.Token, "10.0.0.1"); got != s {
		t.Fatal("token lookup failed")
	}
	if got := d.SessionFor(s.Token, "99.9.9.9"); got != nil {
		t.Fatal("session leaked across IPs")
	}
	if got := d.SessionFor("bogus", "10.0.0.1"); got != nil {
		t.Fatal("bogus token resolved")
	}
	d.Logout(s.Token)
	if got := d.SessionFor(s.Token, "10.0.0.1"); got != nil {
		t.Fatal("logged-out session resolved")
	}
}

func TestSessionCacheThreePerUser(t *testing.T) {
	d := newTestDM(t)
	for _, kind := range []string{SessionHLE, SessionANA, SessionCatalog} {
		login(t, d, ImportUser, "secret", kind)
	}
	cached := func() int {
		d.sessions.mu.Lock()
		defer d.sessions.mu.Unlock()
		return len(d.sessions.byUser[ImportUser])
	}
	if n := cached(); n != 3 {
		t.Fatalf("cached sessions = %d, want 3", n)
	}
	// A fourth login of an existing kind replaces, not grows.
	login(t, d, ImportUser, "secret", SessionHLE)
	if n := cached(); n != 3 {
		t.Fatalf("cached sessions after re-login = %d, want 3", n)
	}
}

func TestHLELifecycleAndVisibility(t *testing.T) {
	d := newTestDM(t)
	alice := newScientist(t, d, "alice")
	bob := newScientist(t, d, "bob")

	id, err := d.CreateHLE(alice, &schema.HLE{
		Label: "my flare", KindHint: "flare", TStart: 100, TStop: 200,
		EMin: 3, EMax: 100, Day: 1, CalibVersion: 1, Version: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Owner sees it; bob does not (private by default, §5.5).
	if _, err := d.GetHLE(alice, id); err != nil {
		t.Fatal(err)
	}
	if _, err := d.GetHLE(bob, id); !IsDenied(err) {
		t.Fatalf("bob read private HLE: %v", err)
	}
	if _, err := d.GetHLE(nil, id); !IsDenied(err) {
		t.Fatalf("anonymous read private HLE: %v", err)
	}
	// Query visibility: bob's view excludes it.
	bobView, err := d.QueryHLEs(bob, HLEFilter{Kind: "flare"})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range bobView {
		if h.ID == id {
			t.Fatal("private HLE in bob's query")
		}
	}
	// Bob cannot publish alice's event.
	if err := d.Publish(bob, "hle", id); !IsDenied(err) {
		t.Fatalf("bob published alice's HLE: %v", err)
	}
	// Alice publishes; now bob sees it.
	if err := d.Publish(alice, "hle", id); err != nil {
		t.Fatal(err)
	}
	if _, err := d.GetHLE(bob, id); err != nil {
		t.Fatal(err)
	}
}

func TestQueryHLEFilters(t *testing.T) {
	d := newTestDM(t)
	alice := newScientist(t, d, "alice")
	for i := 0; i < 10; i++ {
		kind := "flare"
		if i%2 == 1 {
			kind = "gamma-ray-burst"
		}
		if _, err := d.CreateHLE(alice, &schema.HLE{
			KindHint: kind, TStart: float64(i * 100), TStop: float64(i*100 + 50),
			Day: int64(i / 5), Version: 1, CalibVersion: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := d.QueryHLEs(alice, HLEFilter{Kind: "flare"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("flares = %d", len(got))
	}
	got, _ = d.QueryHLEs(alice, HLEFilter{HasDay: true, Day: 0})
	if len(got) != 5 {
		t.Fatalf("day-0 events = %d", len(got))
	}
	got, _ = d.QueryHLEs(alice, HLEFilter{HasTime: true, TimeFrom: 200, TimeTo: 400})
	if len(got) != 3 {
		t.Fatalf("time-filtered = %d", len(got))
	}
	got, _ = d.QueryHLEs(alice, HLEFilter{Limit: 3, OrderDesc: true})
	if len(got) != 3 || got[0].TStart != 900 {
		t.Fatalf("desc limit wrong: %v", got)
	}
	n, err := d.CountHLEs(alice, HLEFilter{Kind: "gamma-ray-burst"})
	if err != nil || n != 5 {
		t.Fatalf("count = %d %v", n, err)
	}
}

func TestImportAnalysisWithFiles(t *testing.T) {
	d := newTestDM(t)
	alice := newScientist(t, d, "alice")
	hleID, _ := d.CreateHLE(alice, &schema.HLE{
		KindHint: "flare", TStart: 0, TStop: 100, Version: 1, CalibVersion: 1,
	})
	anaID, err := d.ImportAnalysis(alice, &schema.ANA{
		HLEID: hleID, Type: schema.AnaLightcurve, Algorithm: "binned",
		TStart: 0, TStop: 100, TimeBins: 64, Version: 1, CalibVersion: 1,
	}, []StoredFile{
		{Suffix: ".gif", Format: "gif", Data: []byte("GIF89a-fake")},
		{Suffix: ".log", Format: "log", Data: []byte("ran fine")},
		{Suffix: ".params", Format: "params", Data: []byte("bins=64")},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := d.GetANA(alice, anaID)
	if err != nil {
		t.Fatal(err)
	}
	if a.ItemID == "" || a.OutputBytes == 0 {
		t.Fatalf("analysis lacks file references: %+v", a)
	}
	// The file comes back through name mapping.
	data, rn, err := d.ReadItem(alice, a.ItemID)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "GIF89a-fake" || rn.Format != "gif" {
		t.Fatalf("read %q format %q", data, rn.Format)
	}
	// Attached analyses list under the HLE.
	anas, err := d.AnalysesForHLE(alice, hleID)
	if err != nil || len(anas) != 1 {
		t.Fatalf("analyses = %v %v", anas, err)
	}
	// Bob cannot read alice's private file.
	bob := newScientist(t, d, "bob")
	if _, _, err := d.ReadItem(bob, a.ItemID); !IsDenied(err) {
		t.Fatalf("bob read private item: %v", err)
	}
	// Publishing the analysis opens the file too.
	if err := d.Publish(alice, "ana", anaID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.ReadItem(bob, a.ItemID); err != nil {
		t.Fatalf("bob blocked after publish: %v", err)
	}
}

func TestImportAnalysisIntegrity(t *testing.T) {
	d := newTestDM(t)
	alice := newScientist(t, d, "alice")
	// Referential integrity: HLE must exist.
	if _, err := d.ImportAnalysis(alice, &schema.ANA{
		HLEID: "hle-missing", Type: schema.AnaImaging,
	}, nil); err == nil {
		t.Fatal("analysis referencing missing HLE accepted")
	}
	// Anonymous import rejected.
	hleID, _ := d.CreateHLE(alice, &schema.HLE{KindHint: "flare", TStop: 1, Version: 1, CalibVersion: 1})
	if _, err := d.ImportAnalysis(nil, &schema.ANA{HLEID: hleID}, nil); !IsDenied(err) {
		t.Fatalf("anonymous import: %v", err)
	}
}

func TestDeleteHLEIntegrityConstraint(t *testing.T) {
	d := newTestDM(t)
	alice := newScientist(t, d, "alice")
	hleID, _ := d.CreateHLE(alice, &schema.HLE{KindHint: "flare", TStop: 1, Version: 1, CalibVersion: 1})
	anaID, err := d.ImportAnalysis(alice, &schema.ANA{
		HLEID: hleID, Type: schema.AnaHistogram, TStop: 1, Version: 1, CalibVersion: 1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Dependent analysis blocks deletion (§5.3 integrity constraints).
	if err := d.DeleteHLE(alice, hleID); err == nil {
		t.Fatal("HLE with dependent analysis deleted")
	}
	if err := d.DeleteANA(alice, anaID); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteHLE(alice, hleID); err != nil {
		t.Fatal(err)
	}
	if _, err := d.GetHLE(alice, hleID); err == nil {
		t.Fatal("deleted HLE still present")
	}
}

func TestFindExistingAnalysis(t *testing.T) {
	d := newTestDM(t)
	alice := newScientist(t, d, "alice")
	hleID, _ := d.CreateHLE(alice, &schema.HLE{KindHint: "flare", TStop: 100, Version: 1, CalibVersion: 1})
	spec := &schema.ANA{
		HLEID: hleID, Type: schema.AnaLightcurve,
		TStart: 0, TStop: 100, TimeBins: 64, ApproxFrac: 1, Version: 1, CalibVersion: 1,
	}
	// Nothing yet.
	if found, err := d.FindExistingAnalysis(alice, spec); err != nil || found != nil {
		t.Fatalf("found = %v, err = %v", found, err)
	}
	specCopy := *spec
	if _, err := d.ImportAnalysis(alice, &specCopy, nil); err != nil {
		t.Fatal(err)
	}
	found, err := d.FindExistingAnalysis(alice, spec)
	if err != nil || found == nil {
		t.Fatalf("existing analysis not found: %v %v", found, err)
	}
	// Different parameters do not match.
	other := *spec
	other.TimeBins = 128
	if found, _ := d.FindExistingAnalysis(alice, &other); found != nil {
		t.Fatal("mismatched parameters matched")
	}
	// Bob cannot see alice's private analysis as "already done" (§3.5
	// applies to data he may access).
	bob := newScientist(t, d, "bob")
	if found, _ := d.FindExistingAnalysis(bob, spec); found != nil {
		t.Fatal("private analysis offered to another user")
	}
}

func TestCatalogMembershipAndBrowse(t *testing.T) {
	d := newTestDM(t)
	sys := d.systemSession()
	alice := newScientist(t, d, "alice")

	hle1, _ := d.CreateHLE(sys, &schema.HLE{KindHint: "flare", Public: true, TStop: 1, Version: 1, CalibVersion: 1})
	hle2, _ := d.CreateHLE(alice, &schema.HLE{KindHint: "flare", TStop: 1, Version: 1, CalibVersion: 1})

	if err := d.AddToCatalog(sys, StandardCat, hle1); err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	if err := d.AddToCatalog(sys, StandardCat, hle1); err != nil {
		t.Fatal(err)
	}
	// Alice cannot edit the shared catalog.
	if err := d.AddToCatalog(alice, StandardCat, hle2); !IsDenied(err) {
		t.Fatalf("alice edited shared catalog: %v", err)
	}
	// Private workspace catalog.
	wsID, err := d.CreateCatalog(alice, "alice-workspace", "private", "my events", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddToCatalog(alice, wsID, hle2); err != nil {
		t.Fatal(err)
	}
	// Referential integrity: unknown member rejected.
	if err := d.AddToCatalog(alice, wsID, "hle-nope"); err == nil {
		t.Fatal("unknown HLE added to catalog")
	}
	// Browse through the catalog.
	got, err := d.QueryHLEs(alice, HLEFilter{Catalog: wsID})
	if err != nil || len(got) != 1 || got[0].ID != hle2 {
		t.Fatalf("workspace members = %v %v", got, err)
	}
	// Bob can't see alice's workspace.
	bob := newScientist(t, d, "bob")
	if _, err := d.QueryHLEs(bob, HLEFilter{Catalog: wsID}); !IsDenied(err) {
		t.Fatalf("bob browsed alice's workspace: %v", err)
	}
	// Member counts in listing.
	cats, _ := d.ListCatalogs(alice)
	for _, c := range cats {
		if c.ID == StandardCat && c.Members != 1 {
			t.Fatalf("standard members = %d", c.Members)
		}
	}
}

func TestNameMappingResolve(t *testing.T) {
	d := newTestDM(t)
	itemID, _ := d.nextID("item")
	if err := d.StoreItemFiles(itemID, ImportUser, true, []StoredFile{
		{Suffix: ".gif", Format: "gif", Data: []byte("img")},
	}); err != nil {
		t.Fatal(err)
	}
	before := d.MetaDB().Stats().Queries

	rn, err := d.Resolve(itemID, schema.NameFile)
	if err != nil {
		t.Fatal(err)
	}
	// §4.3: two extra queries on indexed fields (the transform lookup is a
	// third, separate concern; tolerate 2-3).
	cost := d.MetaDB().Stats().Queries - before
	if cost < 2 || cost > 3 {
		t.Fatalf("name construction cost = %d queries", cost)
	}
	if rn.ArchiveID != "disk-0" || rn.Format != "gif" {
		t.Fatalf("resolved = %+v", rn)
	}
	if !strings.HasPrefix(rn.Full, "/archives/disk-0/") {
		t.Fatalf("full name = %q", rn.Full)
	}
	url, err := d.Resolve(itemID, schema.NameURL)
	if err != nil {
		t.Fatal(err)
	}
	if url.Full != "http://hedc.test/dl/"+itemID {
		t.Fatalf("url = %q", url.Full)
	}
	if _, err := d.Resolve("item-missing", schema.NameFile); err == nil {
		t.Fatal("missing item resolved")
	}
}

func TestRelocateItemLive(t *testing.T) {
	d := newTestDM(t)
	tape, err := archive.NewLake("tape-0", archive.Tape, t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterArchive(tape, "/archives/tape-0"); err != nil {
		t.Fatal(err)
	}
	itemID, _ := d.nextID("item")
	if err := d.StoreItemFiles(itemID, ImportUser, true, []StoredFile{
		{Suffix: ".fits.gz", Format: "fits.gz", Data: []byte("raw-data")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.RelocateItem(itemID, "tape-0"); err != nil {
		t.Fatal(err)
	}
	rn, err := d.Resolve(itemID, schema.NameFile)
	if err != nil {
		t.Fatal(err)
	}
	if rn.ArchiveID != "tape-0" {
		t.Fatalf("item still on %s", rn.ArchiveID)
	}
	// Data still readable through the same item id — no domain tuples
	// were touched (§4.3).
	data, _, err := d.ReadItem(d.systemSession(), itemID)
	if err != nil || string(data) != "raw-data" {
		t.Fatalf("read after relocation: %q %v", data, err)
	}
	// Old archive no longer holds the file.
	if slices.Contains(d.archives.Get("disk-0").List(), rn.Path) {
		t.Fatal("source copy not removed")
	}
	// Relocating to the same archive is a no-op.
	if err := d.RelocateItem(itemID, "tape-0"); err != nil {
		t.Fatal(err)
	}
}

func smallUnit(t *testing.T) *telemetry.Unit {
	t.Helper()
	day := telemetry.GenerateDay(1, telemetry.Config{
		Seed: 55, DayLength: 1800, BackgroundRate: 4, Flares: 1, Bursts: 0,
	})
	units := telemetry.SegmentDay(day, 1800)
	if len(units) != 1 {
		t.Fatal("expected one unit")
	}
	return units[0]
}

func TestLoadUnitPipeline(t *testing.T) {
	d := newTestDM(t)
	u := smallUnit(t)
	rep, err := d.LoadUnit(u)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Photons != len(u.Photons) || rep.Views != ViewPartitions {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Events == 0 {
		t.Fatal("no events detected in a unit with a flare")
	}
	// Double load rejected.
	if _, err := d.LoadUnit(u); err == nil {
		t.Fatal("unit loaded twice")
	}
	// The detected events are in the extended catalog and public.
	got, err := d.QueryHLEs(nil, HLEFilter{Catalog: ExtendedCat})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != rep.Events {
		t.Fatalf("extended catalog has %d events, report says %d", len(got), rep.Events)
	}
	// Raw photons come back through the DM.
	photons, bytesRead, err := d.RawPhotons(nil, 0, 1800)
	if err != nil {
		t.Fatal(err)
	}
	if len(photons) != len(u.Photons) {
		t.Fatalf("raw photons = %d, want %d", len(photons), len(u.Photons))
	}
	if bytesRead == 0 {
		t.Fatal("no bytes accounted")
	}
	// Views come back decoded.
	views, err := d.ViewsInRange(nil, 0, 1800)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != ViewPartitions {
		t.Fatalf("views = %d", len(views))
	}
	var totalFromViews float64
	for _, v := range views {
		for _, x := range v.Lightcurve(1) {
			totalFromViews += x
		}
	}
	if totalFromViews < float64(len(u.Photons))/2 {
		t.Fatalf("views reconstruct %v counts of %d photons", totalFromViews, len(u.Photons))
	}
}

func TestRecalibrationVersioning(t *testing.T) {
	d := newTestDM(t)
	u := smallUnit(t)
	rep, err := d.LoadUnit(u)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events == 0 {
		t.Skip("no events for this seed")
	}
	sys := d.systemSession()

	// An analysis against calibration v1.
	anaID, err := d.ImportAnalysis(sys, &schema.ANA{
		HLEID: rep.HLEs[0], Type: schema.AnaLightcurve,
		TStop: 100, Version: 1, CalibVersion: 1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// No stale analyses yet.
	stale, err := d.StaleAnalyses(sys)
	if err != nil || len(stale) != 0 {
		t.Fatalf("stale = %v %v", stale, err)
	}
	// Recalibrate the unit.
	v, err := d.Recalibrate(rep.UnitID, "grid transmission correction")
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("version = %d", v)
	}
	// The HLE carries the new version; the analysis is now stale.
	h, _ := d.GetHLE(sys, rep.HLEs[0])
	if h.Version != 2 {
		t.Fatalf("HLE version = %d", h.Version)
	}
	stale, err = d.StaleAnalyses(sys)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range stale {
		if a.ID == anaID {
			found = true
		}
	}
	if !found {
		t.Fatalf("analysis %s not flagged stale: %v", anaID, stale)
	}
}

func TestIDAllocatorSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := minidb.Open(dir, schema.AllSchemas()...)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Open(Options{MetaDB: db, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	first, _ := d.nextID("hle")
	second, _ := d.nextID("hle")
	if first == second {
		t.Fatal("duplicate ids")
	}
	db.Close()

	db2, err := minidb.Open(dir, schema.AllSchemas()...)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	d2, err := Open(Options{MetaDB: db2, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	third, _ := d2.nextID("hle")
	if third == first || third == second {
		t.Fatalf("id %s reused after reopen", third)
	}
}

func TestVerticalPartitioning(t *testing.T) {
	metaDB, err := minidb.Open("", schema.GenericSchemas()...)
	if err != nil {
		t.Fatal(err)
	}
	domainDB, err := minidb.Open("", schema.DomainSchemas()...)
	if err != nil {
		t.Fatal(err)
	}
	arch, _ := archive.NewLake("disk-0", archive.Disk, t.TempDir(), 0)
	d, err := Open(Options{
		MetaDB: metaDB, DomainDB: domainDB,
		DefaultArchive: "disk-0", Logger: log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterArchive(arch, "/a"); err != nil {
		t.Fatal(err)
	}
	if err := d.Bootstrap("secret"); err != nil {
		t.Fatal(err)
	}
	alice := newScientist(t, d, "alice")
	if _, err := d.CreateHLE(alice, &schema.HLE{KindHint: "flare", TStop: 1, Version: 1, CalibVersion: 1}); err != nil {
		t.Fatal(err)
	}
	// The HLE landed in the domain DB, users in the meta DB.
	if domainDB.TableLen(schema.TableHLE) != 1 {
		t.Fatal("HLE not routed to domain partition")
	}
	if metaDB.TableLen(schema.TableUsers) != 2 { // import + alice
		t.Fatalf("users = %d in meta partition", metaDB.TableLen(schema.TableUsers))
	}
	if domainDB.TableLen(schema.TableUsers) != -1 {
		t.Fatal("users table exists in domain partition")
	}
}

func TestStatsAccounting(t *testing.T) {
	d := newTestDM(t)
	alice := newScientist(t, d, "alice")
	d.QueryHLEs(alice, HLEFilter{})
	st := d.Stats()
	if st.Requests.Load() == 0 || st.Queries.Load() == 0 || st.Edits.Load() == 0 {
		t.Fatalf("stats not accounted: req=%d q=%d e=%d",
			st.Requests.Load(), st.Queries.Load(), st.Edits.Load())
	}
}

func TestDeleteANARemovesFiles(t *testing.T) {
	d := newTestDM(t)
	alice := newScientist(t, d, "alice")
	hleID, _ := d.CreateHLE(alice, &schema.HLE{KindHint: "flare", TStop: 1, Version: 1, CalibVersion: 1})
	anaID, err := d.ImportAnalysis(alice, &schema.ANA{
		HLEID: hleID, Type: schema.AnaHistogram, TStop: 1, Version: 1, CalibVersion: 1,
	}, []StoredFile{
		{Suffix: ".gif", Format: "gif", Data: []byte("img")},
		{Suffix: ".log", Format: "log", Data: []byte("log")},
	})
	if err != nil {
		t.Fatal(err)
	}
	ana, _ := d.GetANA(alice, anaID)
	arch := d.archives.Get("disk-0")
	filesBefore := len(arch.List())
	entriesBefore := d.MetaDB().TableLen(schema.TableLocEntries)
	if filesBefore != 2 || entriesBefore != 4 { // 2 files x (file + url entries)
		t.Fatalf("precondition: files=%d entries=%d", filesBefore, entriesBefore)
	}
	// Bob cannot delete alice's analysis.
	bob := newScientist(t, d, "bob")
	if err := d.DeleteANA(bob, anaID); err == nil {
		t.Fatal("bob deleted alice's analysis")
	}
	if err := d.DeleteANA(alice, anaID); err != nil {
		t.Fatal(err)
	}
	// Compensation: files and location entries are gone.
	if len(arch.List()) != 0 {
		t.Fatalf("archive still holds %d files", len(arch.List()))
	}
	if n := d.MetaDB().TableLen(schema.TableLocEntries); n != 0 {
		t.Fatalf("loc entries left: %d", n)
	}
	if _, _, err := d.ReadItem(alice, ana.ItemID); err == nil {
		t.Fatal("deleted item still resolves")
	}
}

func TestCatalogBrowsePaging(t *testing.T) {
	d := newTestDM(t)
	sys := d.systemSession()
	for i := 0; i < 10; i++ {
		id, err := d.CreateHLE(sys, &schema.HLE{
			KindHint: "flare", Public: true,
			TStart: float64(i), TStop: float64(i) + 1, Version: 1, CalibVersion: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.AddToCatalog(sys, ExtendedCat, id); err != nil {
			t.Fatal(err)
		}
	}
	page1, err := d.QueryHLEs(nil, HLEFilter{Catalog: ExtendedCat, Limit: 4})
	if err != nil || len(page1) != 4 {
		t.Fatalf("page1 = %d %v", len(page1), err)
	}
	page2, err := d.QueryHLEs(nil, HLEFilter{Catalog: ExtendedCat, Limit: 4, Offset: 4})
	if err != nil || len(page2) != 4 {
		t.Fatalf("page2 = %d %v", len(page2), err)
	}
	if page1[0].ID == page2[0].ID {
		t.Fatal("paging returned overlapping pages")
	}
	tail, err := d.QueryHLEs(nil, HLEFilter{Catalog: ExtendedCat, Offset: 8})
	if err != nil || len(tail) != 2 {
		t.Fatalf("tail = %d %v", len(tail), err)
	}
	none, err := d.QueryHLEs(nil, HLEFilter{Catalog: ExtendedCat, Offset: 50})
	if err != nil || len(none) != 0 {
		t.Fatalf("past-end = %d %v", len(none), err)
	}
}
