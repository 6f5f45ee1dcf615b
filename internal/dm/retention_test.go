package dm

import (
	"testing"

	"repro/internal/archive"
	"repro/internal/schema"
	"repro/internal/telemetry"
)

func loadDays(t *testing.T, d *DM, days int) {
	t.Helper()
	for day := 1; day <= days; day++ {
		gen := telemetry.GenerateDay(day, telemetry.Config{
			Seed: 123, DayLength: 600, BackgroundRate: 3, Flares: 1, Bursts: 0,
		})
		for _, u := range telemetry.SegmentDay(gen, 600) {
			if _, err := d.LoadUnit(u); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestRetentionMigratesOldUnitsToTape(t *testing.T) {
	d := newTestDM(t)
	tape, err := archive.NewLake("tape-0", archive.Tape, t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterArchive(tape, "/archives/tape-0"); err != nil {
		t.Fatal(err)
	}
	loadDays(t, d, 4)

	// Units older than 1 day (relative to day 4) go to tape.
	if err := d.SetRetentionRule(RetentionRule{MaxAgeDays: 1, ToArchive: "tape-0"}); err != nil {
		t.Fatal(err)
	}
	rule, err := d.RetentionRuleSet()
	if err != nil || rule == nil || rule.ToArchive != "tape-0" {
		t.Fatalf("rule = %+v %v", rule, err)
	}
	rep, err := d.ApplyRetention()
	if err != nil {
		t.Fatal(err)
	}
	// Days 1 and 2 are older than cutoff (4-1=3): 2 units migrate.
	if rep.Migrated != 2 || rep.Failed != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if len(tape.List()) != 2 {
		t.Fatalf("tape holds %d files", len(tape.List()))
	}
	// Everything still readable through the same item ids; day-3+ data
	// stayed on disk.
	sys := d.systemSession()
	photons, _, err := d.RawPhotons(sys, 0, 600)
	if err != nil || len(photons) == 0 {
		t.Fatalf("day-1 photons after migration: %d %v", len(photons), err)
	}
	units, _ := d.UnitsInRange(0, 600)
	rn, err := d.Resolve(units[0].ItemID, schema.NameFile)
	if err != nil || rn.ArchiveID != "tape-0" {
		t.Fatalf("day-1 unit on %s, want tape-0 (%v)", rn.ArchiveID, err)
	}
	// Idempotent: a second run finds nothing to move.
	rep2, err := d.ApplyRetention()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Migrated != 0 {
		t.Fatalf("second run migrated %d", rep2.Migrated)
	}
}

func TestRetentionValidation(t *testing.T) {
	d := newTestDM(t)
	if err := d.SetRetentionRule(RetentionRule{MaxAgeDays: 1, ToArchive: "ghost"}); err == nil {
		t.Fatal("unmounted target accepted")
	}
	if err := d.SetRetentionRule(RetentionRule{MaxAgeDays: -1, ToArchive: "disk-0"}); err == nil {
		t.Fatal("negative age accepted")
	}
	if _, err := d.ApplyRetention(); err == nil {
		t.Fatal("retention without a rule ran")
	}
	// Rule update overwrites, not duplicates.
	tape, _ := archive.NewLake("tape-0", archive.Tape, t.TempDir(), 0)
	if err := d.RegisterArchive(tape, "/t"); err != nil {
		t.Fatal(err)
	}
	if err := d.SetRetentionRule(RetentionRule{MaxAgeDays: 5, ToArchive: "tape-0"}); err != nil {
		t.Fatal(err)
	}
	if err := d.SetRetentionRule(RetentionRule{MaxAgeDays: 2, ToArchive: "tape-0"}); err != nil {
		t.Fatal(err)
	}
	rule, _ := d.RetentionRuleSet()
	if rule.MaxAgeDays != 2 {
		t.Fatalf("rule = %+v", rule)
	}
}

func TestRetentionSurvivesOfflineTarget(t *testing.T) {
	d := newTestDM(t)
	tape, _ := archive.NewLake("tape-0", archive.Tape, t.TempDir(), 0)
	if err := d.RegisterArchive(tape, "/t"); err != nil {
		t.Fatal(err)
	}
	loadDays(t, d, 3)
	if err := d.SetRetentionRule(RetentionRule{MaxAgeDays: 0, ToArchive: "tape-0"}); err != nil {
		t.Fatal(err)
	}
	tape.SetOnline(false)
	rep, err := d.ApplyRetention()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrated != 0 || rep.Failed == 0 {
		t.Fatalf("report with offline tape = %+v", rep)
	}
	// Data intact on disk; a later run (tape back) succeeds.
	tape.SetOnline(true)
	rep, err = d.ApplyRetention()
	if err != nil || rep.Migrated == 0 {
		t.Fatalf("recovery run = %+v %v", rep, err)
	}
	sys := d.systemSession()
	if photons, _, err := d.RawPhotons(sys, 0, 600); err != nil || len(photons) == 0 {
		t.Fatalf("photons after failed+retried retention: %v", err)
	}
}

func TestPredefinedQueries(t *testing.T) {
	d := newTestDM(t)
	alice := newScientist(t, d, "alice")
	for i := 0; i < 6; i++ {
		kind := "flare"
		if i%2 == 1 {
			kind = "gamma-ray-burst"
		}
		if _, err := d.CreateHLE(alice, &schema.HLE{
			KindHint: kind, TStart: float64(i * 10), TStop: float64(i*10 + 5),
			Significance: float64(i * 10), Version: 1, CalibVersion: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.SavePredefinedQuery("bright-flares", "flares, latest first",
		HLEFilter{Kind: "flare", OrderDesc: true, Limit: 10}); err != nil {
		t.Fatal(err)
	}
	if err := d.SavePredefinedQuery("bad name", "", HLEFilter{}); err == nil {
		t.Fatal("name with space accepted")
	}
	// Round trip.
	f, desc, err := d.PredefinedQuery("bright-flares")
	if err != nil || f.Kind != "flare" || !f.OrderDesc || desc == "" {
		t.Fatalf("query = %+v %q %v", f, desc, err)
	}
	if _, _, err := d.PredefinedQuery("ghost"); err == nil {
		t.Fatal("missing query served")
	}
	// Listing.
	list, err := d.ListPredefinedQueries()
	if err != nil || len(list) != 1 || list[0].Name != "bright-flares" {
		t.Fatalf("list = %v %v", list, err)
	}
	// Execution, as the web tier runs it (load the filter, then query),
	// honours the session's visibility.
	run := func(s *Session) ([]*schema.HLE, error) {
		f, _, err := d.PredefinedQuery("bright-flares")
		if err != nil {
			return nil, err
		}
		return d.QueryHLEs(s, f)
	}
	got, err := run(alice)
	if err != nil || len(got) != 3 {
		t.Fatalf("run = %d %v", len(got), err)
	}
	anon, err := run(nil)
	if err != nil || len(anon) != 0 {
		t.Fatalf("anonymous run sees %d private events", len(anon))
	}
	// Overwrite changes behaviour.
	if err := d.SavePredefinedQuery("bright-flares", "bursts actually",
		HLEFilter{Kind: "gamma-ray-burst"}); err != nil {
		t.Fatal(err)
	}
	got, _ = run(alice)
	if len(got) != 3 || got[0].KindHint != "gamma-ray-burst" {
		t.Fatalf("overwritten query = %v", got)
	}
}

func TestLoadUnitCompensatesOnArchiveFailure(t *testing.T) {
	d := newTestDM(t)
	day := telemetry.GenerateDay(1, telemetry.Config{
		Seed: 321, DayLength: 600, BackgroundRate: 3, Flares: 1, Bursts: 0,
	})
	u := telemetry.SegmentDay(day, 600)[0]
	// The archive dies before the load.
	d.archives.Get("disk-0").SetOnline(false)
	if _, err := d.LoadUnit(u); err == nil {
		t.Fatal("load succeeded against an offline archive")
	}
	// No partial state: no raw unit tuple, no orphan location entries.
	if n := d.DomainDB().TableLen(schema.TableRawUnits); n != 0 {
		t.Fatalf("raw_units = %d after failed load", n)
	}
	if n := d.MetaDB().TableLen(schema.TableLocEntries); n != 0 {
		t.Fatalf("loc_entries = %d after failed load", n)
	}
	// The archive recovers and the same unit loads cleanly.
	d.archives.Get("disk-0").SetOnline(true)
	if _, err := d.LoadUnit(u); err != nil {
		t.Fatal(err)
	}
}

func TestLoadPhoenixSecondDataSource(t *testing.T) {
	d := newTestDM(t)
	p := telemetry.GeneratePhoenix(1, 0, telemetry.PhoenixConfig{
		Seed: 17, Bursts: 2, TimeBins: 256, FreqBins: 32,
	})
	rep, err := d.LoadPhoenix(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bursts == 0 {
		t.Fatal("no radio bursts loaded")
	}
	// Double load rejected.
	if _, err := d.LoadPhoenix(p); err == nil {
		t.Fatal("phoenix file loaded twice")
	}
	// The events sit in both the Phoenix catalog and the extended catalog,
	// publicly visible (§2.2).
	phoenix, err := d.QueryHLEs(nil, HLEFilter{Catalog: PhoenixCat})
	if err != nil || len(phoenix) != rep.Bursts {
		t.Fatalf("phoenix catalog = %d %v", len(phoenix), err)
	}
	extended, err := d.QueryHLEs(nil, HLEFilter{Catalog: ExtendedCat, Kind: "radio-burst"})
	if err != nil || len(extended) != rep.Bursts {
		t.Fatalf("extended catalog radio bursts = %d %v", len(extended), err)
	}
	// The spectrogram file resolves through generic name mapping and
	// parses back into the foreign format.
	data, rn, err := d.ReadItem(nil, phoenix[0].ItemID)
	if err != nil || rn.Format != "phx2" || rn.Transform != "phx2-decode" {
		t.Fatalf("item = %+v %v", rn, err)
	}
	parsed, err := telemetry.ParsePhoenix(data)
	if err != nil || parsed.Day != 1 {
		t.Fatalf("parse = %+v %v", parsed, err)
	}
	// RHESSI data coexists: load a photon unit afterwards.
	day := telemetry.GenerateDay(1, telemetry.Config{
		Seed: 55, DayLength: 600, BackgroundRate: 3, Flares: 1, Bursts: 0,
	})
	if _, err := d.LoadUnit(telemetry.SegmentDay(day, 600)[0]); err != nil {
		t.Fatal(err)
	}
}

func TestUsageMonitoring(t *testing.T) {
	d := newTestDM(t)
	loadDays(t, d, 2)
	totals, err := d.UsageTotals()
	if err != nil {
		t.Fatal(err)
	}
	if totals["units_loaded"] != 2 {
		t.Fatalf("units_loaded = %v", totals["units_loaded"])
	}
	if totals["photons_loaded"] <= 0 {
		t.Fatalf("photons_loaded = %v", totals["photons_loaded"])
	}
	if err := d.RecordUsage("custom_metric", 3.5, "alice"); err != nil {
		t.Fatal(err)
	}
	totals, _ = d.UsageTotals()
	if totals["custom_metric"] != 3.5 {
		t.Fatalf("custom_metric = %v", totals["custom_metric"])
	}
}
