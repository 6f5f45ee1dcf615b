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
