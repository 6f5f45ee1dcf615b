package dm

import (
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/telemetry"
)

// TestLoadUnitsMatchesSerial: the pipeline must leave the repository in the
// same state as the serial loader — same tuples in every table, same files,
// same read-back photons.
func TestLoadUnitsMatchesSerial(t *testing.T) {
	day := telemetry.GenerateDay(7, telemetry.Config{DayLength: 14400, Flares: 3, Bursts: 1})
	units := telemetry.SegmentDay(day, 1800)
	if len(units) < 4 {
		t.Fatalf("segmentation gave %d units", len(units))
	}

	serial := newTestDM(t)
	for _, u := range units {
		if _, err := serial.LoadUnit(u); err != nil {
			t.Fatal(err)
		}
	}
	piped := newTestDM(t)
	reports, err := piped.LoadUnits(units, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(units) {
		t.Fatalf("reports=%d, want %d", len(reports), len(units))
	}
	for i, r := range reports {
		if r == nil {
			t.Fatalf("report %d is nil", i)
		}
		if r.UnitID != units[i].Name() {
			t.Fatalf("report %d out of order: %s != %s", i, r.UnitID, units[i].Name())
		}
	}

	for _, table := range []string{
		schema.TableRawUnits, schema.TableViews, schema.TableHLE,
		schema.TableCatalogMembers, schema.TableLocEntries, schema.TableLineage,
	} {
		if got, want := piped.routeDB(table).TableLen(table), serial.routeDB(table).TableLen(table); got != want {
			t.Errorf("table %s: pipeline=%d serial=%d", table, got, want)
		}
	}

	// Read-back equivalence: the photons come out identical either way.
	sys := piped.systemSession()
	t0, t1 := units[0].TStart, units[len(units)-1].TStop
	p1, _, err := piped.RawPhotons(sys, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := serial.RawPhotons(serial.systemSession(), t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1) != len(p2) {
		t.Fatalf("read-back photons: pipeline=%d serial=%d", len(p1), len(p2))
	}
	// And the catalogs carry the same membership counts.
	for _, cat := range []string{StandardCat, ExtendedCat} {
		n1, err := piped.CatalogMemberCount(cat)
		if err != nil {
			t.Fatal(err)
		}
		n2, err := serial.CatalogMemberCount(cat)
		if err != nil {
			t.Fatal(err)
		}
		if n1 != n2 {
			t.Errorf("catalog %s: pipeline=%d serial=%d members", cat, n1, n2)
		}
	}
}

// TestLoadUnitsDuplicate: a unit that is already loaded fails the batch
// with the same error the serial loader gives.
func TestLoadUnitsDuplicate(t *testing.T) {
	d := newTestDM(t)
	day := telemetry.GenerateDay(3, telemetry.Config{DayLength: 7200})
	units := telemetry.SegmentDay(day, 3600)
	if _, err := d.LoadUnit(units[0]); err != nil {
		t.Fatal(err)
	}
	_, err := d.LoadUnits(units, 2)
	if err == nil || !strings.Contains(err.Error(), "already loaded") {
		t.Fatalf("want already-loaded error, got %v", err)
	}
}

// TestLoadUnitsEmpty: a nil batch is a no-op.
func TestLoadUnitsEmpty(t *testing.T) {
	d := newTestDM(t)
	reports, err := d.LoadUnits(nil, 4)
	if err != nil || reports != nil {
		t.Fatalf("empty load: %v %v", reports, err)
	}
}

// TestNextIDsBulk: the bulk allocator hands out unique ids, reuses the
// local window, and claims at most what it needs beyond a block.
func TestNextIDsBulk(t *testing.T) {
	d := newTestDM(t)
	seen := map[string]bool{}
	for _, n := range []int{1, 5, 64, 200, 3} {
		ids, err := d.nextIDs("bulk", n)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != n {
			t.Fatalf("nextIDs(%d) gave %d ids", n, len(ids))
		}
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("duplicate id %s", id)
			}
			seen[id] = true
		}
	}
	// Interleaves cleanly with the single-id form.
	id, err := d.nextID("bulk")
	if err != nil {
		t.Fatal(err)
	}
	if seen[id] {
		t.Fatalf("nextID reissued %s", id)
	}
}

// loadDays loads mission days 1..days, one unit per day.
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

func TestLoadUnitCompensatesOnArchiveFailure(t *testing.T) {
	d := newTestDM(t)
	day := telemetry.GenerateDay(1, telemetry.Config{
		Seed: 321, DayLength: 600, BackgroundRate: 3, Flares: 1, Bursts: 0,
	})
	u := telemetry.SegmentDay(day, 600)[0]
	// The archive dies before the load.
	d.DefaultArchive().SetOnline(false)
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
	d.DefaultArchive().SetOnline(true)
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
