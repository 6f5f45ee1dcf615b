package dm

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/archive"
	"repro/internal/lake"
)

// TestAsOfPinnedReprocessing is the full reprocessing story: pin the
// catalog, then let retention relocate old units off the lake and
// compaction+GC churn the containers — the pinned session keeps reading
// the exact original bytes.
func TestAsOfPinnedReprocessing(t *testing.T) {
	d := newTestDM(t)
	tape, err := archive.NewLake("tape-0", archive.Tape, t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterArchive(tape, "/archives/tape-0"); err != nil {
		t.Fatal(err)
	}
	loadDays(t, d, 4)
	sys := d.systemSession()

	units, err := d.UnitsInRange(0, 4*600)
	if err != nil || len(units) == 0 {
		t.Fatalf("units: %d, %v", len(units), err)
	}
	// Snapshot every unit's bytes before any churn: the reprocessing
	// oracle.
	want := make(map[string][]byte, len(units))
	for _, u := range units {
		data, _, err := d.ReadItem(sys, u.ItemID)
		if err != nil {
			t.Fatalf("read %s: %v", u.ItemID, err)
		}
		want[u.ItemID] = data
	}

	// Pin the catalog as of now.
	v, err := d.AsOf(sys, 0)
	if err != nil {
		t.Fatalf("AsOf: %v", err)
	}
	pinned := v.Commit()

	// Retention moves days 1-2 to tape (Remove = tombstone commit), then
	// maintenance compacts and GCs as far as pins allow.
	if err := d.SetRetentionRule(RetentionRule{MaxAgeDays: 1, ToArchive: "tape-0"}); err != nil {
		t.Fatal(err)
	}
	rep, err := d.ApplyRetention()
	if err != nil || rep.Migrated == 0 {
		t.Fatalf("retention: %+v, %v", rep, err)
	}
	opts := lake.CompactOptions{SmallBytes: 1 << 20, MinMerge: 2, MaxMerge: 100}
	if err := d.LakeMaintenance(opts, 0); err != nil {
		t.Fatalf("maintenance: %v", err)
	}

	// The acceptance property at the dm layer: every item reads
	// bit-identically through the pinned view.
	for _, u := range units {
		data, rn, err := v.ReadItem(u.ItemID)
		if err != nil {
			t.Fatalf("as-of read %s: %v", u.ItemID, err)
		}
		if !bytes.Equal(data, want[u.ItemID]) {
			t.Fatalf("as-of read %s diverged (%d vs %d bytes, now on %s)",
				u.ItemID, len(data), len(want[u.ItemID]), rn.ArchiveID)
		}
	}

	// Crucial GC-safety check: the pinned commit still opens, meaning the
	// horizon never passed it while the pin was held.
	lk := d.DefaultArchive().Lake()
	if lk.Horizon() > pinned {
		t.Fatalf("GC horizon %d passed pinned commit %d", lk.Horizon(), pinned)
	}
	if _, err := lk.OpenAt(pinned); err != nil {
		t.Fatalf("pinned commit no longer openable: %v", err)
	}

	// Release the pin; now maintenance may reclaim the tombstoned
	// containers, and relocated items remain readable from tape (archive
	// data is write-once, so still bit-identical).
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.LakeMaintenance(opts, 0); err != nil {
		t.Fatal(err)
	}
	v2, err := d.AsOf(sys, 0) // pin at the new head
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	for _, u := range units {
		data, _, err := v2.ReadItem(u.ItemID)
		if err != nil {
			t.Fatalf("post-gc as-of read %s: %v", u.ItemID, err)
		}
		if !bytes.Equal(data, want[u.ItemID]) {
			t.Fatalf("post-gc as-of read %s diverged", u.ItemID)
		}
	}
}

// TestRetentionNeverDeletesPinnedContainers drives retention + GC directly
// against the journal and asserts the satellite requirement: a retention
// rule must never delete a container still referenced by a pinned
// time-travel commit.
func TestRetentionNeverDeletesPinnedContainers(t *testing.T) {
	d := newTestDM(t)
	tape, err := archive.NewLake("tape-0", archive.Tape, t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterArchive(tape, "/archives/tape-0"); err != nil {
		t.Fatal(err)
	}
	loadDays(t, d, 3)
	lk := d.DefaultArchive().Lake()
	sys := d.systemSession()

	// Record the physical payload of the pinned view.
	v, err := d.AsOf(sys, 0)
	if err != nil {
		t.Fatal(err)
	}
	pinnedRels := v.List()
	pinnedData := make(map[string][]byte, len(pinnedRels))
	for _, rel := range pinnedRels {
		data, err := v.ReadPath(rel)
		if err != nil {
			t.Fatalf("pinned read %s: %v", rel, err)
		}
		pinnedData[rel] = data
	}

	// Retention tombstones EVERY unit (MaxAgeDays 0 moves all but the
	// newest day; run twice with an aggressive rule to drain), then GC is
	// asked to collect everything.
	if err := d.SetRetentionRule(RetentionRule{MaxAgeDays: 0, ToArchive: "tape-0"}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyRetention(); err != nil {
		t.Fatal(err)
	}
	opts := lake.CompactOptions{SmallBytes: 1 << 30, MinMerge: 2, MaxMerge: 1000, DeadFraction: 0.01}
	for i := 0; i < 3; i++ {
		if err := d.LakeMaintenance(opts, 0); err != nil {
			t.Fatalf("maintenance %d: %v", i, err)
		}
	}

	// Every pinned member still reads bit-identically from the journal.
	for rel, data := range pinnedData {
		got, err := v.ReadPath(rel)
		if err != nil {
			t.Fatalf("pinned member %s lost to GC: %v", rel, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("pinned member %s diverged", rel)
		}
	}

	// After the pin is dropped, the same maintenance reclaims for real.
	before := lk.PhysBytes()
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.LakeMaintenance(opts, 0); err != nil {
		t.Fatal(err)
	}
	if after := lk.PhysBytes(); after >= before {
		t.Fatalf("GC reclaimed nothing after unpin (phys %d -> %d)", before, after)
	}
}

// TestAsOfAttachResumesAfterRestartToken checks the checkpoint flow: a
// reprocessing job records v.Token(), crashes, and resumes via AsOfAttach.
func TestAsOfAttachResumesAfterRestartToken(t *testing.T) {
	d := newTestDM(t)
	loadDays(t, d, 1)
	sys := d.systemSession()
	units, _ := d.UnitsInRange(0, 600)
	if len(units) == 0 {
		t.Fatal("no units")
	}
	orig, _, err := d.ReadItem(sys, units[0].ItemID)
	if err != nil {
		t.Fatal(err)
	}

	v, err := d.AsOf(sys, 0)
	if err != nil {
		t.Fatal(err)
	}
	token := v.Token()
	// "Crash": drop the view object without Close; the pin is durable.
	v2, err := d.AsOfAttach(sys, token)
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	got, _, err := v2.ReadItem(units[0].ItemID)
	if err != nil || !bytes.Equal(got, orig) {
		t.Fatalf("resumed read: %d bytes, %v", len(got), err)
	}
	if err := v2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AsOfAttach(sys, token); err == nil {
		t.Fatal("attach after close succeeded")
	}
}

// TestAsOfRequiresSession: as-of reads are never anonymous, and an
// offline archive opens no view.
func TestAsOfRequiresSession(t *testing.T) {
	d := newTestDM(t)
	if _, err := d.AsOf(nil, 0); err == nil {
		t.Fatal("AsOf without session succeeded")
	}
	if _, err := d.AsOfAttach(nil, "pin-1"); err == nil {
		t.Fatal("AsOfAttach without session succeeded")
	}
	d.DefaultArchive().SetOnline(false)
	if _, err := d.AsOf(d.systemSession(), 0); !errors.Is(err, archive.ErrOffline) {
		t.Fatalf("AsOf on an offline archive: %v, want ErrOffline", err)
	}
}

// TestLakeMaintenanceCoversEveryArchive: a relocation target is a lake
// too, so purging a file from it only tombstones the bytes; maintenance
// must reach every registered archive — not only the default one — for
// the tier's capacity to come back.
func TestLakeMaintenanceCoversEveryArchive(t *testing.T) {
	d := newTestDM(t)
	const tapeCap = 1 << 10
	tape, err := archive.NewLake("tape-0", archive.Tape, t.TempDir(), tapeCap)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterArchive(tape, "/archives/tape-0"); err != nil {
		t.Fatal(err)
	}
	itemID, _ := d.nextID("item")
	payload := bytes.Repeat([]byte("u"), 600)
	if err := d.StoreItemFiles(itemID, ImportUser, true, []StoredFile{
		{Suffix: ".fits.gz", Format: "fits.gz", Data: payload},
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.RelocateItem(itemID, "tape-0"); err != nil {
		t.Fatal(err)
	}
	// Purge the tape copy by relocating the item back to disk.
	if err := d.RelocateItem(itemID, "disk-0"); err != nil {
		t.Fatal(err)
	}
	if len(tape.List()) != 0 || tape.CapacityLeft() != tapeCap-int64(len(payload)) {
		t.Fatalf("after purge: tape holds %d files, %d bytes left (a remove alone frees nothing)",
			len(tape.List()), tape.CapacityLeft())
	}
	if err := d.RelocateItem(itemID, "tape-0"); !errors.Is(err, archive.ErrFull) {
		t.Fatalf("relocation into the unreclaimed tier: %v, want ErrFull", err)
	}

	if err := d.LakeMaintenance(lake.DefaultCompactOptions(), 0); err != nil {
		t.Fatalf("maintenance: %v", err)
	}
	if left := tape.CapacityLeft(); left != tapeCap {
		t.Fatalf("tape capacity after maintenance = %d, want %d back", left, tapeCap)
	}
	if err := d.RelocateItem(itemID, "tape-0"); err != nil {
		t.Fatalf("relocation after maintenance: %v", err)
	}
	if data, _, err := d.ReadItem(d.systemSession(), itemID); err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("read after the round trip: %d bytes, %v", len(data), err)
	}

	// A dismounted tier is skipped, not an error.
	tape.SetOnline(false)
	if err := d.LakeMaintenance(lake.DefaultCompactOptions(), 0); err != nil {
		t.Fatalf("maintenance with tape offline: %v", err)
	}
}
