package dm

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/archive"
	"repro/internal/lake"
	"repro/internal/schema"
)

// tombstone removes an item's file from the archive: the system remove that
// ingest compensation and entity deletes use, so the journal gets a
// tombstone commit while the item's location entries stay.
func tombstone(t *testing.T, d *DM, itemID string) {
	t.Helper()
	rn, err := d.Resolve(itemID, schema.NameFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.DefaultArchive().Remove(rn.Path); err != nil {
		t.Fatalf("remove %s: %v", rn.Path, err)
	}
}

// TestAsOfPinnedReprocessing is the full reprocessing story: pin the
// catalog, then tombstone old units and let compaction+GC churn the
// containers — the pinned session keeps reading the exact original bytes.
func TestAsOfPinnedReprocessing(t *testing.T) {
	d := newTestDM(t)
	loadDays(t, d, 4)
	sys := d.systemSession()

	units, err := d.UnitsInRange(0, 4*600)
	if err != nil || len(units) != 4 {
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

	// Days 1-2 are tombstoned, then maintenance compacts and GCs as far
	// as pins allow.
	gone := map[string]bool{units[0].ItemID: true, units[1].ItemID: true}
	for id := range gone {
		tombstone(t, d, id)
	}
	opts := lake.CompactOptions{SmallBytes: 1 << 20, MinMerge: 2, MaxMerge: 100}
	if err := d.LakeMaintenance(opts, 0); err != nil {
		t.Fatalf("maintenance: %v", err)
	}

	// The acceptance property at the dm layer: every item reads
	// bit-identically through the pinned view.
	for _, u := range units {
		data, _, err := v.ReadItem(u.ItemID)
		if err != nil {
			t.Fatalf("as-of read %s: %v", u.ItemID, err)
		}
		if !bytes.Equal(data, want[u.ItemID]) {
			t.Fatalf("as-of read %s diverged (%d vs %d bytes)",
				u.ItemID, len(data), len(want[u.ItemID]))
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
	// containers. At the new head the tombstoned items are gone and the
	// untouched ones still read bit-identically.
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
		if gone[u.ItemID] {
			if !errors.Is(err, lake.ErrNotFound) {
				t.Fatalf("post-gc read of tombstoned %s: %d bytes, %v; want ErrNotFound", u.ItemID, len(data), err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("post-gc as-of read %s: %v", u.ItemID, err)
		}
		if !bytes.Equal(data, want[u.ItemID]) {
			t.Fatalf("post-gc as-of read %s diverged", u.ItemID)
		}
	}
}

// TestGCNeverDeletesPinnedContainers tombstones every unit and runs
// compaction + GC against the journal: GC must never delete a container
// still referenced by a pinned time-travel commit.
func TestGCNeverDeletesPinnedContainers(t *testing.T) {
	d := newTestDM(t)
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

	// Tombstone EVERY unit, then ask GC to collect everything.
	units, err := d.UnitsInRange(0, 3*600)
	if err != nil || len(units) != 3 {
		t.Fatalf("units: %d, %v", len(units), err)
	}
	for _, u := range units {
		tombstone(t, d, u.ItemID)
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

// TestLakeMaintenanceCoversEveryArchive: a removed file is only a
// tombstone, so its bytes keep counting against the archive's capacity
// until maintenance compacts and collects them; an offline archive is
// skipped, not an error.
func TestLakeMaintenanceCoversEveryArchive(t *testing.T) {
	const capBytes = 1 << 10
	d := newTestDMCap(t, capBytes)
	arch := d.DefaultArchive()
	payload := bytes.Repeat([]byte("u"), 600)
	store := func() (string, error) {
		itemID, _ := d.nextID("item")
		return itemID, d.StoreItemFiles(itemID, ImportUser, true, []StoredFile{
			{Suffix: ".fits.gz", Format: "fits.gz", Data: payload},
		})
	}
	first, err := store()
	if err != nil {
		t.Fatal(err)
	}
	tombstone(t, d, first)
	if len(arch.List()) != 0 || arch.Lake().PhysBytes() != int64(len(payload)) {
		t.Fatalf("after remove: %d files, %d physical bytes (a remove alone frees nothing)",
			len(arch.List()), arch.Lake().PhysBytes())
	}
	if _, err := store(); !errors.Is(err, archive.ErrFull) {
		t.Fatalf("store into the unreclaimed archive: %v, want ErrFull", err)
	}

	if err := d.LakeMaintenance(lake.DefaultCompactOptions(), 0); err != nil {
		t.Fatalf("maintenance: %v", err)
	}
	if phys := arch.Lake().PhysBytes(); phys != 0 {
		t.Fatalf("physical bytes after maintenance = %d, want 0", phys)
	}
	second, err := store()
	if err != nil {
		t.Fatalf("store after maintenance: %v", err)
	}
	if data, _, err := d.ReadItem(d.systemSession(), second); err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("read after maintenance: %d bytes, %v", len(data), err)
	}

	// An offline archive is skipped, not an error.
	arch.SetOnline(false)
	head := arch.Lake().Head()
	if err := d.LakeMaintenance(lake.DefaultCompactOptions(), 0); err != nil {
		t.Fatalf("maintenance with the archive offline: %v", err)
	}
	if arch.Lake().Head() != head {
		t.Fatal("maintenance committed to an offline archive")
	}
}
