package torture

import (
	"io"
	"log"
	"path"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/dm"
	"repro/internal/fault"
	"repro/internal/minidb"
	"repro/internal/schema"
)

// countOps executes the workload once with injection disabled, checks the
// final state against the model, and returns the total mutating-I/O count —
// the number of crash sites the enumeration tests iterate over.
func countOps(t *testing.T) int {
	t.Helper()
	fs := fault.NewFS()
	m, err := Run(fs, false)
	if err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	total := fs.OpCount()
	if err := Verify(fs, m, fault.ModeCrash); err != nil {
		t.Fatalf("clean run final state mismatch: %v", err)
	}
	return total
}

func TestWorkloadHasHundredsOfCrashSites(t *testing.T) {
	total := countOps(t)
	if total < 200 {
		t.Fatalf("scripted workload performs only %d mutating I/O operations; the torture harness needs hundreds of crash sites", total)
	}
	t.Logf("scripted workload performs %d mutating I/O operations", total)
}

// TestCrashEnumeration is the tentpole: for every fault mode and every I/O
// operation N of the scripted workload, crash at exactly op N, reboot,
// and verify the recovered database and archive against the in-memory model
// of acknowledged operations.
func TestCrashEnumeration(t *testing.T) {
	total := countOps(t)
	modes := []fault.Mode{fault.ModeCrash, fault.ModeTorn, fault.ModePartialFsync, fault.ModeBitFlip}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			for n := 1; n <= total; n++ {
				fs := fault.NewFS()
				fs.SetFault(n, mode)
				m, err := Run(fs, false)
				if err == nil || !fs.Crashed() {
					t.Fatalf("crash site %d/%d: workload did not crash (err=%v)", n, total, err)
				}
				fs.Recover()
				if verr := Verify(fs, m, mode); verr != nil {
					t.Fatalf("crash site %d/%d (crashed in %q): %v\nsurviving files: %s",
						n, total, err, verr, strings.Join(fs.Paths(), " "))
				}
			}
		})
	}
}

// TestENOSPCEnumeration injects a persistent out-of-space condition starting
// at every I/O operation in turn. The process does not crash: operations
// fail, the database and archive must remain usable, and once space is
// freed the system serves exactly the operations that succeeded.
func TestENOSPCEnumeration(t *testing.T) {
	total := countOps(t)
	for n := 1; n <= total; n++ {
		fs := fault.NewFS()
		fs.SetFault(n, fault.ModeENOSPC)
		m, _ := Run(fs, true)
		if fs.Crashed() {
			t.Fatalf("site %d/%d: ENOSPC must not crash the filesystem", n, total)
		}
		fs.ClearFault() // operator frees disk space
		if verr := Verify(fs, m, fault.ModeENOSPC); verr != nil {
			t.Fatalf("ENOSPC from op %d/%d: %v\nfiles: %s",
				n, total, verr, strings.Join(fs.Paths(), " "))
		}
	}
}

// --- DM-level torture: the StoreItemFiles durability contract -------------

const (
	dmDBDir   = "dmdb"
	dmArchDir = "dmarch"
	dmArchID  = "a0"
)

type dmItem struct {
	id    string
	files []dm.StoredFile
}

func dmItems() []dmItem {
	var items []dmItem
	for i := 0; i < 4; i++ {
		id := []string{"hle-1001", "hle-1002", "ana-2001", "cat-3001"}[i]
		items = append(items, dmItem{id: id, files: []dm.StoredFile{
			{Suffix: ".gif", Format: "gif", Data: payload(id+"-g", 700+90*i)},
			{Suffix: ".log", Format: "log", Data: payload(id+"-l", 120+11*i)},
		}})
	}
	return items
}

// dmRun opens a DM over the fault filesystem and stores the items in
// sequence, recording which StoreItemFiles calls were acknowledged.
func dmRun(fs *fault.FS) (acked map[string]bool, err error) {
	acked = make(map[string]bool)
	db, err := minidb.OpenVFS(fs, dmDBDir, schema.AllSchemas()...)
	if err != nil {
		return acked, err
	}
	arch, err := archive.NewLakeVFS(fs, dmArchID, archive.Disk, dmArchDir, 0)
	if err != nil {
		return acked, err
	}
	d, err := dm.Open(dm.Options{
		Node:           "dm-torture",
		MetaDB:         db,
		DefaultArchive: dmArchID,
		URLRoot:        "http://hedc.test",
		Logger:         log.New(io.Discard, "", 0),
	})
	if err != nil {
		return acked, err
	}
	if err := d.RegisterArchive(arch, "/archives/a0"); err != nil {
		return acked, err
	}
	for _, it := range dmItems() {
		if err := d.StoreItemFiles(it.id, dm.ImportUser, true, it.files); err != nil {
			return acked, err
		}
		acked[it.id] = true
	}
	return acked, nil
}

// verifyDM checks both halves of the StoreItemFiles durability contract on
// the recovered filesystem: every acknowledged item resolves to intact
// bytes, and no location entry — acknowledged or surfaced in-flight —
// points at missing or wrong data.
func verifyDM(t *testing.T, fs *fault.FS, acked map[string]bool, mode fault.Mode, site int) {
	t.Helper()
	db, err := minidb.OpenVFS(fs, dmDBDir, schema.AllSchemas()...)
	if err != nil {
		t.Fatalf("site %d (%s): reopen db: %v", site, mode, err)
	}
	defer db.Close()
	arch, err := archive.NewLakeVFS(fs, dmArchID, archive.Disk, dmArchDir, 0)
	if err != nil {
		t.Fatalf("site %d (%s): reopen archive: %v", site, mode, err)
	}

	// Expected content by archive path, for every item the workload could
	// have touched.
	want := make(map[string][]byte)
	owner := make(map[string]string) // path -> item id
	for _, it := range dmItems() {
		for _, f := range it.files {
			p := path.Join(f.Format, it.id+f.Suffix)
			want[p] = f.Data
			owner[p] = it.id
		}
	}

	res, err := db.Query(minidb.Query{Table: schema.TableLocEntries})
	if err != nil {
		t.Fatalf("site %d (%s): dump loc_entries: %v", site, mode, err)
	}
	fileEntries := make(map[string][]string) // item id -> archive paths
	for _, row := range res.Rows {
		if row[2].Str() != schema.NameFile {
			continue
		}
		item, p := row[1].Str(), row[4].Str()
		fileEntries[item] = append(fileEntries[item], p)
	}

	// Half one: acknowledged items are fully mapped and readable.
	for _, it := range dmItems() {
		if !acked[it.id] {
			continue
		}
		if len(fileEntries[it.id]) != len(it.files) {
			t.Fatalf("site %d (%s): acknowledged item %s has %d file entries after recovery, want %d",
				site, mode, it.id, len(fileEntries[it.id]), len(it.files))
		}
	}
	// Half two: every entry points at durable, intact bytes — in-flight
	// entries included (files are made durable strictly before the entries
	// that reference them).
	for item, paths := range fileEntries {
		if !acked[item] && mode == fault.ModeCrash {
			t.Fatalf("site %d: crash mode surfaced location entries for un-acknowledged item %s", site, item)
		}
		for _, p := range paths {
			wantData, known := want[p]
			if !known {
				t.Fatalf("site %d (%s): entry for item %s references unexpected path %s", site, mode, item, p)
			}
			data, err := arch.Read(p)
			if err != nil {
				t.Fatalf("site %d (%s): location entry for %s points at unreadable file %s: %v",
					site, mode, item, p, err)
			}
			if string(data) != string(wantData) {
				t.Fatalf("site %d (%s): file %s recovered with wrong content", site, mode, p)
			}
		}
	}
}

// TestDMStoreItemFilesTorture enumerates every crash site of the DM-level
// store path (archive stores + id allocation + location-entry transaction).
func TestDMStoreItemFilesTorture(t *testing.T) {
	fs := fault.NewFS()
	acked, err := dmRun(fs)
	if err != nil {
		t.Fatalf("clean DM run failed: %v", err)
	}
	if len(acked) != len(dmItems()) {
		t.Fatalf("clean DM run acknowledged %d items, want %d", len(acked), len(dmItems()))
	}
	total := fs.OpCount()
	verifyDM(t, fs, acked, fault.ModeCrash, 0)
	t.Logf("DM store path performs %d mutating I/O operations", total)

	for _, mode := range []fault.Mode{fault.ModeCrash, fault.ModeTorn} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			for n := 1; n <= total; n++ {
				fs := fault.NewFS()
				fs.SetFault(n, mode)
				acked, err := dmRun(fs)
				if err == nil || !fs.Crashed() {
					t.Fatalf("site %d/%d: DM run did not crash (err=%v)", n, total, err)
				}
				fs.Recover()
				verifyDM(t, fs, acked, mode, n)
			}
		})
	}
}

// TestConcurrentCommitters tortures the group-commit WAL: concurrent
// committers push disjoint insert batches through DB.Apply while the
// filesystem is rigged to crash at each I/O site of a clean run in turn.
// Grouping is nondeterministic, so a faulted run that happens to finish
// without reaching the rigged site is simply skipped.
func TestConcurrentCommitters(t *testing.T) {
	const workers, batches, rowsPerBatch = 4, 6, 5

	fs := fault.NewFS()
	cm, err := RunConcurrent(fs, workers, batches, rowsPerBatch)
	if err != nil {
		t.Fatalf("clean concurrent run failed: %v", err)
	}
	if cm.Acked() != workers*batches {
		t.Fatalf("clean run acknowledged %d/%d batches", cm.Acked(), workers*batches)
	}
	if verr := VerifyConcurrent(fs, cm, fault.ModeCrash); verr != nil {
		t.Fatalf("clean concurrent run state mismatch: %v", verr)
	}
	total := fs.OpCount()
	t.Logf("clean concurrent run: %d mutating I/O operations for %d batches", total, workers*batches)

	for _, mode := range []fault.Mode{fault.ModeCrash, fault.ModeTorn, fault.ModePartialFsync} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			crashed := 0
			for n := 1; n <= total; n++ {
				fs := fault.NewFS()
				fs.SetFault(n, mode)
				cm, _ := RunConcurrent(fs, workers, batches, rowsPerBatch)
				if !fs.Crashed() {
					continue // this interleaving never reached op n
				}
				crashed++
				fs.Recover()
				if verr := VerifyConcurrent(fs, cm, mode); verr != nil {
					t.Fatalf("crash site %d/%d: %v", n, total, verr)
				}
			}
			if crashed == 0 {
				t.Fatal("no enumerated site ever crashed; the harness is not exercising the WAL")
			}
			t.Logf("%d/%d sites crashed and verified", crashed, total)
		})
	}
}
