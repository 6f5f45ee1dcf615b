package archive_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/archive"
	"repro/internal/fault"
)

// newFaultArchive opens an archive over a fault filesystem.
func newFaultArchive(t *testing.T, fs *fault.FS) *archive.Archive {
	t.Helper()
	a, err := archive.NewLakeVFS(fs, "t0", archive.Disk, "arch", 0)
	if err != nil {
		t.Fatalf("open archive: %v", err)
	}
	return a
}

// crashSites runs op once per crash site: before each run it rebuilds the
// archive on a fresh filesystem with prepare, arms a crash of the given
// mode at the site-th I/O operation of op, and — when op did hit the crash
// — recovers the filesystem, reopens the archive and hands it to check.
// It stops once a site lies past op's last operation.
func crashSites(t *testing.T, mode fault.Mode, prepare func(a *archive.Archive), op func(a *archive.Archive) error, check func(site int, acked bool, a *archive.Archive)) {
	t.Helper()
	for site := 1; ; site++ {
		fs := fault.NewFS()
		a := newFaultArchive(t, fs)
		prepare(a)
		fs.SetFault(fs.OpCount()+site, mode)
		err := op(a)
		if !fs.Crashed() {
			if site == 1 {
				t.Fatal("fault never fired")
			}
			return
		}
		fs.Recover()
		check(site, err == nil, newFaultArchive(t, fs))
	}
}

func mustStore(t *testing.T, a *archive.Archive, rel, data string) {
	t.Helper()
	if err := a.Store(rel, []byte(data)); err != nil {
		t.Fatalf("store %s: %v", rel, err)
	}
}

func wantFile(t *testing.T, site int, a *archive.Archive, rel, want string) {
	t.Helper()
	if got, err := a.Read(rel); err != nil || string(got) != want {
		t.Fatalf("site %d: %s damaged by the crash: %q, %v", site, rel, got, err)
	}
}

// TestAcknowledgedStoreSurvivesCrash: once Store returns, a power cut that
// drops every unsynced byte must not lose the file — wherever in the next
// store it strikes — and the store it interrupted never surfaces unless it
// too was acknowledged (a crash in the post-acknowledgement head publish).
func TestAcknowledgedStoreSurvivesCrash(t *testing.T) {
	crashSites(t, fault.ModeCrash,
		func(a *archive.Archive) { mustStore(t, a, "gif/item.gif", "acknowledged payload") },
		func(a *archive.Archive) error { return a.Store("gif/other.gif", []byte("in flight")) },
		func(site int, acked bool, a *archive.Archive) {
			wantFile(t, site, a, "gif/item.gif", "acknowledged payload")
			got, err := a.Read("gif/other.gif")
			switch {
			case acked && (err != nil || string(got) != "in flight"):
				t.Fatalf("site %d: acknowledged second store lost: %q, %v", site, got, err)
			case !acked && !errors.Is(err, archive.ErrNotFound):
				t.Fatalf("site %d: un-acknowledged store surfaced after power cut: %q, %v", site, got, err)
			}
		})
}

// TestTornJournalTailTolerated tears the second store's I/O at every site
// with the lenient page cache (unsynced bytes persist, the crashing write
// half-lands): reopen must drop a torn journal record and keep every
// commit before it.
func TestTornJournalTailTolerated(t *testing.T) {
	crashSites(t, fault.ModeTorn,
		func(a *archive.Archive) { mustStore(t, a, "log/first.log", "first") },
		func(a *archive.Archive) error { return a.Store("log/second.log", []byte("second")) },
		func(site int, acked bool, a *archive.Archive) {
			wantFile(t, site, a, "log/first.log", "first")
			// The second store made it in whole or not at all.
			got, err := a.Read("log/second.log")
			if err == nil && string(got) != "second" {
				t.Fatalf("site %d: torn store surfaced wrong content: %q", site, got)
			}
			if err != nil && (acked || !errors.Is(err, archive.ErrNotFound)) {
				t.Fatalf("site %d: second store (acked=%v) unreadable: %v", site, acked, err)
			}
			// The recovered archive keeps accepting stores on the repaired tail.
			mustStore(t, a, "log/third.log", "third")
			wantFile(t, site, a, "log/third.log", "third")
		})
}

// TestRemoveCrashNeverLosesOtherFiles enumerates every crash site of a
// Remove: files that were not being removed stay intact, and the removed
// one is either still there whole or fully gone.
func TestRemoveCrashNeverLosesOtherFiles(t *testing.T) {
	crashSites(t, fault.ModeCrash,
		func(a *archive.Archive) {
			mustStore(t, a, "a/keep.dat", "keep")
			mustStore(t, a, "a/drop.dat", "drop")
		},
		func(a *archive.Archive) error { return a.Remove("a/drop.dat") },
		func(site int, acked bool, a *archive.Archive) {
			wantFile(t, site, a, "a/keep.dat", "keep")
			got, err := a.Read("a/drop.dat")
			switch {
			case acked && !errors.Is(err, archive.ErrNotFound):
				t.Fatalf("site %d: acknowledged remove undone: %q, %v", site, got, err)
			case err == nil && string(got) != "drop":
				t.Fatalf("site %d: half-removed file has wrong content: %q", site, got)
			case err != nil && !errors.Is(err, archive.ErrNotFound):
				t.Fatalf("site %d: removed file neither intact nor gone: %v", site, err)
			}
		})
}

// TestStoreBatchCrashAtomic enumerates every crash site of a StoreBatch:
// after recovery either every member of the batch is readable with the
// right bytes, or none is listed — never a partial batch, and never damage
// to files stored before it.
func TestStoreBatchCrashAtomic(t *testing.T) {
	members := []archive.BatchFile{
		{Rel: "u/raw.fits.gz", Data: []byte("raw-bytes")},
		{Rel: "u/v0.wav", Data: []byte("view-zero")},
		{Rel: "u/v1.wav", Data: []byte("view-one")},
	}
	for _, mode := range []fault.Mode{fault.ModeCrash, fault.ModeTorn} {
		crashSites(t, mode,
			func(a *archive.Archive) { mustStore(t, a, "prior/keep.dat", "keep") },
			func(a *archive.Archive) error { return a.StoreBatch(members) },
			func(site int, acked bool, a *archive.Archive) {
				wantFile(t, site, a, "prior/keep.dat", "keep")
				listed := 0
				for _, m := range members {
					got, err := a.Read(m.Rel)
					if err == nil {
						if !bytes.Equal(got, m.Data) {
							t.Fatalf("%s site %d: member %s has wrong content: %q", mode, site, m.Rel, got)
						}
						listed++
					} else if !errors.Is(err, archive.ErrNotFound) {
						t.Fatalf("%s site %d: member %s unreadable: %v", mode, site, m.Rel, err)
					}
				}
				if listed != 0 && listed != len(members) {
					t.Fatalf("%s site %d: partial batch surfaced: %d of %d members", mode, site, listed, len(members))
				}
				if acked && listed == 0 {
					t.Fatalf("%s site %d: acknowledged batch lost", mode, site)
				}
			})
	}
}
