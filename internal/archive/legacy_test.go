package archive

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/minidb"
)

// A pre-lake archive directory, built by hand now that nothing can write
// one: a plain member (3-field manifest line, own file) and two members of
// one pack container (5-field lines).
var legacyWant = map[string][]byte{
	"raw/d001/u1":    []byte("plain-stored-unit"),
	"raw/d002/u2":    []byte("packed-unit-two"),
	"wavelet/u2.wav": []byte("packed-wavelet"),
}

const legacyPack = "packs/p00000000.pack"

func legacyManifest() string {
	line := func(rel string, tail string) string {
		d := legacyWant[rel]
		return fmt.Sprintf("%s\t%d\t%d%s\n", rel, len(d), crc32.ChecksumIEEE(d), tail)
	}
	return line("raw/d001/u1", "") +
		line("raw/d002/u2", "\t"+legacyPack+"\t0") +
		line("wavelet/u2.wav", fmt.Sprintf("\t%s\t%d", legacyPack, len(legacyWant["raw/d002/u2"])))
}

// writeLegacyDir lays the legacy files out under dir on fsys, with the
// given manifest image.
func writeLegacyDir(t *testing.T, fsys VFS, dir, manifest string) {
	t.Helper()
	pack := append(append([]byte{}, legacyWant["raw/d002/u2"]...), legacyWant["wavelet/u2.wav"]...)
	for rel, data := range map[string][]byte{
		"raw/d001/u1": legacyWant["raw/d001/u1"],
		legacyPack:    pack,
		manifestName:  []byte(manifest),
	} {
		abs := filepath.Join(dir, rel)
		if err := fsys.MkdirAll(filepath.Dir(abs), 0o755); err != nil {
			t.Fatal(err)
		}
		f, err := fsys.Create(abs, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
}

// checkMigrated asserts the end state of a completed migration: every
// member reads back bit-identical, the manifest is parked, nothing else is
// live.
func checkMigrated(t *testing.T, fsys VFS, a *Archive) {
	t.Helper()
	if a.Len() != len(legacyWant) {
		t.Fatalf("migrated archive holds %d files, want %d (%v)", a.Len(), len(legacyWant), a.List())
	}
	for rel, data := range legacyWant {
		got, err := a.Read(rel)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("migrated read %s: %q, %v", rel, got, err)
		}
	}
	if _, err := fsys.ReadFile(filepath.Join(a.Root(), manifestName)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("%s still present after migration: %v", manifestName, err)
	}
	if _, err := fsys.ReadFile(filepath.Join(a.Root(), migratedManifestName)); err != nil {
		t.Fatalf("parked manifest missing: %v", err)
	}
}

// A pre-lake data directory is imported into the journal on first open,
// not served as an empty catalog that would orphan every file the location
// tables reference.
func TestManifestArchiveMigratesToLake(t *testing.T) {
	dir := t.TempDir()
	writeLegacyDir(t, minidb.OSFS, dir, legacyManifest())

	a, err := NewLake("disk-0", Disk, dir, 0)
	if err != nil {
		t.Fatalf("NewLake over manifest dir: %v", err)
	}
	checkMigrated(t, minidb.OSFS, a)
	// The legacy bytes are dropped once the journal owns them.
	for _, rel := range []string{"raw/d001/u1", legacyPack} {
		if _, err := minidb.OSFS.ReadFile(filepath.Join(dir, rel)); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("legacy file %s survived migration: %v", rel, err)
		}
	}

	// Reopening is idempotent, and the migrated catalog is time-travelable.
	a2, err := NewLake("disk-0", Disk, dir, 0)
	if err != nil {
		t.Fatalf("reopen migrated archive: %v", err)
	}
	checkMigrated(t, minidb.OSFS, a2)
	v, err := a2.OpenAt(0)
	if err != nil {
		t.Fatalf("OpenAt over migrated data: %v", err)
	}
	defer v.Close()
	for rel, data := range legacyWant {
		got, err := v.Read(rel)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("as-of read %s: %q, %v", rel, got, err)
		}
	}
	// Post-migration mutations behave like any archive.
	if err := a2.Store("raw/d003/u3", []byte("post-migration")); err != nil {
		t.Fatalf("store after migration: %v", err)
	}
	if err := a2.Remove("raw/d001/u1"); err != nil {
		t.Fatalf("remove after migration: %v", err)
	}
	if a2.Exists("raw/d001/u1") {
		t.Fatal("removed migrated member still live")
	}
}

// The legacy reader keeps telling a torn tail from corruption: whatever
// follows the last newline is an append a crash interrupted and is dropped;
// a malformed line that was terminated is refused.
func TestManifestTornTailVersusMalformedLine(t *testing.T) {
	good := legacyManifest()
	for _, tail := range []string{"raw/d009/torn\t12", "raw/d009/torn\t12\t345"} {
		dir := t.TempDir()
		writeLegacyDir(t, minidb.OSFS, dir, good+tail)
		a, err := NewLake("disk-0", Disk, dir, 0)
		if err != nil {
			t.Fatalf("torn tail %q refused: %v", tail, err)
		}
		checkMigrated(t, minidb.OSFS, a)
	}
	lines := strings.SplitAfter(good, "\n")
	for name, manifest := range map[string]string{
		"terminated malformed final line": good + "raw/d009/bad\t12\n",
		"malformed mid-file line":         lines[0] + "raw/d009/bad\tx\t1\n" + lines[1] + lines[2],
		"bad pack offset":                 good + "raw/d009/bad\t1\t1\t" + legacyPack + "\tz\n",
	} {
		dir := t.TempDir()
		writeLegacyDir(t, minidb.OSFS, dir, manifest)
		if _, err := NewLake("disk-0", Disk, dir, 0); err == nil {
			t.Fatalf("%s: archive opened", name)
		}
		if _, err := minidb.OSFS.ReadFile(filepath.Join(dir, manifestName)); err != nil {
			t.Fatalf("%s: manifest not left in place: %v", name, err)
		}
	}
}

// A member that fails its manifest checksum (or lies outside its pack)
// aborts the migration with the manifest left in place, so the operator
// can repair and retry; nothing half-imported is served.
func TestManifestMigrationAbortsOnCorruptMember(t *testing.T) {
	good := legacyManifest()
	lines := strings.SplitAfter(good, "\n")
	u2 := legacyWant["raw/d002/u2"]
	for name, manifest := range map[string]string{
		"crc mismatch":   lines[0] + fmt.Sprintf("raw/d002/u2\t%d\t%d\t%s\t0\n", len(u2), crc32.ChecksumIEEE(u2)+1, legacyPack) + lines[2],
		"past pack end":  lines[0] + lines[1] + fmt.Sprintf("wavelet/u2.wav\t999\t1\t%s\t0\n", legacyPack),
		"missing member": good + "raw/d404/gone\t4\t1\n",
	} {
		dir := t.TempDir()
		writeLegacyDir(t, minidb.OSFS, dir, manifest)
		_, err := NewLake("disk-0", Disk, dir, 0)
		if err == nil {
			t.Fatalf("%s: archive opened", name)
		}
		if name != "missing member" && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
		}
		if _, err := minidb.OSFS.ReadFile(filepath.Join(dir, manifestName)); err != nil {
			t.Fatalf("%s: manifest not left in place: %v", name, err)
		}
		// Repairing the manifest lets the same directory finish migrating.
		writeLegacyDir(t, minidb.OSFS, dir, good)
		a, err := NewLake("disk-0", Disk, dir, 0)
		if err != nil {
			t.Fatalf("%s: reopen after repair: %v", name, err)
		}
		checkMigrated(t, minidb.OSFS, a)
	}
}

// A crash at any filesystem operation of the migration resumes to the same
// end state on the next open.
func TestManifestMigrationResumesAfterCrash(t *testing.T) {
	for _, mode := range []fault.Mode{fault.ModeCrash, fault.ModeTorn} {
		for site := 1; ; site++ {
			fsys := fault.NewFS()
			writeLegacyDir(t, fsys, "arch", legacyManifest())
			fsys.SetFault(fsys.OpCount()+site, mode)
			_, err := NewLakeVFS(fsys, "disk-0", Disk, "arch", 0)
			if !fsys.Crashed() {
				if err != nil {
					t.Fatalf("%s: clean migration failed: %v", mode, err)
				}
				if site < 10 {
					t.Fatalf("%s: migration performs only %d I/O operations", mode, site-1)
				}
				t.Logf("%s: migration crashed and resumed at each of %d sites", mode, site-1)
				break
			}
			fsys.Recover()
			a, err := NewLakeVFS(fsys, "disk-0", Disk, "arch", 0)
			if err != nil {
				t.Fatalf("%s site %d: reopen after crash: %v", mode, site, err)
			}
			checkMigrated(t, fsys, a)
		}
	}
}
