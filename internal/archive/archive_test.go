package archive

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/lake"
)

func newTestArchive(t *testing.T, kind Kind, capacity int64) *Archive {
	t.Helper()
	a, err := NewLake("ar1", kind, t.TempDir(), capacity)
	if err != nil {
		t.Fatal(err)
	}
	if a.Lake() == nil {
		t.Fatal("Lake() is nil")
	}
	return a
}

func batchOf(kv ...string) []BatchFile {
	var out []BatchFile
	for i := 0; i+1 < len(kv); i += 2 {
		out = append(out, BatchFile{Rel: kv[i], Data: []byte(kv[i+1])})
	}
	return out
}

// compactAll makes every container a merge candidate.
func compactAll() lake.CompactOptions {
	return lake.CompactOptions{SmallBytes: 1 << 20, MinMerge: 2, MaxMerge: 100}
}

// reclaim runs one compaction + GC round, the only way removed bytes leave
// the tier.
func reclaim(t *testing.T, a *Archive) {
	t.Helper()
	if _, err := a.Lake().Compact(compactAll()); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Lake().GC(a.Lake().Head()); err != nil {
		t.Fatal(err)
	}
}

func TestStoreReadRoundTrip(t *testing.T) {
	a := newTestArchive(t, Disk, 0)
	data := []byte("raw unit payload")
	if err := a.Store("raw/hsi_0001_000.fits.gz", data); err != nil {
		t.Fatal(err)
	}
	got, err := a.Read("raw/hsi_0001_000.fits.gz")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatalf("read %q", got)
	}
	if a.Lake().Status().LiveBytes != int64(len(data)) || len(a.List()) != 1 {
		t.Fatalf("used=%d len=%d", a.Lake().Status().LiveBytes, len(a.List()))
	}
}

func TestWriteOnceEnforced(t *testing.T) {
	a := newTestArchive(t, Disk, 0)
	if err := a.Store("f", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	err := a.Store("f", []byte("v2"))
	if !errors.Is(err, ErrExists) {
		t.Fatalf("overwrite err = %v, want ErrExists", err)
	}
	got, _ := a.Read("f")
	if string(got) != "v1" {
		t.Fatal("original content lost")
	}
}

// Capacity is enforced against physical bytes: a remove alone frees
// nothing, compaction + GC does.
func TestCapacityEnforced(t *testing.T) {
	a := newTestArchive(t, Disk, 64)
	if err := a.Store("a", make([]byte, 48)); err != nil {
		t.Fatal(err)
	}
	if err := a.Store("b", make([]byte, 32)); !errors.Is(err, ErrFull) {
		t.Fatalf("over-capacity store: %v, want ErrFull", err)
	}
	if left := a.CapacityLeft(); left != 16 {
		t.Fatalf("capacity left = %d", left)
	}
	if err := a.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := a.Store("b", make([]byte, 32)); !errors.Is(err, ErrFull) {
		t.Fatalf("store after remove, before gc: %v, want ErrFull", err)
	}
	if err := a.Store("c", make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	reclaim(t, a)
	if err := a.Store("b", make([]byte, 32)); err != nil {
		t.Fatalf("store after gc reclaim: %v", err)
	}
	if unbounded := newTestArchive(t, Disk, 0); unbounded.CapacityLeft() != 1<<63-1 {
		t.Fatalf("unbounded capacity left = %d", unbounded.CapacityLeft())
	}
}

func TestStoreBatchCapacity(t *testing.T) {
	a := newTestArchive(t, Disk, 10)
	if err := a.StoreBatch(batchOf("a", "123456", "b", "7890x")); !errors.Is(err, ErrFull) {
		t.Fatalf("over capacity: %v", err)
	}
	if a.Lake().Status().LiveBytes != 0 || a.CapacityLeft() != 10 {
		t.Fatalf("failed batch kept its reservation: used=%d left=%d", a.Lake().Status().LiveBytes, a.CapacityLeft())
	}
	if err := a.StoreBatch(batchOf("a", "12345", "b", "67890")); err != nil {
		t.Fatal(err)
	}
	if a.Lake().Status().LiveBytes != 10 || a.CapacityLeft() != 0 {
		t.Fatalf("used=%d left=%d", a.Lake().Status().LiveBytes, a.CapacityLeft())
	}
}

// TestConcurrentBatchesNeverOvershootCapacity races more batches than the
// capacity can hold: the bytes of a store in flight are reserved, so the
// tier never overshoots, every loser is refused with ErrFull, and every
// winner reads back bit-identical.
func TestConcurrentBatchesNeverOvershootCapacity(t *testing.T) {
	const workers, fits, batchBytes = 12, 4, 100
	a := newTestArchive(t, Disk, fits*batchBytes)
	payload := func(w int) []BatchFile {
		return []BatchFile{
			{Rel: fmt.Sprintf("u/%d/raw", w), Data: bytes.Repeat([]byte{byte('a' + w)}, 70)},
			{Rel: fmt.Sprintf("u/%d/view", w), Data: bytes.Repeat([]byte{byte('A' + w)}, 30)},
		}
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			errs[w] = a.StoreBatch(payload(w))
		}(w)
	}
	close(start)
	wg.Wait()

	if phys := a.Lake().PhysBytes(); phys > fits*batchBytes {
		t.Fatalf("physical bytes %d overshoot the capacity %d", phys, fits*batchBytes)
	}
	winners := 0
	for w, err := range errs {
		if err != nil {
			if !errors.Is(err, ErrFull) {
				t.Fatalf("loser %d: %v, want ErrFull", w, err)
			}
			continue
		}
		winners++
		for _, f := range payload(w) {
			if got, err := a.Read(f.Rel); err != nil || !bytes.Equal(got, f.Data) {
				t.Fatalf("winner %d member %s: %q, %v", w, f.Rel, got, err)
			}
		}
	}
	if winners < 1 || winners > fits {
		t.Fatalf("%d batches stored, capacity fits %d", winners, fits)
	}
	if len(a.List()) != 2*winners || a.CapacityLeft() != int64(fits-winners)*batchBytes {
		t.Fatalf("len=%d left=%d after %d winners (reservation leaked?)", len(a.List()), a.CapacityLeft(), winners)
	}
}

func TestOfflineRejectsOperations(t *testing.T) {
	a := newTestArchive(t, Disk, 0)
	a.Store("f", []byte("x"))
	a.SetOnline(false)
	if a.Online() {
		t.Fatal("still online")
	}
	if _, err := a.Read("f"); !errors.Is(err, ErrOffline) {
		t.Fatalf("read err = %v", err)
	}
	if _, err := a.Open("f"); !errors.Is(err, ErrOffline) {
		t.Fatalf("open err = %v", err)
	}
	if err := a.Store("g", []byte("y")); !errors.Is(err, ErrOffline) {
		t.Fatalf("store err = %v", err)
	}
	if err := a.StoreBatch(batchOf("z", "1")); !errors.Is(err, ErrOffline) {
		t.Fatalf("batch err = %v", err)
	}
	if err := a.Remove("f"); !errors.Is(err, ErrOffline) {
		t.Fatalf("remove err = %v", err)
	}
	a.SetOnline(true)
	if _, err := a.Read("f"); err != nil {
		t.Fatalf("read after re-online: %v", err)
	}
}

func TestPathTraversalRejected(t *testing.T) {
	a := newTestArchive(t, Disk, 0)
	for _, p := range []string{"../escape", "/abs/path", "", "a/../../b", "."} {
		if err := a.Store(p, []byte("x")); err == nil {
			t.Fatalf("path %q accepted", p)
		}
	}
}

func TestReadMissing(t *testing.T) {
	a := newTestArchive(t, Disk, 0)
	if _, err := a.Read("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if slices.Contains(a.List(), "nope") {
		t.Fatal("missing file listed")
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	a, err := NewLake("ar1", Disk, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Store("f", []byte("pristine")); err != nil {
		t.Fatal(err)
	}
	// Rot the stored bytes behind the archive's back.
	ctrs, _ := filepath.Glob(filepath.Join(dir, "containers", "*.ctr"))
	if len(ctrs) != 1 {
		t.Fatalf("containers on disk: %v", ctrs)
	}
	if err := os.Chmod(ctrs[0], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ctrs[0], []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Read("f"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read err = %v, want ErrCorrupt", err)
	}
	if _, err := a.Open("f"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open err = %v, want ErrCorrupt", err)
	}
	bad := a.Lake().Verify()
	if len(bad) != 1 || bad[0] != "f" {
		t.Fatalf("verify = %v", bad)
	}
}

func TestSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	a, _ := NewLake("ar1", Disk, dir, 0)
	a.Store("x/one", []byte("1"))
	if err := a.StoreBatch(batchOf("a/one", "1111", "b/two", "22")); err != nil {
		t.Fatal(err)
	}
	a.Store("x/two", []byte("22"))

	b, err := NewLake("ar1", Disk, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.List()) != 4 || b.Lake().Status().LiveBytes != a.Lake().Status().LiveBytes {
		t.Fatalf("reopened len=%d used=%d (was %d)", len(b.List()), b.Lake().Status().LiveBytes, a.Lake().Status().LiveBytes)
	}
	for rel, want := range map[string]string{"x/one": "1", "x/two": "22", "a/one": "1111", "b/two": "22"} {
		got, err := b.Read(rel)
		if err != nil || string(got) != want {
			t.Fatalf("read %s after reopen: %q %v", rel, got, err)
		}
	}
	// A fresh batch on the reopened archive must not collide with an
	// existing container file.
	if err := b.StoreBatch(batchOf("d/four", "4444")); err != nil {
		t.Fatal(err)
	}
	if got, _ := b.Read("a/one"); string(got) != "1111" {
		t.Fatalf("old member clobbered: %q", got)
	}
}

// TestRestartKeepsDurablePins reopens an archive and attaches to a pin
// taken before the restart.
func TestRestartKeepsDurablePins(t *testing.T) {
	dir := t.TempDir()
	a, err := NewLake("ar1", Disk, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := a.Store(fmt.Sprintf("wavelet/u%d.wav", i), []byte(fmt.Sprintf("w%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	v, err := a.Lake().OpenAt(0)
	if err != nil {
		t.Fatal(err)
	}

	b, err := NewLake("ar1", Disk, dir, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	v2, err := b.Lake().AttachPin(v.Token())
	if err != nil {
		t.Fatalf("attach pin: %v", err)
	}
	if got, err := v2.Read("wavelet/u3.wav"); err != nil || string(got) != "w3" {
		t.Fatalf("pinned read after restart: %q, %v", got, err)
	}
}

func TestRemove(t *testing.T) {
	dir := t.TempDir()
	a, _ := NewLake("ar1", Disk, dir, 0)
	a.Store("f", []byte("xyz"))
	if err := a.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if slices.Contains(a.List(), "f") || a.Lake().Status().LiveBytes != 0 || len(a.List()) != 0 {
		t.Fatal("remove did not update state")
	}
	if _, err := a.Read("f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read removed: %v", err)
	}
	b, _ := NewLake("ar1", Disk, dir, 0)
	if slices.Contains(b.List(), "f") {
		t.Fatal("removed file resurrected by reopen")
	}
	if err := a.Remove("f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double remove err = %v", err)
	}
}

func TestStoreBatchRemoveMembers(t *testing.T) {
	a := newTestArchive(t, Disk, 0)
	if err := a.StoreBatch(batchOf("m/a", "aa", "m/b", "bbb")); err != nil {
		t.Fatal(err)
	}
	if err := a.Remove("m/a"); err != nil {
		t.Fatal(err)
	}
	if slices.Contains(a.List(), "m/a") {
		t.Fatal("removed member still listed")
	}
	// The surviving member still reads from the shared container.
	if got, err := a.Read("m/b"); err != nil || string(got) != "bbb" {
		t.Fatalf("survivor: %q %v", got, err)
	}
	if err := a.Remove("m/b"); err != nil {
		t.Fatal(err)
	}
	if len(a.List()) != 0 || a.Lake().Status().LiveBytes != 0 {
		t.Fatalf("len=%d used=%d", len(a.List()), a.Lake().Status().LiveBytes)
	}
	// A removed name may be stored again.
	if err := a.StoreBatch(batchOf("m/a", "again")); err != nil {
		t.Fatal(err)
	}
	if got, _ := a.Read("m/a"); string(got) != "again" {
		t.Fatalf("re-store: %q", got)
	}
}

func TestList(t *testing.T) {
	a := newTestArchive(t, Disk, 0)
	a.Store("b", []byte("1"))
	a.Store("a", []byte("1"))
	a.Store("c/d", []byte("1"))
	if got := strings.Join(a.List(), " "); got != "a b c/d" {
		t.Fatalf("list = %q", got)
	}
}

func TestCopyBetweenArchives(t *testing.T) {
	src := newTestArchive(t, Disk, 0)
	dst, _ := NewLake("tape1", Tape, t.TempDir(), 0)
	src.Store("unit/f1", []byte("payload"))
	if err := Copy(src, dst, "unit/f1"); err != nil {
		t.Fatal(err)
	}
	got, err := dst.Read("unit/f1")
	if err != nil || string(got) != "payload" {
		t.Fatalf("dst read: %q %v", got, err)
	}
	// Source is untouched.
	if !slices.Contains(src.List(), "unit/f1") {
		t.Fatal("copy removed the source")
	}
	// Copy to an archive that already holds the path fails cleanly.
	if err := Copy(src, dst, "unit/f1"); err == nil {
		t.Fatal("duplicate copy accepted")
	}
}

func TestStoreBatchRoundTrip(t *testing.T) {
	a := newTestArchive(t, NFS, 0)
	files := batchOf("fits.gz/u1.fits.gz", "raw-unit-bytes", "wavelet/v0.wav", "view-zero", "wavelet/v1.wav", "view-one")
	if err := a.StoreBatch(files); err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, f := range files {
		want += int64(len(f.Data))
		got, err := a.Read(f.Rel)
		if err != nil || string(got) != string(f.Data) {
			t.Fatalf("read %s: %q %v", f.Rel, got, err)
		}
		if !slices.Contains(a.List(), f.Rel) {
			t.Fatalf("missing %s", f.Rel)
		}
	}
	if a.Lake().Status().LiveBytes != want || len(a.List()) != len(files) {
		t.Fatalf("used=%d len=%d", a.Lake().Status().LiveBytes, len(a.List()))
	}
	if bad := a.Lake().Verify(); len(bad) != 0 {
		t.Fatalf("verify: %v", bad)
	}
	// Open streams a member.
	rc, err := a.Open("wavelet/v1.wav")
	if err != nil {
		t.Fatal(err)
	}
	head := make([]byte, 4)
	if _, err := io.ReadFull(rc, head); err != nil || string(head) != "view" {
		t.Fatalf("streamed %q, %v", head, err)
	}
	rest, _ := io.ReadAll(rc)
	rc.Close()
	if string(rest) != "-one" {
		t.Fatalf("open: %q", rest)
	}
	if err := a.StoreBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

func TestStoreBatchConflicts(t *testing.T) {
	a := newTestArchive(t, Disk, 0)
	if err := a.Store("x", []byte("plain")); err != nil {
		t.Fatal(err)
	}
	if err := a.StoreBatch(batchOf("y", "1", "x", "2")); !errors.Is(err, ErrExists) {
		t.Fatalf("existing member: %v", err)
	}
	if slices.Contains(a.List(), "y") {
		t.Fatal("failed batch left a member registered")
	}
	if err := a.StoreBatch(batchOf("y", "1", "y", "2")); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate in batch: %v", err)
	}
	if err := a.StoreBatch(batchOf("../escape", "1")); err == nil {
		t.Fatal("path escape accepted")
	}
}

func TestStoreBatchConcurrent(t *testing.T) {
	a := newTestArchive(t, Disk, 0)
	const workers, batches = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				files := batchOf(
					fmt.Sprintf("u/%d-%d/raw", w, b), strings.Repeat("r", 10+w),
					fmt.Sprintf("u/%d-%d/view", w, b), strings.Repeat("v", 5+b),
				)
				if err := a.StoreBatch(files); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if len(a.List()) != workers*batches*2 {
		t.Fatalf("len=%d", len(a.List()))
	}
	if bad := a.Lake().Verify(); len(bad) != 0 {
		t.Fatalf("verify: %v", bad)
	}
}

// TestTimeTravel checks OpenAt through the Archive surface: the relocation
// / purge flow deletes a file, but a view pinned before the delete still
// reads it bit-identically, whatever compaction and GC do meanwhile.
func TestTimeTravel(t *testing.T) {
	a := newTestArchive(t, Disk, 0)
	if err := a.Store("fits.gz/u1.fits.gz", []byte("original calibration")); err != nil {
		t.Fatal(err)
	}
	v, err := a.Lake().OpenAt(0)
	if err != nil {
		t.Fatalf("OpenAt: %v", err)
	}
	defer v.Close()

	if err := a.Remove("fits.gz/u1.fits.gz"); err != nil {
		t.Fatal(err)
	}
	if err := a.Store("fits.gz/u1.fits.gz", []byte("recalibrated")); err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"before", "after"} {
		if got, err := a.Read("fits.gz/u1.fits.gz"); err != nil || string(got) != "recalibrated" {
			t.Fatalf("head read %s compact+gc: %q, %v", phase, got, err)
		}
		if got, err := v.Read("fits.gz/u1.fits.gz"); err != nil || string(got) != "original calibration" {
			t.Fatalf("pinned read %s compact+gc: %q, %v", phase, got, err)
		}
		reclaim(t, a)
	}
}

func TestSetRegistry(t *testing.T) {
	s := NewSet()
	a1, _ := NewLake("disk1", Disk, t.TempDir(), 0)
	a2, _ := NewLake("tape1", Tape, t.TempDir(), 0)
	if err := s.Add(a1); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(a2); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(a1); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if s.Get("disk1") != a1 || s.Get("nope") != nil {
		t.Fatal("get wrong")
	}
	ids := s.IDs()
	if len(ids) != 2 || ids[0] != "disk1" || ids[1] != "tape1" {
		t.Fatalf("ids = %v", ids)
	}
	if _, err := NewLake("", Disk, t.TempDir(), 0); err == nil {
		t.Fatal("empty archive id accepted")
	}
}

func TestKindStringAndLatency(t *testing.T) {
	if Disk.String() != "disk" || NFS.String() != "nfs" || Tape.String() != "tape" {
		t.Fatal("kind names wrong")
	}
	if Disk.latency() != 0 || Tape.latency() <= NFS.latency() {
		t.Fatal("latency ordering wrong")
	}
	if a := newTestArchive(t, Tape, 0); a.Kind() != Tape || a.ID() != "ar1" || a.Root() == "" {
		t.Fatalf("identity: %v %q %q", a.Kind(), a.ID(), a.Root())
	}
}
