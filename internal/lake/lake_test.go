package lake

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/minidb"
)

func newTestLake(t *testing.T) (*Lake, string) {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(minidb.OSFS, dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var tick int64
	l.SetClock(func() int64 { tick++; return tick })
	return l, dir
}

func reopen(t *testing.T, dir string) *Lake {
	t.Helper()
	l, err := Open(minidb.OSFS, dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return l
}

// store commits one file as a single-member batch.
func store(l *Lake, rel string, day int64, data []byte) (uint64, error) {
	return l.StoreBatch([]BatchFile{{Rel: rel, Day: day, Data: data}})
}

func TestStoreReadDelete(t *testing.T) {
	l, _ := newTestLake(t)

	if _, err := store(l, "raw/d001/u1", 1, []byte("alpha")); err != nil {
		t.Fatalf("store: %v", err)
	}
	got, err := l.Read("raw/d001/u1")
	if err != nil || string(got) != "alpha" {
		t.Fatalf("read: %q, %v", got, err)
	}
	if !slices.Contains(l.List(), "raw/d001/u1") || slices.Contains(l.List(), "raw/d001/u2") {
		t.Fatal("exists wrong")
	}

	// Live members are write-once.
	if _, err := store(l, "raw/d001/u1", 1, []byte("other")); !errors.Is(err, ErrExists) {
		t.Fatalf("re-store of live member: %v", err)
	}
	// Path validation.
	for _, bad := range []string{"", "/abs", "../escape", "containers/c0000000001.ctr"} {
		if _, err := store(l, bad, 0, []byte("x")); err == nil {
			t.Fatalf("store %q accepted", bad)
		}
	}

	// Delete tombstones; the rel becomes storable again.
	if _, err := l.Delete([]string{"raw/d001/u1"}); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := l.Read("raw/d001/u1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read after delete: %v", err)
	}
	if _, err := l.Delete([]string{"raw/d001/u1"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if _, err := store(l, "raw/d001/u1", 1, []byte("beta")); err != nil {
		t.Fatalf("re-store after delete: %v", err)
	}
	if got, _ := l.Read("raw/d001/u1"); string(got) != "beta" {
		t.Fatalf("read after re-store: %q", got)
	}
	if len(l.List()) != 1 {
		t.Fatalf("len = %d", len(l.List()))
	}
}

func TestBatchAtomicity(t *testing.T) {
	l, _ := newTestLake(t)
	files := []BatchFile{
		{Rel: "raw/d001/a", Day: 1, Data: []byte("aaa")},
		{Rel: "raw/d001/b", Day: 1, Data: []byte("bbbb")},
		{Rel: "raw/d002/c", Day: 2, Data: []byte("c")},
	}
	seq, err := l.StoreBatch(files)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if seq != 1 {
		t.Fatalf("seq = %d", seq)
	}
	for _, f := range files {
		got, err := l.Read(f.Rel)
		if err != nil || !bytes.Equal(got, f.Data) {
			t.Fatalf("read %s: %q, %v", f.Rel, got, err)
		}
	}
	// One batch = one container.
	if st := l.Status(); st.ContainersLive != 1 {
		t.Fatalf("containers = %d", st.ContainersLive)
	}
	// Duplicate within a batch rejected atomically.
	if _, err := l.StoreBatch([]BatchFile{
		{Rel: "raw/d003/x", Data: []byte("x")},
		{Rel: "raw/d003/x", Data: []byte("y")},
	}); !errors.Is(err, ErrExists) {
		t.Fatalf("dup batch: %v", err)
	}
	if slices.Contains(l.List(), "raw/d003/x") {
		t.Fatal("failed batch leaked a member")
	}
}

func TestReopenReplays(t *testing.T) {
	l, dir := newTestLake(t)
	for i := 0; i < 10; i++ {
		if _, err := store(l, fmt.Sprintf("raw/d%03d/u", i), int64(i), []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
	}
	if _, err := l.Delete([]string{"raw/d003/u"}); err != nil {
		t.Fatalf("delete: %v", err)
	}
	before := l.Status()

	l2 := reopen(t, dir)
	after := l2.Status()
	if after.Head != before.Head || after.LiveFiles != before.LiveFiles ||
		after.LiveBytes != before.LiveBytes || after.PhysBytes != before.PhysBytes {
		t.Fatalf("status diverged: before %+v after %+v", before, after)
	}
	for i := 0; i < 10; i++ {
		rel := fmt.Sprintf("raw/d%03d/u", i)
		got, err := l2.Read(rel)
		if i == 3 {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted member visible after reopen: %v", err)
			}
			continue
		}
		if err != nil || string(got) != fmt.Sprintf("payload-%d", i) {
			t.Fatalf("read %s: %q, %v", rel, got, err)
		}
	}
}

func TestTornTailRecovery(t *testing.T) {
	l, dir := newTestLake(t)
	if _, err := store(l, "raw/d001/u", 1, []byte("keep")); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn append: valid journal + garbage tail.
	jp := filepath.Join(dir, journalName)
	f, err := os.OpenFile(jp, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("LJN1\x40\x00\x00\x00half a record"))
	f.Close()

	l2 := reopen(t, dir)
	if l2.Head() != 1 {
		t.Fatalf("head = %d", l2.Head())
	}
	if got, err := l2.Read("raw/d001/u"); err != nil || string(got) != "keep" {
		t.Fatalf("read: %q, %v", got, err)
	}
	// The tail was repaired: a fresh store appends cleanly and replays.
	if _, err := store(l2, "raw/d002/u", 2, []byte("new")); err != nil {
		t.Fatalf("store after repair: %v", err)
	}
	l3 := reopen(t, dir)
	if l3.Head() != 2 || !slices.Contains(l3.List(), "raw/d002/u") {
		t.Fatalf("post-repair replay: head %d", l3.Head())
	}
}

func TestAckedHeadLossIsCorruption(t *testing.T) {
	l, dir := newTestLake(t)
	if _, err := store(l, "raw/d001/u", 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := store(l, "raw/d002/u", 2, []byte("b")); err != nil {
		t.Fatal(err)
	}
	// Truncate the journal to one record while HEAD says 2 were acked:
	// that is silent loss of acknowledged history, not a torn tail.
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := DecodeJournal(data)
	if err != nil || len(recs) != 2 {
		t.Fatalf("decode: %d recs, %v", len(recs), err)
	}
	firstLen := int64(len(encodeRecord(recs[0])))
	if err := os.Truncate(filepath.Join(dir, journalName), firstLen); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if _, err := Open(minidb.OSFS, dir); !errors.As(err, &ce) {
		t.Fatalf("want CorruptError, got %v", err)
	}
}

func TestTimeTravelBasics(t *testing.T) {
	l, _ := newTestLake(t)
	s1, _ := store(l, "raw/d001/u", 1, []byte("v-one"))
	s2, _ := l.Delete([]string{"raw/d001/u"})
	s3, _ := store(l, "raw/d001/u", 1, []byte("v-two"))

	v1, err := l.OpenAt(s1)
	if err != nil {
		t.Fatalf("OpenAt(%d): %v", s1, err)
	}
	defer v1.Close()
	if got, err := v1.Read("raw/d001/u"); err != nil || string(got) != "v-one" {
		t.Fatalf("as-of %d: %q, %v", s1, got, err)
	}

	v2, err := l.OpenAt(s2)
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	if slices.Contains(v2.List(), "raw/d001/u") {
		t.Fatalf("as-of %d should not see the member", s2)
	}

	v3, err := l.OpenAt(s3)
	if err != nil {
		t.Fatal(err)
	}
	defer v3.Close()
	if got, _ := v3.Read("raw/d001/u"); string(got) != "v-two" {
		t.Fatalf("as-of %d: %q", s3, got)
	}

	if _, err := l.OpenAt(l.Head() + 10); err == nil {
		t.Fatal("OpenAt beyond head accepted")
	}
}

func TestCompactionPreservesViews(t *testing.T) {
	l, _ := newTestLake(t)
	want := map[string][]byte{}
	for i := 0; i < 20; i++ {
		rel := fmt.Sprintf("raw/d%03d/u", i)
		data := []byte(fmt.Sprintf("unit-%02d-data", i))
		want[rel] = data
		if _, err := store(l, rel, int64(i%5), data); err != nil {
			t.Fatal(err)
		}
	}
	preSeq := l.Head()
	v, err := l.OpenAt(preSeq)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	res, err := l.Compact(CompactOptions{SmallBytes: 1 << 10, MinMerge: 2, MaxMerge: 100})
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	if res.Seq == 0 || res.Merged < 20 || res.Members != 20 {
		t.Fatalf("compact result: %+v", res)
	}
	// Merged container is laid out time-sorted: offsets ascend with (Day, Rel).
	st := l.Status()
	if st.ContainersLive != 1 {
		t.Fatalf("live containers after compact = %d", st.ContainersLive)
	}

	// Head reads and the pre-compaction pinned view both stay bit-identical.
	for rel, data := range want {
		if got, err := l.Read(rel); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("head read %s: %v", rel, err)
		}
		if got, err := v.Read(rel); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("pinned read %s: %v", rel, err)
		}
	}

	// GC cannot touch the victims while the pin holds them.
	if _, err := l.GC(l.Head()); err != nil {
		t.Fatal(err)
	}
	for rel, data := range want {
		if got, err := v.Read(rel); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("pinned read %s after GC attempt: %v", rel, err)
		}
	}

	// Unpin, GC again: victims are physically reclaimed, head still reads.
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	gr, err := l.GC(l.Head())
	if err != nil {
		t.Fatal(err)
	}
	if gr.Deleted == 0 {
		t.Fatalf("gc deleted nothing: %+v", gr)
	}
	for rel, data := range want {
		if got, err := l.Read(rel); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("head read %s after GC: %v", rel, err)
		}
	}
	// Commits below the new horizon refuse to open.
	if gr.Horizon > 1 {
		if _, err := l.OpenAt(gr.Horizon - 1); !errors.Is(err, ErrHorizon) {
			t.Fatalf("OpenAt below horizon: %v", err)
		}
	}
}

func TestGCHorizonNeverRetreats(t *testing.T) {
	l, _ := newTestLake(t)
	for i := 0; i < 6; i++ {
		store(l, fmt.Sprintf("raw/d%03d/u", i), int64(i), []byte("x"))
	}
	l.Delete([]string{"raw/d000/u", "raw/d001/u"})
	r1, err := l.GC(l.Head())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := l.GC(1) // request far below the established horizon
	if err != nil {
		t.Fatal(err)
	}
	if r2.Horizon < r1.Horizon {
		t.Fatalf("horizon retreated: %d -> %d", r1.Horizon, r2.Horizon)
	}
}

func TestPinSurvivesRestart(t *testing.T) {
	l, dir := newTestLake(t)
	store(l, "raw/d001/u", 1, []byte("old"))
	v, err := l.OpenAt(l.Head())
	if err != nil {
		t.Fatal(err)
	}
	token := v.Token()
	l.Delete([]string{"raw/d001/u"})
	store(l, "raw/d001/u", 1, []byte("new"))

	// Restart WITHOUT closing the view: the pin is durable.
	l2 := reopen(t, dir)
	pins := l2.Pins()
	if _, ok := pins[token]; !ok {
		t.Fatalf("pin lost across restart: %v", pins)
	}
	v2, err := l2.AttachPin(token)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := v2.Read("raw/d001/u"); err != nil || string(got) != "old" {
		t.Fatalf("reattached pin read: %q, %v", got, err)
	}
	// GC in the restarted process still respects the pin.
	l2.Compact(CompactOptions{SmallBytes: 1 << 20, MinMerge: 2})
	if _, err := l2.GC(l2.Head()); err != nil {
		t.Fatal(err)
	}
	if got, _ := v2.Read("raw/d001/u"); string(got) != "old" {
		t.Fatalf("pinned data lost: %q", got)
	}
	if err := l2.Unpin(token); err != nil {
		t.Fatal(err)
	}
	if _, err := l2.AttachPin(token); err == nil {
		t.Fatal("attach after unpin succeeded")
	}
}

func TestHeadPointerPublished(t *testing.T) {
	l, dir := newTestLake(t)
	store(l, "raw/d001/u", 1, []byte("x"))
	store(l, "raw/d002/u", 2, []byte("y"))
	data, err := os.ReadFile(filepath.Join(dir, headName))
	if err != nil {
		t.Fatalf("head pointer missing: %v", err)
	}
	if string(data) != "LHD1 2\n" {
		t.Fatalf("head pointer = %q", data)
	}
	// Stale pointer (crash between journal fsync and publish) self-heals.
	if err := os.WriteFile(filepath.Join(dir, headName), []byte("LHD1 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	reopen(t, dir)
	data, _ = os.ReadFile(filepath.Join(dir, headName))
	if string(data) != "LHD1 2\n" {
		t.Fatalf("head pointer not republished: %q", data)
	}
}

// oracle is the reference implementation of time travel: the logical
// catalog recorded after every data commit the test issued.
type oracle struct {
	mu    sync.Mutex
	seqs  []uint64
	snaps []map[string]string
}

func (o *oracle) record(seq uint64, state map[string]string) {
	snap := make(map[string]string, len(state))
	for k, v := range state {
		snap[k] = v
	}
	o.mu.Lock()
	o.seqs = append(o.seqs, seq)
	o.snaps = append(o.snaps, snap)
	o.mu.Unlock()
}

// at returns the expected catalog as of seq: the snapshot of the largest
// data commit ≤ seq (compaction/GC/pin commits never change the logical
// view, so the state holds across them).
func (o *oracle) at(seq uint64) map[string]string {
	o.mu.Lock()
	defer o.mu.Unlock()
	i := sort.Search(len(o.seqs), func(i int) bool { return o.seqs[i] > seq })
	if i == 0 {
		return map[string]string{}
	}
	return o.snaps[i-1]
}

// TestPropertyOpenAtOracle is the acceptance property: OpenAt(commitN)
// reads are bit-identical to an oracle replaying the first N commits,
// while compaction and GC run concurrently with the workload.
func TestPropertyOpenAtOracle(t *testing.T) {
	l, _ := newTestLake(t)
	rng := rand.New(rand.NewSource(42))
	o := &oracle{}
	state := map[string]string{}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // background compactor + GC racing the workload
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := l.Compact(CompactOptions{SmallBytes: 1 << 10, MinMerge: 2, MaxMerge: 8}); err != nil {
				t.Errorf("concurrent compact: %v", err)
				return
			}
			if _, err := l.GC(l.Head()); err != nil {
				t.Errorf("concurrent gc: %v", err)
				return
			}
		}
	}()

	var open []*View
	steps := 400
	if testing.Short() {
		steps = 120
	}
	for i := 0; i < steps; i++ {
		switch op := rng.Intn(10); {
		case op < 5: // store a new member (sometimes a small batch)
			n := 1 + rng.Intn(3)
			var files []BatchFile
			for j := 0; j < n; j++ {
				rel := fmt.Sprintf("raw/d%03d/u%04d", rng.Intn(20), i*4+j)
				if _, ok := state[rel]; ok {
					continue
				}
				files = append(files, BatchFile{Rel: rel, Day: int64(rng.Intn(20)), Data: []byte(fmt.Sprintf("data-%d-%d-%d", i, j, rng.Int63()))})
			}
			if len(files) == 0 {
				continue
			}
			seq, err := l.StoreBatch(files)
			if err != nil {
				t.Fatalf("step %d store: %v", i, err)
			}
			for _, f := range files {
				state[f.Rel] = string(f.Data)
			}
			o.record(seq, state)
		case op < 7: // delete a live member
			keys := sortedKeys(state)
			if len(keys) == 0 {
				continue
			}
			rel := keys[rng.Intn(len(keys))]
			seq, err := l.Delete([]string{rel})
			if err != nil {
				t.Fatalf("step %d delete %s: %v", i, rel, err)
			}
			delete(state, rel)
			o.record(seq, state)
		case op < 9: // pin a random openable commit and check it now
			// Horizon first: the background GC can raise it to a head
			// newer than one read before it, but never past a later head.
			hor := l.Horizon()
			h := l.Head()
			if h == 0 {
				continue
			}
			seq := hor + uint64(rng.Int63n(int64(h-hor)+1))
			v, err := l.OpenAt(seq)
			if errors.Is(err, ErrHorizon) {
				continue // GC advanced between Horizon() and OpenAt
			}
			if err != nil {
				t.Fatalf("step %d OpenAt(%d): %v", i, seq, err)
			}
			checkView(t, v, o.at(v.Seq()))
			open = append(open, v)
			if len(open) > 4 { // bound the pin set so GC makes progress
				old := open[0]
				open = open[1:]
				checkView(t, old, o.at(old.Seq()))
				old.Close()
			}
		default: // verify a live read against the oracle
			keys := sortedKeys(state)
			if len(keys) == 0 {
				continue
			}
			rel := keys[rng.Intn(len(keys))]
			got, err := l.Read(rel)
			if err != nil || string(got) != state[rel] {
				t.Fatalf("step %d live read %s: %q, %v", i, rel, got, err)
			}
		}
	}
	close(stop)
	wg.Wait()

	// Final sweep: every still-open pin must read its exact snapshot.
	for _, v := range open {
		checkView(t, v, o.at(v.Seq()))
		v.Close()
	}
	// And the head view must equal the final state.
	checkLive(t, l, state)
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func checkView(t *testing.T, v *View, want map[string]string) {
	t.Helper()
	if got := v.List(); len(got) != len(want) {
		t.Fatalf("view@%d has %d members, oracle %d", v.Seq(), len(got), len(want))
	}
	for rel, data := range want {
		got, err := v.Read(rel)
		if err != nil || string(got) != data {
			t.Fatalf("view@%d read %s: %q, %v (want %d bytes)", v.Seq(), rel, got, err, len(data))
		}
	}
}

func checkLive(t *testing.T, l *Lake, want map[string]string) {
	t.Helper()
	if got := l.List(); len(got) != len(want) {
		t.Fatalf("live view has %d members, oracle %d", len(got), len(want))
	}
	for rel, data := range want {
		got, err := l.Read(rel)
		if err != nil || string(got) != data {
			t.Fatalf("live read %s: %q, %v", rel, got, err)
		}
	}
}

func TestVerifyDetectsRot(t *testing.T) {
	l, dir := newTestLake(t)
	store(l, "raw/d001/u", 1, []byte("pristine-bytes"))
	if bad := l.Verify(); len(bad) != 0 {
		t.Fatalf("verify on clean lake: %v", bad)
	}
	// Flip a byte inside the container.
	var ctr string
	l.mu.Lock()
	for p := range l.ctrs {
		ctr = p
	}
	l.mu.Unlock()
	path := filepath.Join(dir, ctr)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if bad := l.Verify(); len(bad) != 1 || bad[0] != "raw/d001/u" {
		t.Fatalf("verify missed rot: %v", bad)
	}
	if _, err := l.Read("raw/d001/u"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read of rotted member: %v", err)
	}
}

func TestStatusShape(t *testing.T) {
	l, _ := newTestLake(t)
	store(l, "raw/d001/a", 1, []byte("aaaa"))
	store(l, "raw/d001/b", 1, []byte("bb"))
	st := l.Status()
	if st.Head != 2 || st.LiveFiles != 2 || st.LiveBytes != 6 || st.PhysBytes != 6 ||
		st.ContainersLive != 2 || st.ContainersTotal != 2 || st.Commits != 2 {
		t.Fatalf("status: %+v", st)
	}
}

// A victim whose live members cannot be read back whole (rot, truncation,
// I/O failure) must stay in the view: removing it would silently drop its
// members from the live namespace and let GC delete bytes the catalog
// still references.
func TestCompactionSkipsUnreadableVictims(t *testing.T) {
	l, dir := newTestLake(t)
	store(l, "raw/d001/good", 1, []byte("good-one"))
	store(l, "raw/d002/also", 2, []byte("good-two"))
	store(l, "raw/d003/bad", 3, []byte("rotten-bytes"))

	// Rot the container serving the third member.
	l.mu.Lock()
	rotted := l.live["raw/d003/bad"].path
	l.mu.Unlock()
	path := filepath.Join(dir, rotted)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := l.Compact(CompactOptions{SmallBytes: 1 << 20, MinMerge: 2, MaxMerge: 64})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("compact over a rotted victim reported %v, want ErrCorrupt", err)
	}
	if res.Skipped != 1 || res.Merged != 2 || res.Members != 2 {
		t.Fatalf("compact result: %+v", res)
	}
	// The rotted member is still in the live namespace — unreadable, not
	// silently lost — and its container survives GC.
	if !slices.Contains(l.List(), "raw/d003/bad") {
		t.Fatal("compaction dropped a live member it could not move")
	}
	if _, err := l.Read("raw/d003/bad"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read of rotted member: %v", err)
	}
	if _, err := l.GC(l.Head()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("GC deleted a container with live members: %v", err)
	}
	// The healthy victims merged normally and still read.
	for rel, want := range map[string]string{"raw/d001/good": "good-one", "raw/d002/also": "good-two"} {
		if got, err := l.Read(rel); err != nil || string(got) != want {
			t.Fatalf("read %s: %q, %v", rel, got, err)
		}
	}
}

// A single container whose members are all tombstoned is retired by a
// remove-only compaction round even below MinMerge; otherwise GC could
// never reclaim its bytes.
func TestLoneFullyDeadContainerRetired(t *testing.T) {
	l, _ := newTestLake(t)
	store(l, "raw/d001/u", 1, []byte("doomed"))
	l.Delete([]string{"raw/d001/u"})
	res, err := l.Compact(DefaultCompactOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq == 0 || res.Merged != 1 || res.Members != 0 {
		t.Fatalf("remove-only compact: %+v", res)
	}
	gr, err := l.GC(l.Head())
	if err != nil {
		t.Fatal(err)
	}
	if gr.Deleted != 1 {
		t.Fatalf("gc after remove-only compact: %+v", gr)
	}
	if n := l.PhysBytes(); n != 0 {
		t.Fatalf("phys bytes after reclaim: %d", n)
	}
}

// Records at or below the GC horizon fold into the materialized base view
// and leave memory, so a long-lived lake's replayed-record count tracks
// the retained tail, not all-time commit count — and views at or above
// the horizon still resolve identically, including after a restart.
func TestJournalPrunedBelowHorizon(t *testing.T) {
	l, dir := newTestLake(t)
	for i := 0; i < 30; i++ {
		if _, err := store(l, fmt.Sprintf("raw/d%03d/u", i), int64(i), []byte(fmt.Sprintf("data-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Delete([]string{"raw/d000/u"}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Compact(CompactOptions{SmallBytes: 1 << 20, MinMerge: 2, MaxMerge: 100}); err != nil {
		t.Fatal(err)
	}
	gr, err := l.GC(l.Head())
	if err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	retained, base := len(l.records), l.baseSeq
	l.mu.Unlock()
	if base != gr.Horizon {
		t.Fatalf("base folded to %d, horizon is %d", base, gr.Horizon)
	}
	if retained != 1 { // only the GC record itself sits above the horizon
		t.Fatalf("%d records retained after pruning", retained)
	}
	// The horizon view resolves from the base and serves the live catalog.
	v, err := l.OpenAt(gr.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if len(v.List()) != 29 {
		t.Fatalf("horizon view sees %d members", len(v.List()))
	}
	if got, err := v.Read("raw/d001/u"); err != nil || string(got) != "data-01" {
		t.Fatalf("horizon view read: %q, %v", got, err)
	}
	if _, err := l.OpenAt(gr.Horizon - 1); !errors.Is(err, ErrHorizon) {
		t.Fatalf("OpenAt below horizon: %v", err)
	}
	// Pruning is memory-only: a restart replays the same journal and
	// serves the same catalog.
	l2 := reopen(t, dir)
	if len(l2.List()) != 29 {
		t.Fatalf("reopened lake sees %d members", len(l2.List()))
	}
	if got, err := l2.Read("raw/d029/u"); err != nil || string(got) != "data-29" {
		t.Fatalf("reopened read: %q, %v", got, err)
	}
}

// Crash litter — a 0444 orphan container whose name will be reused and a
// stale HEAD.lake.tmp — must not wedge the next open or store: data files
// are unlinked before being recreated, since Create over a read-only
// leftover fails for non-root users.
func TestCrashLitterOverwritten(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, containerDir), 0o755); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, containerDir, "c0000000001.ctr")
	if err := os.WriteFile(orphan, []byte("orphaned-by-crash"), 0o444); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, headName+".tmp"), []byte("LHD1 torn"), 0o444); err != nil {
		t.Fatal(err)
	}
	l, err := Open(minidb.OSFS, dir)
	if err != nil {
		t.Fatalf("open over crash litter: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, headName+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("stale head tmp survived load: %v", err)
	}
	if _, err := store(l, "raw/d001/u", 1, []byte("fresh")); err != nil {
		t.Fatalf("store over orphaned container name: %v", err)
	}
	if got, err := l.Read("raw/d001/u"); err != nil || string(got) != "fresh" {
		t.Fatalf("read: %q, %v", got, err)
	}
}
