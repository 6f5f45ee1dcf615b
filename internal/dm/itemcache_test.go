package dm

import (
	"bytes"
	"cmp"
	"compress/gzip"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/epochcache"
	"repro/internal/fits"
	"repro/internal/minidb"
	"repro/internal/schema"
	"repro/internal/telemetry"
)

// loadOverlappingDays loads `days` mission days of 1800 s in 300-s units.
// Every day covers [0, 1800), so a window falls on one or two units of
// EACH day, as on the benchmark's node.
func loadOverlappingDays(t *testing.T, d *DM, days int) {
	t.Helper()
	for day := 1; day <= days; day++ {
		gen := telemetry.GenerateDay(day, telemetry.Config{
			Seed: 77, DayLength: 1800, BackgroundRate: 3, Flares: 2, Bursts: 1,
		})
		for _, u := range telemetry.SegmentDay(gen, 300) {
			if _, err := d.LoadUnit(u); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// storeRawUnit archives a unit and writes its raw_units tuple without the
// view and detection stages of LoadUnit, which reject what it is for: a
// unit whose photons are out of order or carry NaN time tags.
func storeRawUnit(t *testing.T, d *DM, u *telemetry.Unit) {
	t.Helper()
	raw, err := u.PackGz()
	if err != nil {
		t.Fatal(err)
	}
	storeRawItem(t, d, u, raw)
}

// storeRawItem is storeRawUnit with the archived .fits.gz bytes given.
func storeRawItem(t *testing.T, d *DM, u *telemetry.Unit, raw []byte) {
	t.Helper()
	itemID, err := d.nextID("item")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.StoreItemFiles(itemID, ImportUser, true, []StoredFile{
		{Suffix: ".fits.gz", Format: "fits.gz", Data: raw},
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.exec(schema.TableRawUnits, func(tx minidb.Tx) error {
		_, err := tx.Insert(schema.TableRawUnits, minidb.Row{
			minidb.S(u.Name()), minidb.I(int64(u.Day)), minidb.I(int64(u.Seq)),
			minidb.F(u.TStart), minidb.F(u.TStop), minidb.I(int64(len(u.Photons))),
			minidb.I(1), minidb.S(itemID),
		})
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// refUnit is a raw unit decoded the long way, for the oracle.
type refUnit struct {
	info    *UnitInfo
	gzSize  int64
	photons []fits.Photon
}

func referenceUnits(t *testing.T, d *DM) []refUnit {
	t.Helper()
	infos, err := d.UnitsInRange(math.Inf(-1), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	var out []refUnit
	for _, u := range infos {
		data, _, err := d.ReadItem(d.systemSession(), u.ItemID)
		if err != nil {
			t.Fatal(err)
		}
		var f *fits.File
		if err := telemetry.WithGzipReader(data, func(r io.Reader) (derr error) {
			f, derr = fits.Decode(r)
			return derr
		}); err != nil {
			t.Fatal(err)
		}
		parsed, err := telemetry.ParseUnit(f)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, refUnit{info: u, gzSize: int64(len(data)), photons: parsed.Photons})
	}
	return out
}

// referenceWindow is RawPhotons as it was before the cache: every
// overlapping unit, a per-photon filter, one sort.
func referenceWindow(units []refUnit, t0, t1 float64) (photons []fits.Photon, bytesRead int64) {
	for _, u := range units {
		if !(u.info.TStart < t1 && u.info.TStop > t0) {
			continue
		}
		bytesRead += u.gzSize
		for _, p := range u.photons {
			if p.Time >= t0 && p.Time < t1 {
				photons = append(photons, p)
			}
		}
	}
	slices.SortStableFunc(photons, func(a, b fits.Photon) int { return cmp.Compare(a.Time, b.Time) })
	return photons, bytesRead
}

func photonKey(p fits.Photon) [3]uint64 {
	return [3]uint64{math.Float64bits(p.Time), math.Float64bits(p.Energy), uint64(p.Detector)<<8 | uint64(p.Segment)}
}

// samePhotons: bit-identical in order when no two reference photons tie on
// Time; the same multiset in non-decreasing time order otherwise.
func samePhotons(t *testing.T, label string, got, want []fits.Photon) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d photons, want %d", label, len(got), len(want))
	}
	ties := false
	for i := 1; i < len(want); i++ {
		if want[i].Time == want[i-1].Time {
			ties = true
		}
		if got[i].Time < got[i-1].Time {
			t.Fatalf("%s: photon %d out of time order", label, i)
		}
	}
	if !ties {
		for i, w := range want {
			g := got[i]
			if math.Float64bits(g.Time) != math.Float64bits(w.Time) || math.Float64bits(g.Energy) != math.Float64bits(w.Energy) ||
				g.Detector != w.Detector || g.Segment != w.Segment {
				t.Fatalf("%s: photon %d = %+v, want %+v", label, i, got[i], want[i])
			}
		}
		return
	}
	count := map[[3]uint64]int{}
	for _, p := range want {
		count[photonKey(p)]++
	}
	for _, p := range got {
		count[photonKey(p)]--
	}
	for k, n := range count {
		if n != 0 {
			t.Fatalf("%s: multiset differs at %v by %d", label, k, n)
		}
	}
}

type window struct{ t0, t1 float64 }

// seededWindows draws n windows: mostly short ones inside the day, some
// spanning many units, some on unit boundaries, some empty or outside.
func seededWindows(seed int64, n int) []window {
	rng := rand.New(rand.NewSource(seed))
	ws := []window{{0, 1800}, {300, 600}, {299.999, 300.001}, {600, 600}, {-50, 0}, {1800, 2000}, {5000, 6000}}
	for len(ws) < n {
		t0 := rng.Float64()*1900 - 50
		w := window{t0, t0 + 1 + rng.Float64()*120}
		switch rng.Intn(8) {
		case 0:
			w.t1 = t0 + rng.Float64()*900
		case 1:
			w.t0 = float64(rng.Intn(7)) * 300
			w.t1 = w.t0 + float64(1+rng.Intn(2))*300
		}
		ws = append(ws, w)
	}
	return ws
}

func TestRawPhotonsMatchesDecodeAndSortOracle(t *testing.T) {
	d := newTestDM(t)
	loadOverlappingDays(t, d, 3)
	// One unit written out of time order and with a NaN time tag: the cache
	// must repair it at insert, not serve a wrong binary search.
	odd := &telemetry.Unit{Day: 9, Seq: 0, TStart: 100, TStop: 700}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		odd.Photons = append(odd.Photons, fits.Photon{Time: 100 + rng.Float64()*600, Energy: 3 + rng.Float64()*50, Detector: uint8(i % 9)})
	}
	odd.Photons[17].Time = math.NaN()
	odd.Photons[40].Time = odd.Photons[41].Time // a tie, too
	storeRawUnit(t, d, odd)
	st := d.Stats()
	if st.UnitCacheMisses.Load() != 0 || st.UnitCacheBytes.Load() != 0 {
		t.Fatalf("ingest touched the decoded cache: %d misses, %d bytes", st.UnitCacheMisses.Load(), st.UnitCacheBytes.Load())
	}

	ref := referenceUnits(t, d)
	var unitBytes, largest int64
	for _, u := range ref {
		n := int64(len(u.photons)) * fits.PhotonRecordSize
		unitBytes += n
		largest = max(largest, n)
	}
	windows := seededWindows(1, 300)
	want := make([][]fits.Photon, len(windows))
	wantBytes := make([]int64, len(windows))
	for i, w := range windows {
		want[i], wantBytes[i] = referenceWindow(ref, w.t0, w.t1)
	}
	sys := d.systemSession()
	pass := func(label string, n int) {
		t.Helper()
		for i, w := range windows[:n] {
			got, gotBytes, err := d.RawPhotons(sys, w.t0, w.t1)
			if err != nil {
				t.Fatalf("%s [%v,%v): %v", label, w.t0, w.t1, err)
			}
			samePhotons(t, label, got, want[i])
			if gotBytes != wantBytes[i] {
				t.Fatalf("%s [%v,%v): bytesRead %d, want %d", label, w.t0, w.t1, gotBytes, wantBytes[i])
			}
		}
	}

	reads0 := st.FilesRead.Load()
	pass("cold", len(windows))
	if got := st.UnitCacheMisses.Load(); got != int64(len(ref)) {
		t.Fatalf("cold pass decoded %d units, want each of %d once", got, len(ref))
	}
	if got := st.FilesRead.Load() - reads0; got != int64(len(ref)) {
		t.Fatalf("cold pass read %d files, want %d", got, len(ref))
	}
	// The NaN photon is dropped from the resident table.
	if got := st.UnitCacheBytes.Load(); got != unitBytes-fits.PhotonRecordSize {
		t.Fatalf("resident bytes %d, want %d", got, unitBytes-fits.PhotonRecordSize)
	}

	hits0 := st.UnitCacheHits.Load()
	pass("warm", len(windows))
	if st.UnitCacheMisses.Load() != int64(len(ref)) || st.FilesRead.Load()-reads0 != int64(len(ref)) {
		t.Fatal("warm pass decoded or read a unit again")
	}
	if st.UnitCacheHits.Load() == hits0 || st.UnitCacheEvictions.Load() != 0 {
		t.Fatalf("warm pass: hits %d -> %d, evictions %d", hits0, st.UnitCacheHits.Load(), st.UnitCacheEvictions.Load())
	}

	// A budget of a third of the load: the same answers while evicting
	// (fewer windows: nearly every one of them inflates its units again).
	budget := max(unitBytes/3, largest)
	d.decoded = epochcache.New[struct{}, any](budget)
	st.UnitCacheBytes.Store(0)
	pass("evicting", len(windows)/3)
	if st.UnitCacheEvictions.Load() == 0 {
		t.Fatal("tiny budget never evicted")
	}
	if got := st.UnitCacheBytes.Load(); got <= 0 || got > budget {
		t.Fatalf("resident bytes %d outside (0, %d]", got, budget)
	}
}

// Items archived before the pack level changed are BestSpeed gzip members
// of the same FITS bytes: they read back photon for photon as PackGz's do.
func TestRawPhotonsReadsBestSpeedItems(t *testing.T) {
	gen := telemetry.GenerateDay(1, telemetry.Config{Seed: 77, DayLength: 1800, BackgroundRate: 3, Flares: 2, Bursts: 1})
	units := telemetry.SegmentDay(gen, 300)
	old, cur := newTestDM(t), newTestDM(t)
	for _, u := range units {
		var buf bytes.Buffer
		zw, err := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
		if err != nil {
			t.Fatal(err)
		}
		if err := u.FITS().Encode(zw); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		packed, err := u.PackGz()
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(buf.Bytes(), packed) {
			t.Fatalf("unit %s: BestSpeed and PackGz items are the same bytes", u.Name())
		}
		storeRawItem(t, old, u, buf.Bytes())
		storeRawItem(t, cur, u, packed)
	}
	seen := 0
	for _, w := range seededWindows(2, 60) {
		want, _, err := cur.RawPhotons(cur.systemSession(), w.t0, w.t1)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := old.RawPhotons(old.systemSession(), w.t0, w.t1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("[%v,%v): %d photons, want %d", w.t0, w.t1, len(got), len(want))
		}
		for i := range want {
			if photonKey(got[i]) != photonKey(want[i]) {
				t.Fatalf("[%v,%v): photon %d = %+v, want %+v", w.t0, w.t1, i, got[i], want[i])
			}
		}
		seen += len(want)
	}
	if seen == 0 {
		t.Fatal("no window held a photon")
	}
}

func TestRawPhotonsConcurrentMissesDecodeOnce(t *testing.T) {
	d := newTestDM(t)
	loadOverlappingDays(t, d, 3)
	ref := referenceUnits(t, d)
	st := d.Stats()
	reads0 := st.FilesRead.Load()
	sys := d.systemSession()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Everyone starts on the same units, then fans out.
			for _, w := range append([]window{{0, 1800}}, seededWindows(int64(g%2), 20)...) {
				want, wantBytes := referenceWindow(ref, w.t0, w.t1)
				got, gotBytes, err := d.RawPhotons(sys, w.t0, w.t1)
				if err != nil || len(got) != len(want) || gotBytes != wantBytes {
					t.Errorf("goroutine %d [%v,%v): %d photons %d bytes %v, want %d photons %d bytes",
						g, w.t0, w.t1, len(got), gotBytes, err, len(want), wantBytes)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := st.UnitCacheMisses.Load(); got != int64(len(ref)) {
		t.Fatalf("%d decodes for %d items", got, len(ref))
	}
	if got := st.FilesRead.Load() - reads0; got != int64(len(ref)) {
		t.Fatalf("%d archive reads for %d items", got, len(ref))
	}
}

// editLocEntries rewrites (or, with a nil edit result, deletes) the
// location tuples of one item.
func editLocEntries(t *testing.T, d *DM, itemID string, edit func(minidb.Row) minidb.Row) {
	t.Helper()
	db := d.routeDB(schema.TableLocEntries)
	res, err := db.Query(minidb.Query{
		Table: schema.TableLocEntries,
		Where: []minidb.Pred{{Col: "item_id", Op: minidb.OpEq, Val: minidb.S(itemID)}},
	})
	if err != nil || len(res.Rows) == 0 {
		t.Fatalf("loc entries of %s: %d rows, %v", itemID, len(res.Rows), err)
	}
	for i, row := range res.Rows {
		if updated := edit(row.Clone()); updated != nil {
			err = db.Update(schema.TableLocEntries, res.RowIDs[i], updated)
		} else {
			err = db.Delete(schema.TableLocEntries, res.RowIDs[i])
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestWarmUnitStillChecksNameMapAccessAndMount(t *testing.T) {
	d := newTestDM(t)
	u := smallUnit(t)
	rep, err := d.LoadUnit(u)
	if err != nil {
		t.Fatal(err)
	}
	alice, bob := newScientist(t, d, "alice"), newScientist(t, d, "bob")
	st := d.Stats()

	want, wantBytes, err := d.RawPhotons(alice, 100, 900) // warms the unit
	if err != nil || len(want) == 0 {
		t.Fatalf("cold read: %d photons, %v", len(want), err)
	}
	again := func(label string, s *Session) {
		t.Helper()
		misses := st.UnitCacheMisses.Load()
		got, gotBytes, err := d.RawPhotons(s, 100, 900)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		samePhotons(t, label, got, want)
		if gotBytes != wantBytes {
			t.Fatalf("%s: bytesRead %d, want %d", label, gotBytes, wantBytes)
		}
		if st.UnitCacheMisses.Load() != misses {
			t.Fatalf("%s: decoded the unit again", label)
		}
	}

	// The returned slice is the caller's: scribbling on it changes nothing.
	got, _, _ := d.RawPhotons(alice, 100, 900)
	for i := range got {
		got[i] = fits.Photon{Time: -1}
	}
	again("after mutating a result", alice)

	// Recalibration edits tuples, not item bytes.
	if _, err := d.Recalibrate(rep.UnitID, "new gain tables"); err != nil {
		t.Fatal(err)
	}
	again("after Recalibrate", bob)

	// Made private to alice: bob is refused although the unit is warm.
	editLocEntries(t, d, rep.ItemID, func(r minidb.Row) minidb.Row {
		r[7], r[8] = minidb.S("alice"), minidb.Bo(false)
		return r
	})
	denied := st.AccessDenied.Load()
	if _, _, err := d.RawPhotons(bob, 100, 900); !IsDenied(err) {
		t.Fatalf("bob on alice's private warm unit: %v", err)
	}
	if _, _, err := d.RawPhotons(nil, 100, 900); !IsDenied(err) {
		t.Fatalf("anonymous on a private warm unit: %v", err)
	}
	if got := st.AccessDenied.Load() - denied; got != 2 {
		t.Fatalf("AccessDenied counted %d, want 2", got)
	}
	again("owner of the private unit", alice)

	// Mapped to an archive this node has not mounted.
	editLocEntries(t, d, rep.ItemID, func(r minidb.Row) minidb.Row {
		r[3] = minidb.S("ghost-0")
		return r
	})
	if _, _, err := d.RawPhotons(alice, 100, 900); err == nil || !strings.Contains(err.Error(), "not mounted") {
		t.Fatalf("warm unit on an unmounted archive: %v", err)
	}

	// Name-map rows gone: an error, not photons.
	editLocEntries(t, d, rep.ItemID, func(minidb.Row) minidb.Row { return nil })
	if got, _, err := d.RawPhotons(alice, 100, 900); err == nil {
		t.Fatalf("warm unit without a name mapping returned %d photons", len(got))
	}
}

func TestViewsInRangeServedFromDecodedCache(t *testing.T) {
	d := newTestDM(t)
	if _, err := d.LoadUnit(smallUnit(t)); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	cold, err := d.ViewsInRange(nil, 0, 1800)
	if err != nil || len(cold) != ViewPartitions {
		t.Fatalf("cold: %d views, %v", len(cold), err)
	}
	reads, misses := st.FilesRead.Load(), st.UnitCacheMisses.Load()
	if misses != ViewPartitions {
		t.Fatalf("cold pass decoded %d views", misses)
	}
	warm, err := d.ViewsInRange(nil, 0, 1800)
	if err != nil || len(warm) != len(cold) {
		t.Fatalf("warm: %d views, %v", len(warm), err)
	}
	if st.FilesRead.Load() != reads || st.UnitCacheMisses.Load() != misses {
		t.Fatal("warm pass read or decoded a view again")
	}
	for i := range cold {
		if warm[i].TStart != cold[i].TStart || string(warm[i].Enc.Bytes()) != string(cold[i].Enc.Bytes()) {
			t.Fatalf("view %d differs warm from cold", i)
		}
	}
	// The pushed-down tstop > t0 predicate keeps the half-open overlap rule.
	if vs, err := d.ViewsInRange(nil, cold[0].TStop, cold[0].TStop+1); err != nil || len(vs) != 1 || vs[0].TStart != cold[1].TStart {
		t.Fatalf("window starting at a view's stop: %d views, %v", len(vs), err)
	}
	if us, err := d.UnitsInRange(1800, 1900); err != nil || len(us) != 0 {
		t.Fatalf("window starting at the unit's stop: %d units, %v", len(us), err)
	}
}
