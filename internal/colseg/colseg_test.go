package colseg

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/minidb"
)

// eventsSchema is the test table: the shape of the RHESSI event catalog —
// a monotone id, a dictionary-friendly unit string, time and energy floats,
// small ints, and a nullable column to exercise NULL semantics.
func eventsSchema() *minidb.Schema {
	return &minidb.Schema{
		Name: "ev",
		Columns: []minidb.Column{
			{Name: "event_id", Type: minidb.IntType},
			{Name: "unit_id", Type: minidb.StringType},
			{Name: "t", Type: minidb.FloatType},
			{Name: "energy", Type: minidb.FloatType, Nullable: true},
			{Name: "detector", Type: minidb.IntType},
			{Name: "flag", Type: minidb.BoolType},
		},
		PrimaryKey: "event_id",
		Indexes:    []string{"t"},
	}
}

func openEvents(t testing.TB) *minidb.DB {
	t.Helper()
	db, err := minidb.Open("", eventsSchema())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func insertEvents(t testing.TB, db *minidb.DB, rng *rand.Rand, n int, firstID int64) {
	t.Helper()
	b := &minidb.Batch{}
	for i := 0; i < n; i++ {
		id := firstID + int64(i)
		energy := minidb.F(3 + 300*rng.Float64())
		if rng.Intn(10) == 0 {
			energy = minidb.Null()
		}
		b.Insert("ev", minidb.Row{
			minidb.I(id),
			minidb.S(fmt.Sprintf("u%03d", rng.Intn(12))),
			minidb.F(float64(id) + rng.Float64()),
			energy,
			minidb.I(int64(rng.Intn(9))),
			minidb.Bo(rng.Intn(2) == 0),
		})
	}
	if _, err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
}

// sameResult asserts bit-identical aggregates: float fields compare by
// bits, not tolerance — the whole point of the shared accumulation order.
func sameResult(t *testing.T, ctx string, vec, ref *Result) {
	t.Helper()
	if vec.Rows != ref.Rows || vec.NonNull != ref.NonNull {
		t.Fatalf("%s: rows %d/%d vs %d/%d", ctx, vec.Rows, vec.NonNull, ref.Rows, ref.NonNull)
	}
	bits := math.Float64bits
	if vec.NonNull > 0 {
		if bits(vec.Sum) != bits(ref.Sum) || bits(vec.Min) != bits(ref.Min) || bits(vec.Max) != bits(ref.Max) {
			t.Fatalf("%s: stats %v/%v/%v vs %v/%v/%v", ctx, vec.Sum, vec.Min, vec.Max, ref.Sum, ref.Min, ref.Max)
		}
	}
	if len(vec.Bins) != len(ref.Bins) {
		t.Fatalf("%s: %d bins vs %d", ctx, len(vec.Bins), len(ref.Bins))
	}
	for i := range vec.Bins {
		if vec.Bins[i] != ref.Bins[i] {
			t.Fatalf("%s: bin %d: %d vs %d", ctx, i, vec.Bins[i], ref.Bins[i])
		}
	}
	if len(vec.Groups) != len(ref.Groups) {
		t.Fatalf("%s: %d groups vs %d", ctx, len(vec.Groups), len(ref.Groups))
	}
	for i := range vec.Groups {
		g, h := vec.Groups[i], ref.Groups[i]
		if g.Key != h.Key || g.Rows != h.Rows || g.NonNull != h.NonNull || bits(g.Sum) != bits(h.Sum) {
			t.Fatalf("%s: group %d: %+v vs %+v", ctx, i, g, h)
		}
	}
}

func TestVectorizedAggregates(t *testing.T) {
	db := openEvents(t)
	rng := rand.New(rand.NewSource(1))
	insertEvents(t, db, rng, 1000, 0)
	store, err := Open(Options{DB: db, SegmentRows: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Refresh("ev"); err != nil {
		t.Fatal(err)
	}
	if got := store.SegmentCount("ev"); got != 7 { // 1000/128 full chunks
		t.Fatalf("segments = %d, want 7", got)
	}
	queries := []Query{
		{Table: "ev", Agg: AggCount},
		{Table: "ev", Agg: AggStats, Col: "energy"},
		{Table: "ev", Agg: AggStats, Col: "t",
			Where: []minidb.Pred{{Col: "t", Op: minidb.OpBetween, Val: minidb.F(100), Hi: minidb.F(220)}}},
		{Table: "ev", Agg: AggHist, Col: "t", Bins: 24, Lo: 0, Hi: 1001},
		{Table: "ev", Agg: AggStats, Col: "energy", GroupBy: "detector"},
		{Table: "ev", Agg: AggStats, Col: "energy", GroupBy: "unit_id",
			Where: []minidb.Pred{{Col: "flag", Op: minidb.OpEq, Val: minidb.Bo(true)}}},
		{Table: "ev", Agg: AggCount,
			Where: []minidb.Pred{{Col: "unit_id", Op: minidb.OpPrefix, Val: minidb.S("u00")}}},
		{Table: "ev", Agg: AggCount,
			Where: []minidb.Pred{{Col: "energy", Op: minidb.OpLt, Val: minidb.F(50)}}}, // NULLs match OpLt
	}
	for i, q := range queries {
		vec, err := store.Run(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		ref, err := RunRows(db, q)
		if err != nil {
			t.Fatalf("query %d ref: %v", i, err)
		}
		sameResult(t, fmt.Sprintf("query %d", i), vec, ref)
		if !vec.Stats.Vectorized {
			t.Fatalf("query %d did not use segments", i)
		}
	}
}

// TestZoneMapPruning checks that a narrow time-range predicate skips the
// segments whose zones exclude it — the monotone t column partitions time
// across segments, so a range touching one chunk prunes the rest.
func TestZoneMapPruning(t *testing.T) {
	db := openEvents(t)
	rng := rand.New(rand.NewSource(2))
	insertEvents(t, db, rng, 1024, 0)
	store, err := Open(Options{DB: db, SegmentRows: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Refresh("ev"); err != nil {
		t.Fatal(err)
	}
	res, err := store.Run(Query{Table: "ev", Agg: AggCount,
		Where: []minidb.Pred{{Col: "t", Op: minidb.OpBetween, Val: minidb.F(300), Hi: minidb.F(320)}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Segments != 8 || res.Stats.SegmentsPruned < 6 {
		t.Fatalf("pruned %d of %d segments, want >= 6 of 8", res.Stats.SegmentsPruned, res.Stats.Segments)
	}
	ref, err := RunRows(db, Query{Table: "ev", Agg: AggCount,
		Where: []minidb.Pred{{Col: "t", Op: minidb.OpBetween, Val: minidb.F(300), Hi: minidb.F(320)}}})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "pruned count", res, ref)
}

// TestSegmentFormatRoundTrip: encode → decode → encode must be canonical,
// and the decoded segment must answer queries identically.
func TestSegmentFormatRoundTrip(t *testing.T) {
	db := openEvents(t)
	rng := rand.New(rand.NewSource(3))
	insertEvents(t, db, rng, 300, 0)
	snap, err := db.TableSnap("ev")
	if err != nil {
		t.Fatal(err)
	}
	seg, err := BuildSegment(snap, 0, 300)
	if err != nil {
		t.Fatal(err)
	}
	data := encodeSegment(seg)
	dec, err := decodeSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeSegment(dec), data) {
		t.Fatal("re-encoding decoded segment is not byte-identical")
	}
	q := Query{Table: "ev", Agg: AggStats, Col: "energy", GroupBy: "unit_id"}
	a1, a2 := newAccum(&q), newAccum(&q)
	if _, _, err := runSegment(seg, &q, a1, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := runSegment(dec, &q, a2, nil); err != nil {
		t.Fatal(err)
	}
	sameResult(t, "decoded segment", a1.finish(), a2.finish())
}

func TestDecodeRejectsCorruption(t *testing.T) {
	db := openEvents(t)
	rng := rand.New(rand.NewSource(4))
	insertEvents(t, db, rng, 64, 0)
	snap, _ := db.TableSnap("ev")
	seg, err := BuildSegment(snap, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	data := encodeSegment(seg)
	for _, cut := range []int{1, len(data) / 2, len(data) - 1} {
		if _, err := decodeSegment(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for i := 0; i < len(data); i += 37 {
		flipped := append([]byte(nil), data...)
		flipped[i] ^= 0x40
		if _, err := decodeSegment(flipped); err == nil {
			t.Fatalf("bit flip at %d accepted", i)
		}
	}
}

// TestConcurrentCommitDuringBuild is the lock-freedom regression test:
// commits (appends and rewrites) race with segment builds and queries, and
// the store must never serve stale or torn data — a query after the writer
// finishes must see every committed row even with no Refresh since, because
// validation demotes invalidated segments to the row path.
func TestConcurrentCommitDuringBuild(t *testing.T) {
	db := openEvents(t)
	rng := rand.New(rand.NewSource(5))
	insertEvents(t, db, rng, 512, 0)
	store, err := Open(Options{DB: db, SegmentRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Refresh("ev"); err != nil {
		t.Fatal(err)
	}

	var committed atomic.Int64
	committed.Store(512)
	var writerWG, builderWG sync.WaitGroup
	stop := make(chan struct{})

	// Writer: appends rows one batch at a time.
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		wrng := rand.New(rand.NewSource(6))
		for i := 0; i < 40; i++ {
			insertEvents(t, db, wrng, 32, committed.Load())
			committed.Add(32)
		}
	}()

	// Builder: refreshes concurrently with the writer's commits.
	builderWG.Add(1)
	go func() {
		defer builderWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := store.Refresh("ev"); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Reader: counts must never run backwards or overshoot what has been
	// committed — either would mean a query saw a torn or stale state.
	var last int64
	for i := 0; i < 200; i++ {
		lo := committed.Load()
		res, err := store.Run(Query{Table: "ev", Agg: AggCount})
		if err != nil {
			t.Fatal(err)
		}
		hi := committed.Load()
		if res.Rows < lo || res.Rows > hi {
			t.Fatalf("count %d outside committed window [%d, %d]", res.Rows, lo, hi)
		}
		if res.Rows < last {
			t.Fatalf("count went backwards: %d after %d", res.Rows, last)
		}
		last = res.Rows
	}
	writerWG.Wait()
	close(stop)
	builderWG.Wait()

	// Rewrite every 10th row WITHOUT refreshing: the segments are now
	// stale, and the store must detect that and fall back to rows.
	total := committed.Load()
	for id := int64(0); id < total; id += 10 {
		row := minidb.Row{minidb.I(id), minidb.S("moved"), minidb.F(0.5),
			minidb.Null(), minidb.I(0), minidb.Bo(false)}
		if err := db.Update("ev", id, row); err != nil {
			t.Fatal(err)
		}
	}
	q := Query{Table: "ev", Agg: AggCount,
		Where: []minidb.Pred{{Col: "unit_id", Op: minidb.OpEq, Val: minidb.S("moved")}}}
	res, err := store.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	want := (total + 9) / 10
	if res.Rows != want {
		t.Fatalf("stale segments served: saw %d rewritten rows, want %d", res.Rows, want)
	}
	if res.Stats.Vectorized {
		t.Fatal("store claimed vectorized execution over invalidated segments")
	}
	// After a refresh the same query runs vectorized with the same answer.
	if err := store.Refresh("ev"); err != nil {
		t.Fatal(err)
	}
	res2, err := store.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Rows != want || !res2.Stats.Vectorized {
		t.Fatalf("post-refresh: rows %d (want %d), vectorized %v", res2.Rows, want, res2.Stats.Vectorized)
	}
}

// TestPropertyVectorizedEqualsRows is the quick_test-style property lane:
// randomized tables (NULLs, duplicates, rewrites) and randomized queries,
// with the vectorized chain checked bit-identical against the row engine.
func TestPropertyVectorizedEqualsRows(t *testing.T) {
	iters := 60
	if testing.Short() {
		iters = 12
	}
	ops := []minidb.Op{minidb.OpEq, minidb.OpNe, minidb.OpLt, minidb.OpLe,
		minidb.OpGt, minidb.OpGe, minidb.OpBetween, minidb.OpPrefix}
	cols := []string{"event_id", "unit_id", "t", "energy", "detector", "flag"}
	for iter := 0; iter < iters; iter++ {
		rng := rand.New(rand.NewSource(int64(100 + iter)))
		db := openEvents(t)
		n := 64 + rng.Intn(512)
		insertEvents(t, db, rng, n, 0)
		// Random rewrites and deletes on some iterations: segments must be
		// rebuilt and tombstones handled.
		if iter%3 == 1 {
			for k := 0; k < 1+rng.Intn(8); k++ {
				id := int64(rng.Intn(n))
				if rng.Intn(2) == 0 {
					db.Delete("ev", id)
				} else {
					db.Update("ev", id, minidb.Row{minidb.I(id), minidb.S("rw"),
						minidb.F(rng.Float64() * float64(n)), minidb.F(1), minidb.I(1), minidb.Bo(true)})
				}
			}
		}
		store, err := Open(Options{DB: db, SegmentRows: 32 + rng.Intn(96)})
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Refresh("ev"); err != nil {
			t.Fatal(err)
		}
		randVal := func(col string) minidb.Value {
			switch rng.Intn(8) {
			case 0:
				return minidb.Null()
			case 1:
				return minidb.S(fmt.Sprintf("u%03d", rng.Intn(14)))
			case 2:
				return minidb.Bo(rng.Intn(2) == 0)
			case 3:
				return minidb.I(int64(rng.Intn(n)))
			default:
				switch col {
				case "unit_id":
					return minidb.S(fmt.Sprintf("u%03d", rng.Intn(14)))
				case "detector":
					return minidb.I(int64(rng.Intn(9)))
				default:
					return minidb.F(rng.Float64() * float64(n))
				}
			}
		}
		for qi := 0; qi < 8; qi++ {
			q := Query{Table: "ev"}
			for f := rng.Intn(3); f > 0; f-- {
				col := cols[rng.Intn(len(cols))]
				p := minidb.Pred{Col: col, Op: ops[rng.Intn(len(ops))], Val: randVal(col)}
				if p.Op == minidb.OpBetween {
					p.Hi = randVal(col)
				}
				if p.Op == minidb.OpPrefix {
					p.Val = minidb.S("u0")
				}
				q.Where = append(q.Where, p)
			}
			switch rng.Intn(3) {
			case 0:
				q.Agg = AggCount
			case 1:
				q.Agg = AggStats
				q.Col = cols[rng.Intn(len(cols))]
			case 2:
				q.Agg = AggHist
				q.Col = []string{"t", "energy", "event_id"}[rng.Intn(3)]
				q.Bins = 1 + rng.Intn(16)
				q.Lo = rng.Float64() * float64(n/2)
				q.Hi = q.Lo + 1 + rng.Float64()*float64(n)
			}
			if q.Agg != AggHist && rng.Intn(2) == 0 {
				q.GroupBy = cols[rng.Intn(len(cols))]
				if q.Agg == AggStats && q.Col == "" {
					q.Col = "energy"
				}
			}
			vec, err := store.Run(q)
			if err != nil {
				t.Fatalf("iter %d q %d (%+v): %v", iter, qi, q, err)
			}
			ref, err := RunRows(db, q)
			if err != nil {
				t.Fatalf("iter %d q %d ref (%+v): %v", iter, qi, q, err)
			}
			sameResult(t, fmt.Sprintf("iter %d q %d (%+v)", iter, qi, q), vec, ref)
		}
		db.Close()
	}
}

// TestZoneEdgesPruneNothingTheyHold compares a predicate whose constant
// is a segment's zone minimum or maximum against the row path, for every
// comparison operator: a zone map that prunes a segment holding its own
// edge value loses rows. Random constants almost never land on an edge.
func TestZoneEdgesPruneNothingTheyHold(t *testing.T) {
	const segRows, n = 32, 128
	db := openEvents(t)
	insertEvents(t, db, rand.New(rand.NewSource(7)), n, 0)
	store, err := Open(Options{DB: db, SegmentRows: segRows})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Refresh("ev"); err != nil {
		t.Fatal(err)
	}

	// The named case: 32 is segment 1's minimum and matches one row.
	q := Query{Table: "ev", Agg: AggCount, Where: []minidb.Pred{
		{Col: "event_id", Op: minidb.OpLe, Val: minidb.I(32)},
		{Col: "event_id", Op: minidb.OpGe, Val: minidb.I(32)},
	}}
	if res, err := store.Run(q); err != nil || res.Rows != 1 {
		t.Fatalf("event_id <= 32 AND event_id >= 32: %+v, %v; want 1 row", res, err)
	}

	all, err := db.Query(minidb.Query{Table: "ev", OrderBy: []minidb.Order{{Col: "event_id"}}})
	if err != nil {
		t.Fatal(err)
	}
	ops := []minidb.Op{minidb.OpEq, minidb.OpNe, minidb.OpLt, minidb.OpLe, minidb.OpGt, minidb.OpGe}
	for _, c := range []struct {
		col string
		idx int
	}{{"event_id", 0}, {"t", 2}} {
		col, ci := c.col, c.idx
		for seg := 0; seg < n/segRows; seg++ {
			lo, hi := all.Rows[seg*segRows][ci], all.Rows[seg*segRows][ci]
			for _, row := range all.Rows[seg*segRows : (seg+1)*segRows] {
				if minidb.Compare(row[ci], lo) < 0 {
					lo = row[ci]
				}
				if minidb.Compare(row[ci], hi) > 0 {
					hi = row[ci]
				}
			}
			for _, edge := range []minidb.Value{lo, hi} {
				for _, op := range ops {
					q := Query{Table: "ev", Agg: AggCount,
						Where: []minidb.Pred{{Col: col, Op: op, Val: edge}}}
					vec, err := store.Run(q)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := RunRows(db, q)
					if err != nil {
						t.Fatal(err)
					}
					sameResult(t, fmt.Sprintf("%s %v %v (segment %d edge)", col, op, edge, seg), vec, ref)
				}
			}
		}
	}
}

// TestWireRoundTrip checks query and result codecs.
func TestWireRoundTrip(t *testing.T) {
	q := Query{
		Table: "ev",
		Where: []minidb.Pred{
			{Col: "t", Op: minidb.OpBetween, Val: minidb.F(1.5), Hi: minidb.F(9)},
			{Col: "unit_id", Op: minidb.OpPrefix, Val: minidb.S("u0")},
		},
		Agg: AggHist, Col: "energy", Bins: 12, Lo: 3, Hi: 330,
	}
	var b bytes.Buffer
	EncodeQuery(&b, q)
	got, err := DecodeQuery(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b2 bytes.Buffer
	EncodeQuery(&b2, got)
	if !bytes.Equal(b.Bytes(), b2.Bytes()) {
		t.Fatal("query round trip not canonical")
	}
	res := &Result{Rows: 7, NonNull: 5, Sum: 1.25, Min: -1, Max: 9,
		Bins: []int64{1, 0, 4}, Groups: []Group{{Key: "\"u001\"", Rows: 3, Sum: 0.5, NonNull: 2}},
		Stats: ExecStats{Segments: 4, SegmentsPruned: 2, SegRows: 100, TailRows: 3, Vectorized: true}}
	b.Reset()
	EncodeResult(&b, res)
	rres, err := DecodeResult(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b3 bytes.Buffer
	EncodeResult(&b3, rres)
	if !bytes.Equal(b.Bytes(), b3.Bytes()) {
		t.Fatal("result round trip not canonical")
	}
}
