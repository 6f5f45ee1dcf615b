package minidb

import (
	"fmt"
	"math/rand"
	"testing"
)

// browseKinds are the kind hints of the HLE-shaped table.
var browseKinds = []string{"flare", "gamma-ray-burst", "quiet-period"}

// hleShaped builds one shard's worth of the HLE catalog as the browse pages
// query it, drawn like the benchmark cell's seed: n public rows with a
// unique id, a random kind of three, a random mission day of n/25 (about 25
// rows a day, eight a kind and day), tstart within the day, and the indexes
// of the HLE table.
func hleShaped(tb testing.TB, n int) *DB { return hleRows(tb, n, false) }

// hleClustered is hleShaped with every flare in the last third of the
// mission days: a kind whose matches all sit at the far end of the tstart
// order, the worst case of a walk over it.
func hleClustered(tb testing.TB, n int) *DB { return hleRows(tb, n, true) }

func hleRows(tb testing.TB, n int, clustered bool) *DB {
	tb.Helper()
	db, err := Open("", &Schema{
		Name: "hle",
		Columns: []Column{
			{Name: "hle_id", Type: StringType},
			{Name: "owner", Type: StringType},
			{Name: "public", Type: BoolType},
			{Name: "kind_hint", Type: StringType},
			{Name: "tstart", Type: FloatType},
			{Name: "day", Type: IntType},
		},
		PrimaryKey: "hle_id",
		Indexes:    []string{"owner", "tstart", "kind_hint", "day"},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	rng := rand.New(rand.NewSource(1))
	tx := db.Begin()
	for i := 0; i < n; i++ {
		day := rng.Intn(n / 25)
		kind := browseKinds[rng.Intn(len(browseKinds))]
		if clustered {
			switch {
			case day >= n/25*2/3:
				kind = "flare"
			case kind == "flare":
				kind = "quiet-period"
			}
		}
		row := Row{S(fmt.Sprintf("hle-%06d", i)), S("import"), Bo(true), S(kind),
			F(float64(day)*86400 + rng.Float64()*86000), I(int64(day))}
		if _, err := tx.Insert("hle", row); err != nil {
			tb.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
	return db
}

// TestPlanEqualityTieGoesToNarrowestIndex pins the planner rule on the
// browse page's shape: kind_hint = k AND day = d drives by the day index
// (about 25 entries against about 3,333) in both predicate orders, visiting
// no more than that day's bucket plus one probe's worth of entries.
func TestPlanEqualityTieGoesToNarrowestIndex(t *testing.T) {
	db := hleShaped(t, 10000)
	kind := Pred{Col: "kind_hint", Op: OpEq, Val: S("flare")}
	day := Pred{Col: "day", Op: OpEq, Val: I(123)}
	bucket, err := db.Query(Query{Table: "hle", Count: true, Where: []Pred{day}})
	if err != nil {
		t.Fatal(err)
	}
	for _, where := range [][]Pred{{kind, day}, {day, kind}} {
		res, err := db.Query(Query{Table: "hle", Where: where, OrderBy: []Order{{Col: "tstart"}}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan.Kind != PlanIndexEq || res.Plan.Index != "day" {
			t.Fatalf("where %s, %s: plan %s on %q, want index-eq on day",
				where[0].Col, where[1].Col, res.Plan.Kind, res.Plan.Index)
		}
		if res.Plan.RowsScanned > bucket.Count+probeCap {
			t.Fatalf("scanned %d entries; the day holds %d", res.Plan.RowsScanned, bucket.Count)
		}
		if len(res.Rows) == 0 {
			t.Fatal("no flare on the test day: the check is vacuous")
		}
	}

	// A unique equality drives without a probe, even beside an empty range.
	res, err := db.Query(Query{Table: "hle", Where: []Pred{
		{Col: "kind_hint", Op: OpEq, Val: S("no-such-kind")}, day,
		{Col: "hle_id", Op: OpEq, Val: S("hle-000500")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Index != "hle_id" || res.Plan.RowsScanned != 1 || len(res.Rows) != 0 {
		t.Fatalf("unique beside an empty range: plan on %q, %d scanned, %d rows; want hle_id, 1, 0",
			res.Plan.Index, res.Plan.RowsScanned, len(res.Rows))
	}

	// When every probe reaches the cap, the first candidate stands.
	owner := Pred{Col: "owner", Op: OpEq, Val: S("import")}
	for _, where := range [][]Pred{{owner, kind}, {kind, owner}} {
		res, err := db.Query(Query{Table: "hle", Where: where, Limit: 5})
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan.Index != where[0].Col {
			t.Fatalf("both ranges past the cap: drove by %q, want the first candidate %q",
				res.Plan.Index, where[0].Col)
		}
	}
}

// TestPlanKindOrderWalksOrderIndex pins /browse?kind= on one shard's worth
// of rows: kind = k ORDER BY tstart LIMIT 100 walks the tstart index and
// stops at the 100th match, about 300 entries in (a kind is a third of the
// rows), where scanning the kind's range visits about 3,333. DESC walks the
// same way from the other end.
func TestPlanKindOrderWalksOrderIndex(t *testing.T) {
	db := hleShaped(t, 10000)
	for _, desc := range []bool{false, true} {
		q := Query{Table: "hle", Where: []Pred{{Col: "kind_hint", Op: OpEq, Val: S("flare")}},
			Or:      []Pred{{Col: "public", Op: OpEq, Val: Bo(true)}},
			OrderBy: []Order{{Col: "tstart", Desc: desc}}, Limit: 100}
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan.Kind != PlanFullIndexScan || res.Plan.Index != "tstart" {
			t.Fatalf("desc=%v: plan %s on %q, want full-index-scan on tstart", desc, res.Plan.Kind, res.Plan.Index)
		}
		if res.Plan.RowsScanned > 600 || len(res.Rows) != 100 {
			t.Fatalf("desc=%v: %d rows after %d entries, want 100 after at most 600",
				desc, len(res.Rows), res.Plan.RowsScanned)
		}
		if err := checkAgainstBruteForce(db, q); err != nil {
			t.Fatalf("desc=%v: %v", desc, err)
		}

		// A day's range is far below the threshold: kind + day still
		// drives by day and visits that day's entries only.
		day := Pred{Col: "day", Op: OpEq, Val: I(123)}
		bucket, err := db.Query(Query{Table: "hle", Count: true, Where: []Pred{day}})
		if err != nil {
			t.Fatal(err)
		}
		q.Where = append(q.Where, day)
		if res, err = db.Query(q); err != nil {
			t.Fatal(err)
		}
		if res.Plan.Kind != PlanIndexEq || res.Plan.Index != "day" || res.Plan.RowsScanned > bucket.Count {
			t.Fatalf("desc=%v, kind+day: plan %s on %q visiting %d entries, want index-eq on day visiting at most %d",
				desc, res.Plan.Kind, res.Plan.Index, res.Plan.RowsScanned, bucket.Count)
		}
	}
}

// TestPlanWalkBudgetBoundsClusteredWorstCase pins walkBudget's bound. Every
// flare of hleClustered sits at the far end of the tstart order, so an
// ascending walk finds none within its budget of T = ⌈√(want·N)⌉ = 1,000
// entries and the kind's driven plan runs from scratch: the query visits at
// most T + D ≤ 2D entries, D being the kind's range, and returns the same
// rows.
func TestPlanWalkBudgetBoundsClusteredWorstCase(t *testing.T) {
	db := hleClustered(t, 10000)
	kind := Pred{Col: "kind_hint", Op: OpEq, Val: S("flare")}
	bucket, err := db.Query(Query{Table: "hle", Count: true, Where: []Pred{kind}})
	if err != nil {
		t.Fatal(err)
	}
	const budget = 1000 // ⌈√(100 · 10,000)⌉
	q := Query{Table: "hle", Where: []Pred{kind}, Or: []Pred{{Col: "public", Op: OpEq, Val: Bo(true)}},
		OrderBy: []Order{{Col: "tstart"}}, Limit: 100}
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Kind != PlanIndexEq || res.Plan.Index != "kind_hint" {
		t.Fatalf("plan %s on %q, want the driven index-eq on kind_hint", res.Plan.Kind, res.Plan.Index)
	}
	if d := bucket.Count; d < budget || res.Plan.RowsScanned > budget+d || res.Plan.RowsScanned <= d {
		t.Fatalf("visited %d entries for a kind of %d, want a spent walk of %d plus the kind's scan",
			res.Plan.RowsScanned, d, budget)
	}
	if err := checkAgainstBruteForce(db, q); err != nil {
		t.Fatal(err)
	}
}

// walkRig builds n rows for the walk oracle: a unique id; indexed a (0 on
// about 60 % of the rows, else 1 or 2: a wide range) and b (fifty values:
// narrow ones); an indexed order column o of thirty values, so many rows tie;
// indexed c = o/10, whose ranges cluster at one end of o's order; and a
// visibility pair (public on about 70 % of the rows, owner of five). About
// a tenth of the rows are then deleted, leaving holes in the heap.
func walkRig(tb testing.TB, seed int64, n int) *DB {
	tb.Helper()
	db, err := Open("", &Schema{
		Name: "w",
		Columns: []Column{{Name: "id", Type: IntType}, {Name: "a", Type: IntType}, {Name: "b", Type: IntType},
			{Name: "o", Type: IntType}, {Name: "c", Type: IntType},
			{Name: "public", Type: BoolType}, {Name: "owner", Type: StringType}},
		PrimaryKey: "id",
		Indexes:    []string{"a", "b", "o", "c"},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	rng := rand.New(rand.NewSource(seed))
	tx := db.Begin()
	var ids []int64
	for i := 0; i < n; i++ {
		a := 0
		if rng.Intn(10) >= 6 {
			a = 1 + rng.Intn(2)
		}
		o := rng.Intn(30)
		id, err := tx.Insert("w", Row{I(int64(i)), I(int64(a)), I(int64(rng.Intn(50))), I(int64(o)),
			I(int64(o / 10)), Bo(rng.Intn(10) < 7), S(fmt.Sprintf("u%d", rng.Intn(5)))})
		if err != nil {
			tb.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
	tx = db.Begin()
	for _, id := range ids {
		if rng.Intn(10) == 0 {
			if err := tx.Delete("w", id); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
	return db
}

// TestWalkMatchesFullScanOracle: ORDER BY o ASC or DESC, LIMIT 1–150,
// OFFSET 0–50, under no predicate, a wide or narrow equality, both, a range
// clustered at one end of the order, or a bound on o itself, with or
// without the visibility Or group. Whether the planner walks o's index, spends the walk's budget
// and falls back, or drives by an equality, the rows, their order and
// rowids equal the brute-force oracle.
func TestWalkMatchesFullScanOracle(t *testing.T) {
	walks := 0
	for seed := int64(1); seed <= 6; seed++ {
		db := walkRig(t, seed, 300*int(seed)+200)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 80; i++ {
			q := Query{Table: "w", OrderBy: []Order{{Col: "o", Desc: rng.Intn(2) == 0}},
				Limit: 1 + rng.Intn(150), Offset: rng.Intn(51)}
			a := Pred{Col: "a", Op: OpEq, Val: I(int64(rng.Intn(4)))} // 3: no row
			b := Pred{Col: "b", Op: OpEq, Val: I(int64(rng.Intn(50)))}
			c := Pred{Col: "c", Op: OpEq, Val: I(int64(rng.Intn(3)))}
			switch rng.Intn(6) {
			case 1:
				q.Where = []Pred{a}
			case 2:
				q.Where = []Pred{b}
			case 3:
				q.Where = []Pred{a, b}
			case 4:
				q.Where = []Pred{c, a}
			case 5: // drives by o itself: a descending range scan
				q.Where = []Pred{{Col: "o", Op: OpGe, Val: I(int64(rng.Intn(30)))}}
			}
			if rng.Intn(2) == 0 {
				q.Or = []Pred{{Col: "public", Op: OpEq, Val: Bo(true)},
					{Col: "owner", Op: OpEq, Val: S(fmt.Sprintf("u%d", rng.Intn(5)))}}
			}
			if err := checkAgainstBruteForce(db, q); err != nil {
				t.Fatalf("seed %d, %+v: %v", seed, q, err)
			}
			if res, _ := db.Query(q); res.Plan.Index == "o" {
				walks++
			}
		}
	}
	if walks < 50 {
		t.Fatalf("only %d of 480 queries walked o's index: the property barely covers the walk", walks)
	}
}

var benchResult *Result

// BenchmarkBrowseShardQueries times the browse pages' hot query shapes on
// one shard's worth of HLE-shaped rows, with the anonymous visibility
// clause: kind + day in both predicate orders (/browse?kind=&day=) and kind
// ORDER BY tstart LIMIT 100 (/browse?kind=), which walks the tstart index.
// kind-clustered runs that last shape over hleClustered, the walk's worst
// case: its budget runs out and the kind's range is scanned after all.
func BenchmarkBrowseShardQueries(b *testing.B) {
	db := hleShaped(b, 10000)
	clustered := hleClustered(b, 10000)
	vis := []Pred{{Col: "public", Op: OpEq, Val: Bo(true)}}
	kind := Pred{Col: "kind_hint", Op: OpEq, Val: S("flare")}
	day := Pred{Col: "day", Op: OpEq, Val: I(123)}
	byStart := []Order{{Col: "tstart"}}
	for _, bc := range []struct {
		name string
		db   *DB
		q    Query
	}{
		{"kind+day", db, Query{Table: "hle", Where: []Pred{kind, day}, Or: vis, OrderBy: byStart, Limit: 100}},
		{"day+kind", db, Query{Table: "hle", Where: []Pred{day, kind}, Or: vis, OrderBy: byStart, Limit: 100}},
		{"kind/order-tstart/limit-100", db, Query{Table: "hle", Where: []Pred{kind}, Or: vis, OrderBy: byStart, Limit: 100}},
		{"kind-clustered/order-tstart/limit-100", clustered, Query{Table: "hle", Where: []Pred{kind}, Or: vis, OrderBy: byStart, Limit: 100}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := bc.db.Query(bc.q)
				if err != nil {
					b.Fatal(err)
				}
				benchResult = res
			}
		})
	}
}
