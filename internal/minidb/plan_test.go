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
func hleShaped(tb testing.TB, n int) *DB {
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
		row := Row{S(fmt.Sprintf("hle-%06d", i)), S("import"), Bo(true),
			S(browseKinds[rng.Intn(len(browseKinds))]),
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

var benchResult *Result

// BenchmarkBrowseShardQueries times the browse pages' hot query shapes on
// one shard's worth of HLE-shaped rows, with the anonymous visibility
// clause: kind + day in both predicate orders (/browse?kind=&day=) and kind
// ORDER BY tstart LIMIT 100 (/browse?kind=).
func BenchmarkBrowseShardQueries(b *testing.B) {
	db := hleShaped(b, 10000)
	vis := []Pred{{Col: "public", Op: OpEq, Val: Bo(true)}}
	kind := Pred{Col: "kind_hint", Op: OpEq, Val: S("flare")}
	day := Pred{Col: "day", Op: OpEq, Val: I(123)}
	byStart := []Order{{Col: "tstart"}}
	for _, bc := range []struct {
		name string
		q    Query
	}{
		{"kind+day", Query{Table: "hle", Where: []Pred{kind, day}, Or: vis, OrderBy: byStart, Limit: 100}},
		{"day+kind", Query{Table: "hle", Where: []Pred{day, kind}, Or: vis, OrderBy: byStart, Limit: 100}},
		{"kind/order-tstart/limit-100", Query{Table: "hle", Where: []Pred{kind}, Or: vis, OrderBy: byStart, Limit: 100}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := db.Query(bc.q)
				if err != nil {
					b.Fatal(err)
				}
				benchResult = res
			}
		})
	}
}
