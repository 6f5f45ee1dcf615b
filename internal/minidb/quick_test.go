package minidb

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"
)

// Property: an index-driven plan returns exactly the rows a brute-force
// full scan returns, for random data and random sargable predicates.
func TestQuickPlannerEquivalentToFullScan(t *testing.T) {
	schema := &Schema{
		Name: "q",
		Columns: []Column{
			{Name: "k", Type: IntType},
			{Name: "v", Type: IntType},
		},
		Indexes: []string{"k"},
	}
	check := func(keys []int16, loRaw, hiRaw int16, opSel uint8) bool {
		db, err := Open("", schema)
		if err != nil {
			return false
		}
		for i, k := range keys {
			if _, err := db.Insert("q", Row{I(int64(k)), I(int64(i))}); err != nil {
				return false
			}
		}
		var pred Pred
		switch opSel % 5 {
		case 0:
			pred = Pred{Col: "k", Op: OpEq, Val: I(int64(loRaw))}
		case 1:
			pred = Pred{Col: "k", Op: OpLt, Val: I(int64(loRaw))}
		case 2:
			pred = Pred{Col: "k", Op: OpGe, Val: I(int64(loRaw))}
		case 3:
			if loRaw > hiRaw {
				loRaw, hiRaw = hiRaw, loRaw
			}
			pred = Pred{Col: "k", Op: OpBetween, Val: I(int64(loRaw)), Hi: I(int64(hiRaw))}
		case 4:
			pred = Pred{Col: "k", Op: OpGt, Val: I(int64(loRaw))}
		}

		indexed, err := db.Query(Query{Table: "q", Where: []Pred{pred}, OrderBy: []Order{{Col: "v"}}})
		if err != nil {
			return false
		}
		if len(keys) > 0 && indexed.Plan.Kind == PlanFullScan {
			return false // the planner must use the index
		}
		// Brute force via the unindexed column trick: scan everything and
		// filter in the test.
		all, err := db.Query(Query{Table: "q", OrderBy: []Order{{Col: "v"}}})
		if err != nil {
			return false
		}
		var want []Row
		for _, r := range all.Rows {
			if pred.Match(r[0]) {
				want = append(want, r)
			}
		}
		if len(want) != len(indexed.Rows) {
			return false
		}
		for i := range want {
			if !Equal(want[i][0], indexed.Rows[i][0]) || !Equal(want[i][1], indexed.Rows[i][1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: WAL value encoding round-trips every value type.
func TestQuickValueCodecRoundTrip(t *testing.T) {
	check := func(i int64, f float64, s string, bs []byte, bo bool, tNanos int64) bool {
		if math.IsNaN(f) {
			f = 0 // NaN never compares equal; not a legal stored value anyway
		}
		vals := Row{I(i), F(f), S(s), Bs(bs), Bo(bo), Value{T: TimeType, I: tNanos}, Null()}
		var b bytes.Buffer
		for _, v := range vals {
			encodeValue(&b, v)
		}
		r := bytes.NewReader(b.Bytes())
		for _, want := range vals {
			got, err := decodeValue(r)
			if err != nil {
				return false
			}
			if got.T != want.T || Compare(got, want) != 0 {
				return false
			}
		}
		return r.Len() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: any committed sequence of random mutations survives reopen
// exactly (WAL recovery equivalence).
func TestQuickRecoveryEquivalence(t *testing.T) {
	schema := &Schema{
		Name: "r",
		Columns: []Column{
			{Name: "id", Type: IntType},
			{Name: "payload", Type: StringType},
		},
		PrimaryKey: "id",
	}
	type mut struct {
		ID     int16
		Action uint8 // 0 insert, 1 update, 2 delete
		Text   string
	}
	seq := 0
	check := func(muts []mut) bool {
		seq++
		dir := filepath.Join(t.TempDir(), "db", string(rune('a'+seq%26)))
		db, err := Open(dir, schema)
		if err != nil {
			return false
		}
		ref := make(map[int64]string)
		rowids := make(map[int64]int64)
		for _, m := range muts {
			id := int64(m.ID)
			switch m.Action % 3 {
			case 0:
				if _, exists := ref[id]; exists {
					continue
				}
				rowid, err := db.Insert("r", Row{I(id), S(m.Text)})
				if err != nil {
					return false
				}
				ref[id] = m.Text
				rowids[id] = rowid
			case 1:
				if _, exists := ref[id]; !exists {
					continue
				}
				if err := db.Update("r", rowids[id], Row{I(id), S(m.Text + "!")}); err != nil {
					return false
				}
				ref[id] = m.Text + "!"
			case 2:
				if _, exists := ref[id]; !exists {
					continue
				}
				if err := db.Delete("r", rowids[id]); err != nil {
					return false
				}
				delete(ref, id)
				delete(rowids, id)
			}
		}
		if err := db.Close(); err != nil {
			return false
		}
		db2, err := Open(dir, schema)
		if err != nil {
			return false
		}
		defer db2.Close()
		if db2.TableLen("r") != len(ref) {
			return false
		}
		all, err := db2.Query(Query{Table: "r"})
		if err != nil {
			return false
		}
		for _, r := range all.Rows {
			want, ok := ref[r[0].Int()]
			if !ok || want != r[1].Str() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: checkpoint+reopen and plain reopen yield identical contents.
func TestQuickCheckpointEquivalence(t *testing.T) {
	schema := &Schema{
		Name:       "c",
		Columns:    []Column{{Name: "id", Type: IntType}, {Name: "x", Type: FloatType}},
		PrimaryKey: "id",
	}
	check := func(n uint8, checkpointAt uint8) bool {
		dir := t.TempDir()
		db, err := Open(dir, schema)
		if err != nil {
			return false
		}
		total := int(n%64) + 1
		cp := int(checkpointAt) % total
		for i := 0; i < total; i++ {
			if _, err := db.Insert("c", Row{I(int64(i)), F(float64(i) * 1.5)}); err != nil {
				return false
			}
			if i == cp {
				if err := db.Checkpoint(); err != nil {
					return false
				}
			}
		}
		db.Close()
		db2, err := Open(dir, schema)
		if err != nil {
			return false
		}
		defer db2.Close()
		if db2.TableLen("c") != total {
			return false
		}
		res, err := db2.Query(Query{Table: "c", OrderBy: []Order{{Col: "id"}}})
		if err != nil {
			return false
		}
		for i, r := range res.Rows {
			if r[0].Int() != int64(i) || r[1].Float() != float64(i)*1.5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: OrderBy+Offset+Limit against an indexed column equals slicing
// the fully sorted result — the early-stop optimization must not change
// semantics.
func TestQuickOrderLimitOffsetEquivalence(t *testing.T) {
	schema := &Schema{
		Name: "p",
		Columns: []Column{
			{Name: "k", Type: IntType},
			{Name: "v", Type: IntType},
		},
		Indexes: []string{"k"},
	}
	check := func(keys []int16, offsetRaw, limitRaw uint8, desc bool) bool {
		db, err := Open("", schema)
		if err != nil {
			return false
		}
		for i, k := range keys {
			if _, err := db.Insert("p", Row{I(int64(k)), I(int64(i))}); err != nil {
				return false
			}
		}
		offset := int(offsetRaw % 20)
		limit := int(limitRaw%10) + 1

		paged, err := db.Query(Query{
			Table:   "p",
			OrderBy: []Order{{Col: "k", Desc: desc}},
			Offset:  offset,
			Limit:   limit,
		})
		if err != nil {
			return false
		}
		full, err := db.Query(Query{
			Table:   "p",
			OrderBy: []Order{{Col: "k", Desc: desc}},
		})
		if err != nil {
			return false
		}
		want := full.Rows
		if offset >= len(want) {
			want = nil
		} else {
			want = want[offset:]
		}
		if len(want) > limit {
			want = want[:limit]
		}
		if len(paged.Rows) != len(want) {
			return false
		}
		for i := range want {
			// Keys must match positionally; values may differ among ties.
			if Compare(paged.Rows[i][0], want[i][0]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// plannerRig builds the planner-equivalence table from seed: n rows over two
// indexed equality columns with skewed cardinalities (a takes four values,
// 0 on about 70 % of the rows; b forty, about evenly), an unindexed
// ordering column o with many ties, so the rowid tie-break decides order,
// and oi, o's indexed twin.
func plannerRig(seed int64, n int) (*DB, error) {
	db, err := Open("", &Schema{
		Name: "pe",
		Columns: []Column{{Name: "a", Type: IntType}, {Name: "b", Type: IntType},
			{Name: "o", Type: IntType}, {Name: "oi", Type: IntType}},
		Indexes: []string{"a", "b", "oi"},
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	tx := db.Begin()
	for i := 0; i < n; i++ {
		a := int64(0)
		if rng.Intn(10) >= 7 {
			a = 1 + int64(rng.Intn(3))
		}
		b, o := I(int64(rng.Intn(40))), I(int64(rng.Intn(20)))
		if _, err := tx.Insert("pe", Row{I(a), b, o, o}); err != nil {
			tx.Rollback()
			return nil, err
		}
	}
	return db, tx.Commit()
}

// plannerCase runs a = av AND b = bv (in either predicate order) ORDER BY o
// (ascending or descending) with OFFSET/LIMIT (limit 0: none) over a fresh
// plannerRig and checks it against the brute-force oracle. The values fold
// into ranges that include keys no row holds. A b value folding to 44 drops
// the b predicate and orders by oi instead: a alone ORDER BY an indexed
// column, which walks oi's index when a's range is wide.
func plannerCase(seed int64, n, av, bv, off, lim uint16, swap, desc bool) error {
	db, err := plannerRig(seed, int(n%600))
	if err != nil {
		return err
	}
	defer db.Close()
	where := []Pred{{Col: "a", Op: OpEq, Val: I(int64(av % 5))}}
	order := "oi"
	if b := int64(bv % 45); b != 44 {
		where, order = append(where, Pred{Col: "b", Op: OpEq, Val: I(b)}), "o"
		if swap {
			where[0], where[1] = where[1], where[0]
		}
	}
	return checkAgainstBruteForce(db, Query{
		Table: "pe", Where: where, OrderBy: []Order{{Col: order, Desc: desc}},
		Offset: int(off % 48), Limit: int(lim % 48),
	})
}

// checkAgainstBruteForce runs q and demands exactly the rows, row order and
// rowids of a brute-force filter (Where and the Or group), sort by (ORDER BY
// terms, rowid) and slice over every row of the table.
func checkAgainstBruteForce(db *DB, q Query) error {
	got, err := db.Query(q)
	if err != nil {
		return err
	}
	all, err := db.Query(Query{Table: q.Table})
	if err != nil {
		return err
	}
	sc := db.Schema(q.Table)
	type match struct {
		id  int64
		row Row
	}
	var want []match
rows:
	for i, r := range all.Rows {
		for _, p := range q.Where {
			if !p.Match(r[sc.ColIndex(p.Col)]) {
				continue rows
			}
		}
		anyOr := len(q.Or) == 0
		for _, p := range q.Or {
			anyOr = anyOr || p.Match(r[sc.ColIndex(p.Col)])
		}
		if !anyOr {
			continue
		}
		want = append(want, match{all.RowIDs[i], r})
	}
	sort.Slice(want, func(x, y int) bool {
		for _, o := range q.OrderBy {
			c := Compare(want[x].row[sc.ColIndex(o.Col)], want[y].row[sc.ColIndex(o.Col)])
			if o.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return want[x].id < want[y].id
	})
	if q.Offset >= len(want) {
		want = nil
	} else {
		want = want[q.Offset:]
	}
	if q.Limit > 0 && len(want) > q.Limit {
		want = want[:q.Limit]
	}
	if len(got.Rows) != len(want) || len(got.RowIDs) != len(want) {
		return fmt.Errorf("%d rows (%d rowids), want %d (plan %s on %q)",
			len(got.Rows), len(got.RowIDs), len(want), got.Plan.Kind, got.Plan.Index)
	}
	for i, w := range want {
		if got.RowIDs[i] != w.id {
			return fmt.Errorf("position %d: rowid %d, want %d (plan %s on %q)",
				i, got.RowIDs[i], w.id, got.Plan.Kind, got.Plan.Index)
		}
		for j := range w.row {
			if Compare(got.Rows[i][j], w.row[j]) != 0 {
				return fmt.Errorf("position %d column %d: %v, want %v", i, j, got.Rows[i][j], w.row[j])
			}
		}
	}
	return nil
}

// Property: with two indexed equality predicates the bounded probe may pick
// either index to drive, and ORDER BY on an unindexed column runs the
// bounded top-k (with a LIMIT) or the full sort (without); a lone wide
// equality under ORDER BY oi may walk oi's index. Whatever runs, rows, row
// order and rowids equal the brute-force oracle.
func TestQuickPlannerProbeAndTopKEquivalence(t *testing.T) {
	check := func(seed int64, n, av, bv, off, lim uint16, swap, desc bool) bool {
		if err := plannerCase(seed, n, av, bv, off, lim, swap, desc); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
