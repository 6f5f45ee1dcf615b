package minidb

import (
	"math"
	"sync"
	"testing"
)

// Schema evolution (§3.1): columns appended to a table's schema must not
// invalidate stored rows — old rows come back padded with NULL.

func TestSchemaEvolutionAppendColumn(t *testing.T) {
	dir := t.TempDir()
	v1 := &Schema{
		Name: "units",
		Columns: []Column{
			{Name: "id", Type: IntType},
			{Name: "label", Type: StringType},
		},
		PrimaryKey: "id",
	}
	db, err := Open(dir, v1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := db.Insert("units", Row{I(int64(i)), S("old")}); err != nil {
			t.Fatal(err)
		}
	}
	// Some rows survive only in the WAL, some in the snapshot.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 15; i++ {
		if _, err := db.Insert("units", Row{I(int64(i)), S("old")}); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()

	// The mission evolves: a calibration column is appended.
	v2 := &Schema{
		Name: "units",
		Columns: []Column{
			{Name: "id", Type: IntType},
			{Name: "label", Type: StringType},
			{Name: "calib", Type: IntType, Nullable: true},
		},
		PrimaryKey: "id",
	}
	db2, err := Open(dir, v2)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.TableLen("units") != 15 {
		t.Fatalf("len = %d", db2.TableLen("units"))
	}
	res, err := db2.Query(Query{Table: "units", Where: []Pred{{Col: "id", Op: OpEq, Val: I(3)}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows[0]) != 3 || !res.Rows[0][2].IsNull() {
		t.Fatalf("old row = %v", res.Rows[0])
	}
	// New rows use the full width; old and new coexist.
	if _, err := db2.Insert("units", Row{I(100), S("new"), I(2)}); err != nil {
		t.Fatal(err)
	}
	res, _ = db2.Query(Query{Table: "units", Where: []Pred{{Col: "calib", Op: OpEq, Val: I(2)}}})
	if len(res.Rows) != 1 {
		t.Fatalf("new rows = %d", len(res.Rows))
	}
}

func TestSchemaEvolutionRejectsNonNullableColumn(t *testing.T) {
	dir := t.TempDir()
	v1 := &Schema{Name: "t", Columns: []Column{{Name: "a", Type: IntType}}}
	db, _ := Open(dir, v1)
	db.Insert("t", Row{I(1)})
	db.Close()

	v2 := &Schema{Name: "t", Columns: []Column{
		{Name: "a", Type: IntType},
		{Name: "b", Type: IntType}, // NOT nullable: old rows can't satisfy it
	}}
	if _, err := Open(dir, v2); err == nil {
		t.Fatal("non-nullable evolution accepted")
	}
}

func TestSchemaEvolutionRejectsNarrowing(t *testing.T) {
	dir := t.TempDir()
	v1 := &Schema{Name: "t", Columns: []Column{
		{Name: "a", Type: IntType},
		{Name: "b", Type: IntType},
	}}
	db, _ := Open(dir, v1)
	db.Insert("t", Row{I(1), I(2)})
	db.Close()

	v2 := &Schema{Name: "t", Columns: []Column{{Name: "a", Type: IntType}}}
	if _, err := Open(dir, v2); err == nil {
		t.Fatal("column removal accepted without migration")
	}
}

func TestCountViewBasics(t *testing.T) {
	db := openTestDB(t, "")
	fillEvents(t, db, 90)
	if err := db.CreateCountView("by-kind", "events", "kind"); err != nil {
		t.Fatal(err)
	}
	// Identical re-registration is a no-op (every replica of a shared
	// database issues it); only a conflicting definition is a duplicate.
	if err := db.CreateCountView("by-kind", "events", "kind"); err != nil {
		t.Fatalf("idempotent re-registration rejected: %v", err)
	}
	if err := db.CreateCountView("by-kind", "events", "day"); err == nil {
		t.Fatal("conflicting duplicate view accepted")
	}
	if err := db.CreateCountView("v", "nope", "kind"); err == nil {
		t.Fatal("view over unknown table accepted")
	}
	if err := db.CreateCountView("v", "events", "nope"); err == nil {
		t.Fatal("view over unknown column accepted")
	}

	counts, err := db.ViewCounts("by-kind")
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 3 {
		t.Fatalf("groups = %v", counts)
	}
	n, err := db.ViewCount("by-kind", S("flare"))
	if err != nil || n != 30 {
		t.Fatalf("flare count = %d %v", n, err)
	}
	if n, _ := db.ViewCount("by-kind", S("nothing")); n != 0 {
		t.Fatalf("absent key count = %d", n)
	}

	// Cached until a write invalidates.
	db.ViewCounts("by-kind")
	refreshes, hits := viewStats(db, "by-kind")
	if refreshes != 1 || hits < 1 {
		t.Fatalf("stats = %d/%d", refreshes, hits)
	}
	if _, err := db.Insert("events", Row{I(1000), S("flare"), F(0), F(0), S("u"), Bo(true), Null()}); err != nil {
		t.Fatal(err)
	}
	n, _ = db.ViewCount("by-kind", S("flare"))
	if n != 31 {
		t.Fatalf("flare count after insert = %d", n)
	}
	refreshes, _ = viewStats(db, "by-kind")
	if refreshes != 2 {
		t.Fatalf("refreshes = %d", refreshes)
	}
	if _, err := db.ViewCounts("ghost"); err == nil {
		t.Fatal("unknown view served")
	}
}

func TestCountViewConcurrentReadersAndWriters(t *testing.T) {
	db := openTestDB(t, "")
	fillEvents(t, db, 50)
	if err := db.CreateCountView("by-kind", "events", "kind"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if _, err := db.ViewCounts("by-kind"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 30; j++ {
				id := int64(2000 + i*1000 + j)
				if _, err := db.Insert("events", Row{
					I(id), S("flare"), F(0), F(0), S("w"), Bo(true), Null(),
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Final count reflects every committed write: 17 original flares
	// (ids 0,3,...,48) plus the 60 inserted ones.
	n, err := db.ViewCount("by-kind", S("flare"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 17+60 {
		t.Fatalf("flare count = %d, want 77", n)
	}
}

func TestNaNRejected(t *testing.T) {
	db := openTestDB(t, "")
	nan := math.NaN()
	_, err := db.Insert("events", Row{I(1), S("flare"), F(nan), F(0), S("u"), Bo(true), Null()})
	if err == nil {
		t.Fatal("NaN accepted into an indexed float column")
	}
	if db.TableLen("events") != 0 {
		t.Fatal("failed insert left residue")
	}
}

func TestAccessorsAndStrings(t *testing.T) {
	db := openTestDB(t, "")
	fillEvents(t, db, 5)
	names := db.TableNames()
	if len(names) != 1 || names[0] != "events" {
		t.Fatalf("names = %v", names)
	}
	if db.Schema("events") == nil || db.Schema("nope") != nil {
		t.Fatal("Schema accessor wrong")
	}
	for _, op := range []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpBetween, OpPrefix, Op(99)} {
		if op.String() == "" {
			t.Fatalf("op %d renders empty", op)
		}
	}
	for _, k := range []PlanKind{PlanIndexEq, PlanIndexRange, PlanFullIndexScan, PlanFullScan, PlanKind(99)} {
		if k.String() == "" {
			t.Fatalf("plan kind %d renders empty", k)
		}
	}
}

func TestTxnGetAndPoolAccessors(t *testing.T) {
	db := openTestDB(t, "")
	fillEvents(t, db, 3)
	tx := db.Begin()
	r, err := tx.Get("events", 1)
	if err != nil || r == nil || r[0].Int() != 1 {
		t.Fatalf("txn get = %v %v", r, err)
	}
	if r2, err := tx.Get("events", 99); err != nil || r2 != nil {
		t.Fatalf("txn get missing = %v %v", r2, err)
	}
	if _, err := tx.Get("nope", 0); err == nil {
		t.Fatal("txn get unknown table accepted")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestDBUpdateErrorPath(t *testing.T) {
	db := openTestDB(t, "")
	fillEvents(t, db, 2)
	// Update with a bad row rolls back cleanly.
	if err := db.Update("events", 0, Row{I(0)}); err == nil {
		t.Fatal("short row accepted")
	}
	if err := db.Update("nope", 0, Row{}); err == nil {
		t.Fatal("unknown table accepted")
	}
	if db.TableLen("events") != 2 {
		t.Fatal("failed update changed the table")
	}
}

// viewStats reads a count view's refresh and cache-hit counters.
func viewStats(db *DB, name string) (refreshes, hits int64) {
	db.mu.RLock()
	v := db.views[name]
	db.mu.RUnlock()
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.refreshes, v.hits
}
