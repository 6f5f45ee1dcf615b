package minidb

import (
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func eventSchema() *Schema {
	return &Schema{
		Name: "events",
		Columns: []Column{
			{Name: "id", Type: IntType},
			{Name: "kind", Type: StringType},
			{Name: "start", Type: FloatType},
			{Name: "energy", Type: FloatType},
			{Name: "owner", Type: StringType},
			{Name: "public", Type: BoolType},
			{Name: "blob", Type: BytesType, Nullable: true},
		},
		PrimaryKey: "id",
		Indexes:    []string{"kind", "start"},
	}
}

func openTestDB(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(dir, eventSchema())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func fillEvents(t *testing.T, db *DB, n int) {
	t.Helper()
	kinds := []string{"flare", "grb", "quiet"}
	txn := db.Begin()
	for i := 0; i < n; i++ {
		_, err := txn.Insert("events", Row{
			I(int64(i)), S(kinds[i%3]), F(float64(i)), F(float64(i % 50)),
			S("importer"), Bo(i%2 == 0), Null(),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestSchemaValidate(t *testing.T) {
	bad := []*Schema{
		{Name: "", Columns: []Column{{Name: "a", Type: IntType}}},
		{Name: "t"},
		{Name: "t", Columns: []Column{{Name: "a", Type: IntType}, {Name: "a", Type: IntType}}},
		{Name: "t", Columns: []Column{{Name: "a", Type: NullType}}},
		{Name: "t", Columns: []Column{{Name: "a", Type: IntType}}, PrimaryKey: "b"},
		{Name: "t", Columns: []Column{{Name: "a", Type: IntType}}, Indexes: []string{"b"}},
		{Name: "t", Columns: []Column{{Name: "a", Type: IntType}}, Indexes: []string{"a", "a"}},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Fatalf("bad schema %d validated", i)
		}
	}
	if err := eventSchema().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSchemaCheckRow(t *testing.T) {
	s := eventSchema()
	good := Row{I(1), S("flare"), F(0), F(0), S("u"), Bo(true), Null()}
	if err := s.CheckRow(good); err != nil {
		t.Fatal(err)
	}
	if s.CheckRow(good[:3]) == nil {
		t.Fatal("short row accepted")
	}
	wrongType := good.Clone()
	wrongType[0] = S("not-an-int")
	if s.CheckRow(wrongType) == nil {
		t.Fatal("wrong type accepted")
	}
	nullNonNullable := good.Clone()
	nullNonNullable[1] = Null()
	if s.CheckRow(nullNonNullable) == nil {
		t.Fatal("null in non-nullable column accepted")
	}
}

func TestInsertQueryRoundTrip(t *testing.T) {
	db := openTestDB(t, "")
	fillEvents(t, db, 300)
	res, err := db.Query(Query{Table: "events", Where: []Pred{{Col: "kind", Op: OpEq, Val: S("flare")}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 100 {
		t.Fatalf("flares = %d, want 100", len(res.Rows))
	}
	if res.Plan.Kind != PlanIndexEq {
		t.Fatalf("plan = %v, want index-eq", res.Plan.Kind)
	}
	for _, r := range res.Rows {
		if r[1].Str() != "flare" {
			t.Fatalf("non-flare row %v", r)
		}
	}
}

func TestPrimaryKeyUniqueness(t *testing.T) {
	db := openTestDB(t, "")
	row := Row{I(1), S("flare"), F(0), F(0), S("u"), Bo(true), Null()}
	if _, err := db.Insert("events", row); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("events", row); err == nil {
		t.Fatal("duplicate primary key accepted")
	}
	// The failed insert must not leave residue.
	if db.TableLen("events") != 1 {
		t.Fatalf("table len = %d after rejected insert", db.TableLen("events"))
	}
}

func TestQueryRangeAndPlan(t *testing.T) {
	db := openTestDB(t, "")
	fillEvents(t, db, 200)
	res, err := db.Query(Query{Table: "events", Where: []Pred{
		{Col: "start", Op: OpBetween, Val: F(50), Hi: F(59)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("range rows = %d, want 10", len(res.Rows))
	}
	if res.Plan.Kind != PlanIndexRange {
		t.Fatalf("plan = %v, want index-range", res.Plan.Kind)
	}

	// One-sided range is classified as a full index scan (§7.2).
	res, err = db.Query(Query{Table: "events", Where: []Pred{
		{Col: "start", Op: OpGe, Val: F(150)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 50 || res.Plan.Kind != PlanFullIndexScan {
		t.Fatalf("rows=%d plan=%v, want 50/full-index-scan", len(res.Rows), res.Plan.Kind)
	}

	// Unindexed predicate: full heap scan.
	res, err = db.Query(Query{Table: "events", Where: []Pred{
		{Col: "owner", Op: OpEq, Val: S("importer")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Kind != PlanFullScan || len(res.Rows) != 200 {
		t.Fatalf("rows=%d plan=%v, want 200/full-scan", len(res.Rows), res.Plan.Kind)
	}
}

func TestQueryStrictBoundsExcluded(t *testing.T) {
	db := openTestDB(t, "")
	fillEvents(t, db, 20)
	res, err := db.Query(Query{Table: "events", Where: []Pred{
		{Col: "start", Op: OpGt, Val: F(10)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r[2].Float() <= 10 {
			t.Fatalf("OpGt returned boundary row %v", r)
		}
	}
	if len(res.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(res.Rows))
	}
}

func TestQueryConjunction(t *testing.T) {
	db := openTestDB(t, "")
	fillEvents(t, db, 300)
	res, err := db.Query(Query{Table: "events", Where: []Pred{
		{Col: "kind", Op: OpEq, Val: S("grb")},
		{Col: "public", Op: OpEq, Val: Bo(false)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r[1].Str() != "grb" || r[5].Bool() {
			t.Fatalf("row violates conjunction: %v", r)
		}
	}
	if len(res.Rows) != 50 { // grb ids are 1,4,7,...: half odd -> public=false
		t.Fatalf("rows = %d, want 50", len(res.Rows))
	}
}

func TestQueryOrderLimitOffset(t *testing.T) {
	db := openTestDB(t, "")
	fillEvents(t, db, 100)
	res, err := db.Query(Query{
		Table:   "events",
		OrderBy: []Order{{Col: "start", Desc: true}},
		Offset:  5,
		Limit:   10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(res.Rows))
	}
	for i, r := range res.Rows {
		want := float64(94 - i)
		if r[2].Float() != want {
			t.Fatalf("row %d start = %v, want %v", i, r[2].Float(), want)
		}
	}
}

func TestQueryOrderByUnindexedColumn(t *testing.T) {
	db := openTestDB(t, "")
	fillEvents(t, db, 50)
	res, err := db.Query(Query{
		Table:   "events",
		OrderBy: []Order{{Col: "kind"}, {Col: "start", Desc: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Rows); i++ {
		a, b := res.Rows[i-1], res.Rows[i]
		if a[1].Str() > b[1].Str() {
			t.Fatalf("kind order broken at %d", i)
		}
		if a[1].Str() == b[1].Str() && a[2].Float() < b[2].Float() {
			t.Fatalf("start desc order broken at %d", i)
		}
	}
}

func TestQueryCount(t *testing.T) {
	db := openTestDB(t, "")
	fillEvents(t, db, 300)
	res, err := db.Query(Query{Table: "events", Count: true, Where: []Pred{
		{Col: "kind", Op: OpEq, Val: S("quiet")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 100 || len(res.Rows) != 0 {
		t.Fatalf("count = %d rows = %d", res.Count, len(res.Rows))
	}
	if db.Stats().CountQueries != 1 {
		t.Fatalf("count queries stat = %d", db.Stats().CountQueries)
	}
}

func TestQueryProjection(t *testing.T) {
	db := openTestDB(t, "")
	fillEvents(t, db, 10)
	res, err := db.Query(Query{Table: "events", Project: []string{"kind", "id"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 2 || res.Cols[0] != "kind" || res.Cols[1] != "id" {
		t.Fatalf("cols = %v", res.Cols)
	}
	if len(res.Rows[0]) != 2 || res.Rows[0][0].T != StringType {
		t.Fatalf("projected row = %v", res.Rows[0])
	}
	if _, err := db.Query(Query{Table: "events", Project: []string{"nope"}}); err == nil {
		t.Fatal("unknown projected column accepted")
	}
}

func TestQueryPrefix(t *testing.T) {
	db, err := Open("", &Schema{
		Name:    "files",
		Columns: []Column{{Name: "path", Type: StringType}},
		Indexes: []string{"path"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/a/1", "/a/2", "/b/1", "/ab", "/a", "zz"} {
		if _, err := db.Insert("files", Row{S(p)}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Query(Query{Table: "files", Where: []Pred{
		{Col: "path", Op: OpPrefix, Val: S("/a")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 { // /a, /a/1, /a/2, /ab
		t.Fatalf("prefix rows = %d: %v", len(res.Rows), res.Rows)
	}
	if res.Plan.Kind != PlanIndexRange {
		t.Fatalf("prefix plan = %v", res.Plan.Kind)
	}
}

func TestQueryUnknownTableAndColumn(t *testing.T) {
	db := openTestDB(t, "")
	if _, err := db.Query(Query{Table: "nope"}); err == nil {
		t.Fatal("unknown table accepted")
	}
	if _, err := db.Query(Query{Table: "events", Where: []Pred{{Col: "nope", Op: OpEq, Val: I(1)}}}); err == nil {
		t.Fatal("unknown where column accepted")
	}
	if _, err := db.Query(Query{Table: "events", OrderBy: []Order{{Col: "nope"}}}); err == nil {
		t.Fatal("unknown order column accepted")
	}
}

func TestUpdateMaintainsIndexes(t *testing.T) {
	db := openTestDB(t, "")
	fillEvents(t, db, 10)
	res, _ := db.Query(Query{Table: "events", Where: []Pred{{Col: "id", Op: OpEq, Val: I(3)}}})
	rowid := res.RowIDs[0]
	updated := res.Rows[0].Clone()
	updated[1] = S("recalibrated")
	if err := db.Update("events", rowid, updated); err != nil {
		t.Fatal(err)
	}
	res, _ = db.Query(Query{Table: "events", Where: []Pred{{Col: "kind", Op: OpEq, Val: S("recalibrated")}}})
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 3 {
		t.Fatalf("updated row not found via index: %v", res.Rows)
	}
	res, _ = db.Query(Query{Table: "events", Where: []Pred{{Col: "kind", Op: OpEq, Val: S("flare")}}})
	for _, r := range res.Rows {
		if r[0].Int() == 3 {
			t.Fatal("stale index entry for old kind")
		}
	}
}

func TestDeleteRemovesRow(t *testing.T) {
	db := openTestDB(t, "")
	fillEvents(t, db, 10)
	res, _ := db.Query(Query{Table: "events", Where: []Pred{{Col: "id", Op: OpEq, Val: I(5)}}})
	if err := db.Delete("events", res.RowIDs[0]); err != nil {
		t.Fatal(err)
	}
	if db.TableLen("events") != 9 {
		t.Fatalf("len = %d", db.TableLen("events"))
	}
	res, _ = db.Query(Query{Table: "events", Where: []Pred{{Col: "id", Op: OpEq, Val: I(5)}}})
	if len(res.Rows) != 0 {
		t.Fatal("deleted row still visible")
	}
	if err := db.Delete("events", 999); err == nil {
		t.Fatal("delete of missing rowid accepted")
	}
}

func TestTxnRollback(t *testing.T) {
	db := openTestDB(t, "")
	fillEvents(t, db, 10)
	before := db.TableLen("events")

	txn := db.Begin()
	if _, err := txn.Insert("events", Row{I(100), S("x"), F(0), F(0), S("u"), Bo(true), Null()}); err != nil {
		t.Fatal(err)
	}
	res, _ := txn.Query(Query{Table: "events", Where: []Pred{{Col: "id", Op: OpEq, Val: I(3)}}})
	if err := txn.Update("events", res.RowIDs[0], Row{I(3), S("mut"), F(0), F(0), S("u"), Bo(true), Null()}); err != nil {
		t.Fatal(err)
	}
	res, _ = txn.Query(Query{Table: "events", Where: []Pred{{Col: "id", Op: OpEq, Val: I(4)}}})
	if err := txn.Delete("events", res.RowIDs[0]); err != nil {
		t.Fatal(err)
	}
	txn.Rollback()

	if db.TableLen("events") != before {
		t.Fatalf("len after rollback = %d, want %d", db.TableLen("events"), before)
	}
	res, _ = db.Query(Query{Table: "events", Where: []Pred{{Col: "id", Op: OpEq, Val: I(3)}}})
	if res.Rows[0][1].Str() != "flare" {
		t.Fatalf("update not rolled back: %v", res.Rows[0])
	}
	res, _ = db.Query(Query{Table: "events", Where: []Pred{{Col: "id", Op: OpEq, Val: I(4)}}})
	if len(res.Rows) != 1 {
		t.Fatal("delete not rolled back")
	}
	res, _ = db.Query(Query{Table: "events", Where: []Pred{{Col: "id", Op: OpEq, Val: I(100)}}})
	if len(res.Rows) != 0 {
		t.Fatal("insert not rolled back")
	}
}

func TestTxnReadsOwnWrites(t *testing.T) {
	db := openTestDB(t, "")
	txn := db.Begin()
	if _, err := txn.Insert("events", Row{I(1), S("flare"), F(0), F(0), S("u"), Bo(true), Null()}); err != nil {
		t.Fatal(err)
	}
	res, err := txn.Query(Query{Table: "events", Count: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 1 {
		t.Fatalf("txn does not see own insert: count=%d", res.Count)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestTxnFinishedUseRejected(t *testing.T) {
	db := openTestDB(t, "")
	txn := db.Begin()
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Insert("events", Row{I(1), S("f"), F(0), F(0), S("u"), Bo(true), Null()}); err == nil {
		t.Fatal("insert on finished txn accepted")
	}
	if err := txn.Commit(); err == nil {
		t.Fatal("double commit accepted")
	}
	txn.Rollback() // must be a no-op, not a deadlock or panic

	// The database must still be usable.
	if _, err := db.Insert("events", Row{I(2), S("f"), F(0), F(0), S("u"), Bo(true), Null()}); err != nil {
		t.Fatal(err)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db := openTestDB(t, dir)
	fillEvents(t, db, 50)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openTestDB(t, dir)
	defer db2.Close()
	if db2.TableLen("events") != 50 {
		t.Fatalf("after reopen len = %d, want 50", db2.TableLen("events"))
	}
	res, err := db2.Query(Query{Table: "events", Where: []Pred{{Col: "kind", Op: OpEq, Val: S("grb")}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 17 {
		t.Fatalf("grb rows after reopen = %d", len(res.Rows))
	}
}

func TestCheckpointAndRecovery(t *testing.T) {
	dir := t.TempDir()
	db := openTestDB(t, dir)
	fillEvents(t, db, 30)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// More work after the checkpoint, living only in the WAL.
	fillEventsRange(t, db, 30, 60)
	// Delete one pre-checkpoint row and update another.
	res, _ := db.Query(Query{Table: "events", Where: []Pred{{Col: "id", Op: OpEq, Val: I(0)}}})
	if err := db.Delete("events", res.RowIDs[0]); err != nil {
		t.Fatal(err)
	}
	res, _ = db.Query(Query{Table: "events", Where: []Pred{{Col: "id", Op: OpEq, Val: I(1)}}})
	upd := res.Rows[0].Clone()
	upd[1] = S("patched")
	if err := db.Update("events", res.RowIDs[0], upd); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openTestDB(t, dir)
	defer db2.Close()
	if db2.TableLen("events") != 59 {
		t.Fatalf("after recovery len = %d, want 59", db2.TableLen("events"))
	}
	res, _ = db2.Query(Query{Table: "events", Where: []Pred{{Col: "id", Op: OpEq, Val: I(1)}}})
	if len(res.Rows) != 1 || res.Rows[0][1].Str() != "patched" {
		t.Fatalf("update lost in recovery: %v", res.Rows)
	}
	res, _ = db2.Query(Query{Table: "events", Where: []Pred{{Col: "id", Op: OpEq, Val: I(0)}}})
	if len(res.Rows) != 0 {
		t.Fatal("delete lost in recovery")
	}
}

// TestOpenRefusesUnknownSnapshotMagic: a snapshot whose magic is not the
// current format's is refused with "not a snapshot" rather than loaded.
// That covers the retired watermark-less v1 format too.
func TestOpenRefusesUnknownSnapshotMagic(t *testing.T) {
	dir := t.TempDir()
	db := openTestDB(t, dir)
	fillEvents(t, db, 10)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshotName)
	v2, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := v2[len(snapshotMagic):]
	_, wmLen := binary.Uvarint(body)
	if wmLen <= 0 {
		t.Fatal("snapshot has no watermark")
	}
	for name, data := range map[string][]byte{
		"retired v1": append([]byte("MDBSNAP1"), body[wmLen:]...),
		"unknown":    append([]byte("MDBSNAP9"), body...),
		"truncated":  []byte("MDB"),
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(dir, eventSchema())
		if err == nil {
			db.Close()
			t.Fatalf("%s magic: snapshot loaded", name)
		}
		if !strings.Contains(err.Error(), "is not a snapshot") {
			t.Fatalf("%s magic: err = %v, want not-a-snapshot", name, err)
		}
	}
}

func fillEventsRange(t *testing.T, db *DB, lo, hi int) {
	t.Helper()
	kinds := []string{"flare", "grb", "quiet"}
	txn := db.Begin()
	for i := lo; i < hi; i++ {
		if _, err := txn.Insert("events", Row{
			I(int64(i)), S(kinds[i%3]), F(float64(i)), F(float64(i % 50)),
			S("importer"), Bo(i%2 == 0), Null(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestUncommittedTxnLostOnCrash(t *testing.T) {
	dir := t.TempDir()
	db := openTestDB(t, dir)
	fillEvents(t, db, 10)

	// Simulate a crash mid-transaction: write redo records without a commit
	// marker by appending them manually and "crashing" (no Close).
	txn := db.Begin()
	if _, err := txn.Insert("events", Row{I(999), S("ghost"), F(0), F(0), S("u"), Bo(true), Null()}); err != nil {
		t.Fatal(err)
	}
	for _, op := range txn.ops {
		if err := db.wal.append(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.wal.sync(); err != nil {
		t.Fatal(err)
	}
	// No commit marker, no Close: the process "dies" here.

	db2 := openTestDB(t, dir)
	defer db2.Close()
	res, _ := db2.Query(Query{Table: "events", Where: []Pred{{Col: "id", Op: OpEq, Val: I(999)}}})
	if len(res.Rows) != 0 {
		t.Fatal("uncommitted transaction survived the crash")
	}
	if db2.TableLen("events") != 10 {
		t.Fatalf("recovered len = %d, want 10", db2.TableLen("events"))
	}
}

func TestTornWalTailTolerated(t *testing.T) {
	dir := t.TempDir()
	db := openTestDB(t, dir)
	fillEvents(t, db, 20)
	db.Close()

	// Truncate the log mid-record.
	walPath := filepath.Join(dir, walName)
	info, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	db2 := openTestDB(t, dir)
	defer db2.Close()
	// The torn record belongs to the single commit covering all 20 inserts;
	// losing its tail must lose the whole (now unsealed) transaction, never
	// corrupt the store.
	if n := db2.TableLen("events"); n != 0 {
		t.Fatalf("after torn tail len = %d, want 0 (unsealed txn dropped)", n)
	}
	// And the reopened database must accept new writes.
	if _, err := db2.Insert("events", Row{I(1), S("f"), F(0), F(0), S("u"), Bo(true), Null()}); err != nil {
		t.Fatal(err)
	}
}

func TestDroppedTableIgnoredOnReopen(t *testing.T) {
	dir := t.TempDir()
	db := openTestDB(t, dir)
	fillEvents(t, db, 5)
	db.Close()

	// Reopen with a schema that no longer contains "events": the stored data
	// is skipped, and a new table starts empty (§3.1 schema evolution).
	db2, err := Open(dir, &Schema{
		Name:    "other",
		Columns: []Column{{Name: "x", Type: IntType}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.TableLen("other") != 0 {
		t.Fatal("new table not empty")
	}
	if db2.TableLen("events") != -1 {
		t.Fatal("dropped table still present")
	}
}

func TestStatsCounting(t *testing.T) {
	db := openTestDB(t, "")
	fillEvents(t, db, 30)
	db.Query(Query{Table: "events", Where: []Pred{{Col: "id", Op: OpEq, Val: I(1)}}})
	db.Query(Query{Table: "events", Where: []Pred{{Col: "start", Op: OpGe, Val: F(0)}}})
	db.Query(Query{Table: "events", Count: true})
	s := db.Stats()
	if s.Queries != 3 || s.Inserts != 30 || s.Commits != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.IndexEqScans != 1 || s.FullIndexScans != 1 || s.FullScans != 1 {
		t.Fatalf("plan stats = %+v", s)
	}
}

func TestPoolLimitsAndRelease(t *testing.T) {
	db := openTestDB(t, "")
	pool, err := NewPool(db, "query", 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c1, _ := pool.Acquire(ctx)
	c2, _ := pool.Acquire(ctx)
	if pool.InUse() != 2 {
		t.Fatalf("in use = %d", pool.InUse())
	}

	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, err := pool.Acquire(short); err == nil {
		t.Fatal("third acquire should time out")
	}

	c1.Release()
	c1.Release() // double release is a no-op
	if pool.InUse() != 1 {
		t.Fatalf("in use after release = %d", pool.InUse())
	}
	c3, err := pool.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c3.Query(Query{Table: "events", Count: true}); err != nil {
		t.Fatal(err)
	}
	c3.Release()
	c2.Release()
	if _, err := c2.Query(Query{Table: "events"}); err == nil {
		t.Fatal("query on released connection accepted")
	}
	if pool.Waits() != 1 {
		t.Fatalf("waits = %d, want 1", pool.Waits())
	}
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	db := openTestDB(t, "")
	fillEvents(t, db, 100)
	done := make(chan error, 8)
	for i := 0; i < 4; i++ {
		go func() {
			for j := 0; j < 200; j++ {
				if _, err := db.Query(Query{Table: "events", Where: []Pred{
					{Col: "kind", Op: OpEq, Val: S("flare")},
				}}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 4; i++ {
		i := i
		go func() {
			for j := 0; j < 50; j++ {
				id := int64(1000 + i*1000 + j)
				if _, err := db.Insert("events", Row{
					I(id), S("new"), F(0), F(0), S("w"), Bo(true), Null(),
				}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if db.TableLen("events") != 300 {
		t.Fatalf("len = %d, want 300", db.TableLen("events"))
	}
}

func TestGet(t *testing.T) {
	db := openTestDB(t, "")
	fillEvents(t, db, 3)
	r, err := db.Get("events", 1)
	if err != nil || r == nil || r[0].Int() != 1 {
		t.Fatalf("get = %v, %v", r, err)
	}
	r, err = db.Get("events", 99)
	if err != nil || r != nil {
		t.Fatalf("get missing = %v, %v", r, err)
	}
	if _, err := db.Get("nope", 0); err == nil {
		t.Fatal("get on unknown table accepted")
	}
}

func TestQueryOrGroup(t *testing.T) {
	db := openTestDB(t, "")
	fillEvents(t, db, 30)
	// public=true OR owner="nobody": only the public half matches.
	res, err := db.Query(Query{Table: "events", Or: []Pred{
		{Col: "public", Op: OpEq, Val: Bo(true)},
		{Col: "owner", Op: OpEq, Val: S("nobody")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 15 {
		t.Fatalf("rows = %d, want 15", len(res.Rows))
	}
	// public=true OR owner="importer": everything matches.
	res, err = db.Query(Query{Table: "events", Or: []Pred{
		{Col: "public", Op: OpEq, Val: Bo(true)},
		{Col: "owner", Op: OpEq, Val: S("importer")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 30 {
		t.Fatalf("rows = %d, want 30", len(res.Rows))
	}
	// Or composes with Where and indexed plans.
	res, err = db.Query(Query{
		Table: "events",
		Where: []Pred{{Col: "kind", Op: OpEq, Val: S("flare")}},
		Or: []Pred{
			{Col: "public", Op: OpEq, Val: Bo(true)},
			{Col: "owner", Op: OpEq, Val: S("nobody")},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r[1].Str() != "flare" || !r[5].Bool() {
			t.Fatalf("row violates where+or: %v", r)
		}
	}
	if _, err := db.Query(Query{Table: "events", Or: []Pred{{Col: "nope", Op: OpEq, Val: I(1)}}}); err == nil {
		t.Fatal("unknown or-column accepted")
	}
}
