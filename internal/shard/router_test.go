package shard

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dbnet"
	"repro/internal/minidb"
	"repro/internal/overload"
	"repro/internal/schema"
)

// openShardDBs opens n in-process engines over temp dirs.
func openShardDBs(t *testing.T, n int) map[int]minidb.Engine {
	t.Helper()
	shards := make(map[int]minidb.Engine, n)
	for i := 0; i < n; i++ {
		db, err := minidb.Open(t.TempDir(), schema.AllSchemas()...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		shards[i] = db
	}
	return shards
}

func newTestRouter(t *testing.T, n int) *Router {
	t.Helper()
	r, err := NewRouter(Options{Shards: openShardDBs(t, n)})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// testHLE builds an hle row with a monotone ID and quantized floats.
func testHLE(i int) minidb.Row {
	h := schema.HLE{
		ID: fmt.Sprintf("hle-%05d", i), Owner: fmt.Sprintf("user%d", i%3),
		Public: i%2 == 0, KindHint: []string{"flare", "grb", "steady"}[i%3],
		TStart: float64(1000+i) / 4, TStop: float64(1100+i) / 4,
		Day: int64(i / 10), Origin: "auto", Quality: int64(i % 6),
	}
	return h.ToRow()
}

func TestRouterPointOpsRoute(t *testing.T) {
	r := newTestRouter(t, 3)
	defer r.Close()

	const n = 60
	rowids := make(map[string]int64, n)
	for i := 0; i < n; i++ {
		id, err := r.Insert(schema.TableHLE, testHLE(i))
		if err != nil {
			t.Fatal(err)
		}
		rowids[fmt.Sprintf("hle-%05d", i)] = id
	}

	// Rows spread over all shards.
	perShard := make(map[int]int)
	for _, id := range rowids {
		sid, _ := UntagRowid(id)
		perShard[sid]++
	}
	if len(perShard) != 3 {
		t.Fatalf("rows landed on %d shards, want 3: %v", len(perShard), perShard)
	}

	// Key-equality queries route single-shard and find their row.
	before := r.Status().Scatter
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("hle-%05d", i)
		res, err := r.Query(minidb.Query{Table: schema.TableHLE,
			Where: []minidb.Pred{{Col: "hle_id", Op: minidb.OpEq, Val: minidb.S(key)}}})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("key %s: %d rows", key, len(res.Rows))
		}
		if res.RowIDs[0] != rowids[key] {
			t.Fatalf("key %s: rowid %d, want %d", key, res.RowIDs[0], rowids[key])
		}
	}
	if got := r.Status().Scatter; got != before {
		t.Fatalf("key-eq queries scattered (%d -> %d)", before, got)
	}

	// Get / Update / Delete round-trip through tagged rowids.
	id := rowids["hle-00007"]
	row, err := r.Get(schema.TableHLE, id)
	if err != nil || row == nil {
		t.Fatalf("get: %v %v", row, err)
	}
	row[4] = minidb.S("relabeled")
	if err := r.Update(schema.TableHLE, id, row); err != nil {
		t.Fatal(err)
	}
	got, err := r.Get(schema.TableHLE, id)
	if err != nil || got[4].Str() != "relabeled" {
		t.Fatalf("update lost: %v %v", got, err)
	}
	if err := r.Delete(schema.TableHLE, id); err != nil {
		t.Fatal(err)
	}
	if res, _ := r.Query(minidb.Query{Table: schema.TableHLE, Count: true,
		Where: []minidb.Pred{{Col: "hle_id", Op: minidb.OpEq, Val: minidb.S("hle-00007")}}}); res.Count != 0 {
		t.Fatalf("deleted row still visible")
	}

	// Scatter count sees the remaining rows exactly once.
	res, err := r.Query(minidb.Query{Table: schema.TableHLE, Count: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != n-1 {
		t.Fatalf("count %d, want %d", res.Count, n-1)
	}
	if r.TableLen(schema.TableHLE) != n-1 {
		t.Fatalf("TableLen %d, want %d", r.TableLen(schema.TableHLE), n-1)
	}
}

// TestRouterRefusesEngineOutsideMap: a cell persisted over shards {0,1}
// and reopened with a third engine must fail to open. Without a split the
// extra shard could never own a slot, so serving on would silently run on
// two shards while the operator believes there are three.
func TestRouterRefusesEngineOutsideMap(t *testing.T) {
	dir := t.TempDir()
	dbs := openShardDBs(t, 3)
	first, err := NewRouter(Options{Shards: map[int]minidb.Engine{0: dbs[0], 1: dbs[1]}, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	version := first.Map().Version

	if _, err := NewRouter(Options{Shards: dbs, Dir: dir}); err == nil ||
		!strings.Contains(err.Error(), "engine for shard 2 is not in the persisted map") {
		t.Fatalf("reopen with an extra engine: err %v", err)
	}
	again, err := NewRouter(Options{Shards: map[int]minidb.Engine{0: dbs[0], 1: dbs[1]}, Dir: dir})
	if err != nil {
		t.Fatalf("reopen with the persisted shards: %v", err)
	}
	if again.Map().Version != version || len(again.Map().Shards) != 2 {
		t.Fatalf("reopened map v%d over %v, want v%d over 2 shards",
			again.Map().Version, again.Map().Shards, version)
	}
}

func TestRouterHomedTablesSingleShard(t *testing.T) {
	r := newTestRouter(t, 2)
	defer r.Close()

	rowid, err := r.Insert(schema.TableConfig, minidb.Row{
		minidb.S("seq.hle"), minidb.S("sequence"), minidb.S("100"), minidb.Null(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Homed rowids are raw (home shard): usable against the home engine.
	if sid, _ := UntagRowid(rowid); sid != 0 {
		t.Fatalf("homed insert tagged with shard %d", sid)
	}
	res, err := r.Query(minidb.Query{Table: schema.TableConfig,
		Where: []minidb.Pred{{Col: "section", Op: minidb.OpEq, Val: minidb.S("sequence")}}})
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("homed query: %v %v", res, err)
	}
	if r.Status().Scatter != 0 {
		t.Fatal("homed table query scattered")
	}
}

func TestRouterTxCrossTable(t *testing.T) {
	r := newTestRouter(t, 2)
	defer r.Close()
	for i := 0; i < 10; i++ {
		if _, err := r.Insert(schema.TableHLE, testHLE(i)); err != nil {
			t.Fatal(err)
		}
	}
	tx := r.BeginTx()
	if _, err := tx.Insert(schema.TableCatalog, minidb.Row{
		minidb.S("cat-1"), minidb.S("flares"), minidb.S("user0"), minidb.Bo(true),
		minidb.S("standard"), minidb.Null(), minidb.F(1),
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := tx.Insert(schema.TableCatalogMembers, minidb.Row{
			minidb.I(int64(i + 1)), minidb.S("cat-1"), minidb.S(fmt.Sprintf("hle-%05d", i)),
			minidb.S("user0"), minidb.F(2),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	res, err := r.Query(minidb.Query{Table: schema.TableCatalogMembers, Count: true,
		Where: []minidb.Pred{{Col: "catalog_id", Op: minidb.OpEq, Val: minidb.S("cat-1")}}})
	if err != nil || res.Count != 10 {
		t.Fatalf("members after tx: %v %v", res, err)
	}

	// Rollback leaves nothing behind.
	tx = r.BeginTx()
	if _, err := tx.Insert(schema.TableCatalogMembers, minidb.Row{
		minidb.I(99), minidb.S("cat-1"), minidb.S("hle-00003"), minidb.S("user0"), minidb.F(3),
	}); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	res, _ = r.Query(minidb.Query{Table: schema.TableCatalogMembers, Count: true})
	if res.Count != 10 {
		t.Fatalf("rollback leaked: %d members", res.Count)
	}
}

func TestRouterViewCount(t *testing.T) {
	r := newTestRouter(t, 3)
	defer r.Close()
	if err := r.CreateCountView("members_by_catalog", schema.TableCatalogMembers, "catalog_id"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := r.Insert(schema.TableCatalogMembers, minidb.Row{
			minidb.I(int64(i + 1)), minidb.S(fmt.Sprintf("cat-%d", i%2)),
			minidb.S(fmt.Sprintf("hle-%05d", i)), minidb.S("user0"), minidb.F(1),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for cat, want := range map[string]int{"cat-0": 15, "cat-1": 15, "cat-9": 0} {
		got, err := r.ViewCount("members_by_catalog", minidb.S(cat))
		if err != nil || got != want {
			t.Fatalf("ViewCount(%s) = %d, %v; want %d", cat, got, err, want)
		}
	}
}

// flakyEngine wraps an engine and fails every call with a transport
// error while tripped.
type flakyEngine struct {
	minidb.Engine
	tripped atomic.Bool
}

func (f *flakyEngine) fail() error {
	return &dbnet.UnavailableError{Addr: "test", Err: errors.New("injected")}
}

func (f *flakyEngine) Query(q minidb.Query) (*minidb.Result, error) {
	if f.tripped.Load() {
		return nil, f.fail()
	}
	return f.Engine.Query(q)
}

func (f *flakyEngine) Insert(table string, r minidb.Row) (int64, error) {
	if f.tripped.Load() {
		return 0, f.fail()
	}
	return f.Engine.Insert(table, r)
}

func TestRouterShardUnavailableTyped(t *testing.T) {
	dbs := openShardDBs(t, 2)
	flaky := &flakyEngine{Engine: dbs[1]}
	r, err := NewRouter(Options{
		Shards:           map[int]minidb.Engine{0: dbs[0], 1: flaky},
		breakerThreshold: 2, BreakerCooldown: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var healthyKey, sickKey string
	for i := 0; ; i++ {
		key := fmt.Sprintf("hle-%05d", i)
		owner := r.Map().ReadOwner(SlotOf(minidb.S(key)))
		if owner == 0 && healthyKey == "" {
			healthyKey = key
		}
		if owner == 1 && sickKey == "" {
			sickKey = key
		}
		if healthyKey != "" && sickKey != "" {
			break
		}
	}
	if _, err := r.Insert(schema.TableHLE, testHLE(0)); err != nil {
		// row may have landed on either shard; only the route matters below
		t.Fatal(err)
	}

	flaky.tripped.Store(true)

	// Single-shard ops on the healthy shard still succeed.
	if _, err := r.Query(minidb.Query{Table: schema.TableHLE,
		Where: []minidb.Pred{{Col: "hle_id", Op: minidb.OpEq, Val: minidb.S(healthyKey)}}}); err != nil {
		t.Fatalf("healthy-shard query failed: %v", err)
	}

	// Ops touching the sick shard fail with the typed error, carrying
	// the DBUnavailable marker end to end.
	_, err = r.Query(minidb.Query{Table: schema.TableHLE,
		Where: []minidb.Pred{{Col: "hle_id", Op: minidb.OpEq, Val: minidb.S(sickKey)}}})
	var se *ShardUnavailableError
	if !errors.As(err, &se) || se.Shard != 1 {
		t.Fatalf("want ShardUnavailableError{1}, got %v", err)
	}
	var marker interface{ DBUnavailable() bool }
	if !errors.As(err, &marker) || !marker.DBUnavailable() {
		t.Fatalf("error lacks DBUnavailable marker: %v", err)
	}

	// Scatter queries fail too (no silent partial results)...
	if _, err := r.Query(minidb.Query{Table: schema.TableHLE, Count: true}); err == nil {
		t.Fatal("scatter over a dead shard succeeded")
	}
	// ...and after threshold failures the breaker fails fast without
	// touching the engine.
	for i := 0; i < 3; i++ {
		r.Query(minidb.Query{Table: schema.TableHLE, Count: true})
	}
	if st := r.Status(); st.Shards[1].Circuit == "closed" {
		t.Fatalf("breaker still closed after repeated failures: %+v", st.Shards)
	}
	_, err = r.Query(minidb.Query{Table: schema.TableHLE,
		Where: []minidb.Pred{{Col: "hle_id", Op: minidb.OpEq, Val: minidb.S(sickKey)}}})
	if se = nil; !errors.As(err, &se) || se.Shard != 1 {
		t.Fatalf("open breaker: want typed error, got %v", err)
	}

	// Heal; after the cooldown a probe closes the circuit again.
	flaky.tripped.Store(false)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := r.Query(minidb.Query{Table: schema.TableHLE, Count: true}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("router never recovered after heal")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// sheddingEngine wraps an engine and refuses every query with a typed
// overload error while tripped — the shape dbnet's statusOverload decode
// produces when the database tier pushes back at the socket.
type sheddingEngine struct {
	minidb.Engine
	tripped atomic.Bool
}

func (s *sheddingEngine) Query(q minidb.Query) (*minidb.Result, error) {
	if s.tripped.Load() {
		return nil, &overload.Error{Tier: "db", RetryAfter: 300 * time.Millisecond}
	}
	return s.Engine.Query(q)
}

// TestRouterOverloadPassthrough: a shard that sheds load is alive, not
// failed. Its typed overload error must pass through the scatter-gather
// router unwrapped — retry-after hint intact, never converted into the
// DBUnavailable taxonomy — and must not count against the shard's
// circuit breaker or failure stats.
func TestRouterOverloadPassthrough(t *testing.T) {
	dbs := openShardDBs(t, 2)
	shedding := &sheddingEngine{Engine: dbs[1]}
	r, err := NewRouter(Options{
		Shards:           map[int]minidb.Engine{0: dbs[0], 1: shedding},
		breakerThreshold: 2, BreakerCooldown: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var sickKey string
	for i := 0; sickKey == ""; i++ {
		key := fmt.Sprintf("hle-%05d", i)
		if r.Map().ReadOwner(SlotOf(minidb.S(key))) == 1 {
			sickKey = key
		}
	}
	shedding.tripped.Store(true)

	check := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s through a shedding shard succeeded", what)
		}
		if !errors.Is(err, overload.ErrOverloaded) {
			t.Fatalf("%s: err %v does not match the overload sentinel", what, err)
		}
		ra, ok := overload.RetryAfterOf(err)
		if !ok || ra != 300*time.Millisecond {
			t.Fatalf("%s: retry-after hint lost in the router: %v", what, err)
		}
		var se *ShardUnavailableError
		if errors.As(err, &se) {
			t.Fatalf("%s: overload wrapped as ShardUnavailableError: %v", what, err)
		}
		var marker interface{ DBUnavailable() bool }
		if errors.As(err, &marker) && marker.DBUnavailable() {
			t.Fatalf("%s: overload gained the DBUnavailable marker: %v", what, err)
		}
	}

	// Single-shard route and scatter-gather both pass the typed error up.
	_, err = r.Query(minidb.Query{Table: schema.TableHLE,
		Where: []minidb.Pred{{Col: "hle_id", Op: minidb.OpEq, Val: minidb.S(sickKey)}}})
	check("point query", err)
	for i := 0; i < 4; i++ {
		_, err = r.Query(minidb.Query{Table: schema.TableHLE, Count: true})
		check("scatter query", err)
	}

	// Repeated sheds are not failures: the breaker stays closed and the
	// shard-failure counter does not move.
	st := r.Status()
	if st.Shards[1].Circuit != "closed" {
		t.Fatalf("breaker opened on overload refusals: %+v", st.Shards[1])
	}
	if st.ShardFailures != 0 {
		t.Fatalf("overload counted as %d shard failures", st.ShardFailures)
	}

	// The moment the shard stops shedding, service resumes — no cooldown
	// to wait out, because no breaker ever opened.
	shedding.tripped.Store(false)
	if _, err := r.Query(minidb.Query{Table: schema.TableHLE, Count: true}); err != nil {
		t.Fatalf("query after shed cleared: %v", err)
	}
}

func TestRouterQueryEpochPerShard(t *testing.T) {
	r := newTestRouter(t, 2)
	defer r.Close()

	var keyA, keyB string
	for i := 0; keyA == "" || keyB == ""; i++ {
		key := fmt.Sprintf("hle-%05d", i)
		switch r.Map().ReadOwner(SlotOf(minidb.S(key))) {
		case 0:
			if keyA == "" {
				keyA = key
			}
		case 1:
			if keyB == "" {
				keyB = key
			}
		}
	}
	qA := minidb.Query{Table: schema.TableHLE,
		Where: []minidb.Pred{{Col: "hle_id", Op: minidb.OpEq, Val: minidb.S(keyA)}}}
	qB := minidb.Query{Table: schema.TableHLE,
		Where: []minidb.Pred{{Col: "hle_id", Op: minidb.OpEq, Val: minidb.S(keyB)}}}

	epochA, epochB := r.QueryEpoch(qA), r.QueryEpoch(qB)
	full := r.TableEpoch(schema.TableHLE)

	// A write to keyB's shard must move B's epoch and the table epoch,
	// but leave A's untouched — that is the per-shard invalidation the
	// DM cache keys on.
	h := schema.HLE{ID: keyB, Owner: "user0", Origin: "auto"}
	if _, err := r.Insert(schema.TableHLE, h.ToRow()); err != nil {
		t.Fatal(err)
	}
	if got := r.QueryEpoch(qA); got != epochA {
		t.Fatalf("shard-0 epoch moved on a shard-1 write: %d -> %d", epochA, got)
	}
	if got := r.QueryEpoch(qB); got == epochB {
		t.Fatal("shard-1 epoch did not move on a shard-1 write")
	}
	if got := r.TableEpoch(schema.TableHLE); got == full {
		t.Fatal("table epoch did not move on a write")
	}
}
