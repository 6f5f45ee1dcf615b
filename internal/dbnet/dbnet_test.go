package dbnet

import (
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/minidb"
)

func eventsSchema() *minidb.Schema {
	return &minidb.Schema{
		Name: "events",
		Columns: []minidb.Column{
			{Name: "id", Type: minidb.IntType},
			{Name: "kind", Type: minidb.StringType},
			{Name: "flux", Type: minidb.FloatType},
			{Name: "note", Type: minidb.StringType, Nullable: true},
		},
		PrimaryKey: "id",
		Indexes:    []string{"kind"},
	}
}

// newPair starts a served DB and one client against it.
func newPair(t *testing.T, opts Options) (*minidb.DB, *Server, *Client) {
	t.Helper()
	db, err := minidb.Open(t.TempDir(), eventsSchema())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	opts.DB = db
	srv, err := Listen("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(ClientOptions{Addr: srv.Addr(), CallTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return db, srv, cl
}

func insertEvent(t *testing.T, e minidb.Engine, id int64, kind string) int64 {
	t.Helper()
	rowid, err := e.Insert("events", minidb.Row{
		minidb.I(id), minidb.S(kind), minidb.F(float64(id) / 2), minidb.Null(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return rowid
}

// TestRemoteEngineRoundTrip drives every Engine method over the wire and
// checks the remote answers match the local engine's.
func TestRemoteEngineRoundTrip(t *testing.T) {
	db, srv, cl := newPair(t, Options{})

	for i := int64(0); i < 20; i++ {
		kind := "flare"
		if i%3 == 0 {
			kind = "quiet"
		}
		insertEvent(t, cl, i, kind)
	}

	// Query with predicates, projection, order, limit.
	q := minidb.Query{
		Table:   "events",
		Where:   []minidb.Pred{{Col: "kind", Op: minidb.OpEq, Val: minidb.S("flare")}},
		OrderBy: []minidb.Order{{Col: "id", Desc: true}},
		Limit:   5,
		Project: []string{"id", "flux"},
	}
	remote, err := cl.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	local, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(remote.Rows) != len(local.Rows) || len(remote.Rows) != 5 {
		t.Fatalf("remote rows = %d, local = %d", len(remote.Rows), len(local.Rows))
	}
	for i := range remote.Rows {
		for j := range remote.Rows[i] {
			if !minidb.Equal(remote.Rows[i][j], local.Rows[i][j]) {
				t.Fatalf("row %d col %d: remote %v local %v", i, j, remote.Rows[i][j], local.Rows[i][j])
			}
		}
	}
	if remote.Plan.Kind != local.Plan.Kind {
		t.Fatalf("plan kind: remote %v local %v", remote.Plan.Kind, local.Plan.Kind)
	}

	// Count query.
	cres, err := cl.Query(minidb.Query{Table: "events", Count: true})
	if err != nil || cres.Count != 20 {
		t.Fatalf("count = %+v err %v", cres, err)
	}

	// Get present and absent.
	row, err := cl.Get("events", 0)
	if err != nil || row == nil || row[0].Int() != 0 {
		t.Fatalf("get = %v %v", row, err)
	}
	if row, err := cl.Get("events", 9999); err != nil || row != nil {
		t.Fatalf("absent get = %v %v", row, err)
	}

	// Update and delete round-trip.
	if err := cl.Update("events", 1, minidb.Row{
		minidb.I(1), minidb.S("updated"), minidb.F(9), minidb.S("note"),
	}); err != nil {
		t.Fatal(err)
	}
	if row, _ := db.Get("events", 1); row[1].Str() != "updated" {
		t.Fatalf("update not visible locally: %v", row)
	}
	if err := cl.Delete("events", 2); err != nil {
		t.Fatal(err)
	}
	if row, _ := db.Get("events", 2); row != nil {
		t.Fatal("delete not visible locally")
	}

	// Metadata surface.
	if names := cl.TableNames(); len(names) != 1 || names[0] != "events" {
		t.Fatalf("names = %v", names)
	}
	if n := cl.TableLen("events"); n != db.TableLen("events") {
		t.Fatalf("len = %d want %d", n, db.TableLen("events"))
	}
	if n := cl.TableLen("ghost"); n != -1 {
		t.Fatalf("unknown table len = %d", n)
	}
	if e := cl.TableEpoch("events"); e != db.TableEpoch("events") || e == 0 {
		t.Fatalf("epoch = %d want %d", e, db.TableEpoch("events"))
	}
	s := cl.Schema("events")
	if s == nil || s.Name != "events" || len(s.Columns) != 4 || s.PrimaryKey != "id" {
		t.Fatalf("schema = %+v", s)
	}
	if cl.Schema("ghost") != nil {
		t.Fatal("ghost schema")
	}
	// Second fetch is served from the client cache: no extra server op.
	before := srv.FreeOps()
	if cl.Schema("events") == nil {
		t.Fatal("cached schema lost")
	}
	if srv.FreeOps() != before {
		t.Fatal("cached schema still hit the server")
	}

	st := cl.Stats()
	if st.Inserts != 20 || st.Queries == 0 {
		t.Fatalf("stats = %+v", st)
	}

	// Count views over the wire; re-registration is a no-op.
	if err := cl.CreateCountView("by-kind", "events", "kind"); err != nil {
		t.Fatal(err)
	}
	if err := cl.CreateCountView("by-kind", "events", "kind"); err != nil {
		t.Fatalf("idempotent re-registration: %v", err)
	}
	// ids 0..19, kind quiet when i%3==0: 0,3,6,9,12,15,18 = 7 rows; the
	// update hit id 1 (flare) and the delete hit id 2 (flare), so quiet
	// stays at 7.
	n, err := cl.ViewCount("by-kind", minidb.S("quiet"))
	if err != nil || n != 7 {
		t.Fatalf("quiet count = %d err %v", n, err)
	}

	if srv.Ops() == 0 || srv.Txns() != 0 {
		t.Fatalf("server counters: ops=%d txns=%d", srv.Ops(), srv.Txns())
	}
}

// TestRemoteTransactions exercises interactive transactions: atomic
// commit, rollback, and writer exclusion between two clients.
func TestRemoteTransactions(t *testing.T) {
	db, srv, cl := newPair(t, Options{})

	// Commit: all three rows land atomically, epoch bumps once.
	epoch0 := cl.TableEpoch("events")
	tx := cl.BeginTx()
	for i := int64(0); i < 3; i++ {
		if _, err := tx.Insert("events", minidb.Row{
			minidb.I(i), minidb.S("txn"), minidb.F(0), minidb.Null(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Reads inside the transaction see its own writes.
	res, err := tx.Query(minidb.Query{Table: "events", Count: true})
	if err != nil || res.Count != 3 {
		t.Fatalf("in-txn count = %+v err %v", res, err)
	}
	if row, err := tx.Get("events", 0); err != nil || row == nil {
		t.Fatalf("in-txn get = %v %v", row, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if db.TableLen("events") != 3 {
		t.Fatalf("after commit len = %d", db.TableLen("events"))
	}
	if e := cl.TableEpoch("events"); e != epoch0+1 {
		t.Fatalf("epoch after txn commit = %d want %d", e, epoch0+1)
	}

	// Rollback leaves nothing.
	tx2 := cl.BeginTx()
	if _, err := tx2.Insert("events", minidb.Row{
		minidb.I(50), minidb.S("doomed"), minidb.F(0), minidb.Null(),
	}); err != nil {
		t.Fatal(err)
	}
	tx2.Rollback()
	if db.TableLen("events") != 3 {
		t.Fatalf("after rollback len = %d", db.TableLen("events"))
	}

	// Writer exclusion: a second client's transaction blocks until the
	// first commits — the remote writer lock is the engine's writer lock.
	cl2, err := Dial(ClientOptions{Addr: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()

	tx3 := cl.BeginTx()
	if _, err := tx3.Insert("events", minidb.Row{
		minidb.I(60), minidb.S("first"), minidb.F(0), minidb.Null(),
	}); err != nil {
		t.Fatal(err)
	}
	order := make(chan string, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tx4 := cl2.BeginTx()
		order <- "second-began"
		if _, err := tx4.Insert("events", minidb.Row{
			minidb.I(61), minidb.S("second"), minidb.F(0), minidb.Null(),
		}); err != nil {
			t.Error(err)
		}
		if err := tx4.Commit(); err != nil {
			t.Error(err)
		}
	}()
	time.Sleep(100 * time.Millisecond)
	select {
	case <-order:
		t.Fatal("second writer began before first committed")
	default:
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if db.TableLen("events") != 5 {
		t.Fatalf("after serialized writers len = %d", db.TableLen("events"))
	}
	if srv.Txns() != 4 {
		t.Fatalf("txns = %d", srv.Txns())
	}
}

// TestRemoteErrors: application errors cross the wire, are identifiable
// as remote, and do not poison the pooled connection.
func TestRemoteErrors(t *testing.T) {
	_, _, cl := newPair(t, Options{})

	_, err := cl.Query(minidb.Query{Table: "ghost"})
	if err == nil {
		t.Fatal("unknown table query served")
	}
	if !IsRemote(err) {
		t.Fatalf("expected remote error, got %T %v", err, err)
	}
	// Connection survives the error: next call succeeds.
	insertEvent(t, cl, 1, "flare")
	if n := cl.TableLen("events"); n != 1 {
		t.Fatalf("len after recovered error = %d", n)
	}

	// Transaction-scope violations are remote errors too.
	tx := cl.BeginTx()
	if _, err := tx.Insert("ghost", minidb.Row{minidb.I(1)}); err == nil || !IsRemote(err) {
		t.Fatalf("in-txn unknown table: %v", err)
	}
	// Transaction still usable after an application error.
	if _, err := tx.Insert("events", minidb.Row{
		minidb.I(2), minidb.S("ok"), minidb.F(0), minidb.Null(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := cl.TableLen("events"); n != 2 {
		t.Fatalf("len = %d", n)
	}
}

// TestTransportErrorsAfterShutdown: calls against a dead server report
// transport (not remote) errors, including mid-transaction.
func TestTransportErrorsAfterShutdown(t *testing.T) {
	_, srv, cl := newPair(t, Options{})
	insertEvent(t, cl, 1, "flare")
	srv.Close()

	if _, err := cl.Query(minidb.Query{Table: "events"}); err == nil || IsRemote(err) {
		t.Fatalf("query on dead server: %v", err)
	}
	if cl.TableEpoch("events") != 0 {
		t.Fatal("epoch on dead server should read 0 (never validates a cache)")
	}
	tx := cl.BeginTx()
	if _, err := tx.Insert("events", minidb.Row{
		minidb.I(2), minidb.S("x"), minidb.F(0), minidb.Null(),
	}); err == nil {
		t.Fatal("insert on dead server accepted")
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("commit on dead server accepted")
	}
}

// TestIdleTransactionReaped: a client that begins a transaction and goes
// silent must not hold the shared writer lock forever.
func TestIdleTransactionReaped(t *testing.T) {
	db, srv, cl := newPair(t, Options{TxnIdleTimeout: 150 * time.Millisecond})

	tx := cl.BeginTx()
	if _, err := tx.Insert("events", minidb.Row{
		minidb.I(1), minidb.S("limbo"), minidb.F(0), minidb.Null(),
	}); err != nil {
		t.Fatal(err)
	}
	// Go silent. The server reaps the transaction, rolling it back and
	// releasing the writer lock; a direct local write then proceeds.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if srv.TxnTimeouts() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle transaction never reaped")
		}
		time.Sleep(10 * time.Millisecond)
	}
	rowid := insertEvent(t, db, 2, "after")
	if db.TableLen("events") != 1 {
		t.Fatalf("len = %d (limbo row committed?)", db.TableLen("events"))
	}
	if row, _ := db.Get("events", rowid); row == nil || row[1].Str() != "after" {
		t.Fatalf("surviving row = %v", row)
	}
}

// TestCapacityCeiling: with the station rate capped, N concurrent
// clients cannot push the server past MaxOpsPerSec — the Figure 5 shared
// database ceiling, observed over a real socket.
func TestCapacityCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const rate = 400.0
	const totalOps = 200
	db, _, cl := newPair(t, Options{MaxOpsPerSec: rate})
	_ = db
	insertEvent(t, cl, 1, "flare")

	var wg sync.WaitGroup
	start := time.Now()
	errs := make(chan error, totalOps)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(ClientOptions{Addr: cl.opts.Addr})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < totalOps/8; i++ {
				if _, err := c.Query(minidb.Query{Table: "events", Count: true}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	floor := time.Duration(float64(totalOps) / rate * 0.85 * float64(time.Second))
	if elapsed < floor {
		t.Fatalf("%d ops at %v ops/s cap finished in %v — station not limiting (floor %v)",
			totalOps, rate, elapsed, floor)
	}
	// Epoch reads are exempt: they must not be slowed by a saturated
	// station (they guard cache coherence, not capacity).
	t0 := time.Now()
	for i := 0; i < 50; i++ {
		cl.TableEpoch("events")
	}
	if d := time.Since(t0); d > time.Duration(50.0/rate*float64(time.Second)) {
		t.Fatalf("50 epoch reads took %v — exempt ops are being charged", d)
	}
}

// TestMalformedFrames: garbage opcodes get an error response; oversized
// frames drop the connection without wedging the server.
func TestMalformedFrames(t *testing.T) {
	_, srv, cl := newPair(t, Options{maxFrame: 1 << 16})

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Unknown opcode: server answers with an error frame.
	if err := writeFrame(conn, []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	resp, err := readFrame(conn, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) == 0 || resp[0] != statusErr {
		t.Fatalf("unknown opcode response = %v", resp)
	}

	// Oversized frame header: server closes the connection.
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 1<<30)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := readFrame(conn, DefaultMaxFrame); err == nil {
		t.Fatal("oversized frame did not drop the connection")
	}

	// Truncated body on a fresh connection: decode error, not a hang.
	conn2, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if err := writeFrame(conn2, []byte{opGet, 200}); err != nil { // string length 200, no bytes
		t.Fatal(err)
	}
	conn2.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp2, err := readFrame(conn2, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp2) == 0 || resp2[0] != statusErr {
		t.Fatalf("truncated request response = %v", resp2)
	}

	// The server is still healthy for well-formed clients.
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestWireCodecFuzzSeedCases spot-checks tricky codec inputs end to end.
func TestWireCodecValues(t *testing.T) {
	_, _, cl := newPair(t, Options{})
	rows := []minidb.Row{
		{minidb.I(-1 << 62), minidb.S(""), minidb.F(-0.0), minidb.Null()},
		{minidb.I(1 << 62), minidb.S("héliosphère ☀"), minidb.F(1e308), minidb.S("x")},
		{minidb.I(0), minidb.S(string([]byte{0, 1, 2, 255})), minidb.F(0.5), minidb.Null()},
	}
	for i, r := range rows {
		if _, err := cl.Insert("events", r); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
	}
	for i, want := range rows {
		got, err := cl.Get("events", int64(i))
		if err != nil || got == nil {
			t.Fatalf("get %d: %v %v", i, got, err)
		}
		for j := range want {
			if !minidb.Equal(got[j], want[j]) {
				t.Fatalf("row %d col %d: got %v want %v", i, j, got[j], want[j])
			}
		}
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	_, srv, cl := newPair(t, Options{MaxOpsPerSec: 5})
	insertEvent(t, cl, 1, "flare")
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			_, err := cl.Query(minidb.Query{Table: "events", Count: true})
			done <- err
		}()
	}
	time.Sleep(50 * time.Millisecond)
	srv.Close()
	for i := 0; i < 4; i++ {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("client call wedged after server close")
		}
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial(ClientOptions{Addr: "127.0.0.1:1", DialTimeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func ExampleClient() {
	dir, _ := os.MkdirTemp("", "dbnet-example")
	defer os.RemoveAll(dir)
	db, _ := minidb.Open(dir, eventsSchema())
	defer db.Close()
	srv, _ := Listen("127.0.0.1:0", Options{DB: db, MaxOpsPerSec: 120})
	defer srv.Close()

	cl, _ := Dial(ClientOptions{Addr: srv.Addr()})
	defer cl.Close()
	cl.Insert("events", minidb.Row{minidb.I(1), minidb.S("flare"), minidb.F(3.5), minidb.Null()})
	res, _ := cl.Query(minidb.Query{Table: "events", Count: true})
	fmt.Println(res.Count)
	// Output: 1
}
