package dbnet

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/minidb"
)

func TestApplyRoundTrip(t *testing.T) {
	db, srv, cl := newPair(t, Options{})

	var b minidb.Batch
	for i := int64(0); i < 10; i++ {
		b.Insert("events", minidb.Row{minidb.I(i), minidb.S("flare"), minidb.F(1), minidb.Null()})
	}
	ids, err := cl.Apply(&b)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 10 {
		t.Fatalf("rowids=%d, want 10", len(ids))
	}
	if n := db.TableLen("events"); n != 10 {
		t.Fatalf("events=%d, want 10", n)
	}
	// A mixed batch referencing the first one's rowids, still one round trip.
	var b2 minidb.Batch
	b2.Update("events", ids[0], minidb.Row{minidb.I(0), minidb.S("burst"), minidb.F(2), minidb.Null()})
	b2.Delete("events", ids[1])
	if _, err := cl.Apply(&b2); err != nil {
		t.Fatal(err)
	}
	if n := db.TableLen("events"); n != 9 {
		t.Fatalf("events=%d, want 9", n)
	}
	// The whole exercise charged 2 capacity ops: batching is what the wire
	// capacity model rewards.
	if got := srv.Ops(); got != 2 {
		t.Fatalf("charged ops=%d, want 2", got)
	}
	if ids, err := cl.Apply(nil); err != nil || ids != nil {
		t.Fatalf("nil batch: %v %v", ids, err)
	}
}

// TestInsertBatch: a single-table insert batch rides opExecBatch too: one
// round trip, one rowid per row, in order.
func TestInsertBatch(t *testing.T) {
	db, _, cl := newPair(t, Options{})
	var b minidb.Batch
	for i := int64(0); i < 25; i++ {
		b.Insert("events", minidb.Row{minidb.I(i), minidb.S("flare"), minidb.F(0), minidb.Null()})
	}
	ids, err := cl.Apply(&b)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 25 {
		t.Fatalf("rowids=%d, want 25", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("rowids out of order: %v", ids)
		}
	}
	if n := db.TableLen("events"); n != 25 {
		t.Fatalf("events=%d, want 25", n)
	}
}

// TestRetiredInsertBatchOpcodeIsUnknown: opcode 17 carried the retired
// one-table insert batch. It stays reserved, so the server answers it like
// any unknown opcode and the opcodes after it keep their bytes.
func TestRetiredInsertBatchOpcodeIsUnknown(t *testing.T) {
	if opExecBatch != 18 || opDeadline != 19 || opAnalytics != 20 {
		t.Fatalf("opcodes renumbered: exec-batch %d, deadline %d, analytics %d", opExecBatch, opDeadline, opAnalytics)
	}
	_, srv, _ := newPair(t, Options{})
	resp, tx := srv.dispatch(17, bytes.NewReader([]byte{0x03, 'h', 'l', 'e', 0x00}), nil, time.Time{})
	defer putFrameBuf(resp)
	if tx != nil {
		t.Fatal("retired opcode opened a transaction")
	}
	_, err := parseResponse(resp.Bytes(), 5*time.Second)
	if err == nil || !IsRemote(err) || !strings.Contains(err.Error(), "unknown opcode 17") {
		t.Fatalf("want unknown-opcode reply, got %v", err)
	}
}

// TestApplyMidBatchError: a batch whose Nth op fails must be rejected whole
// — nothing applied — and the connection must stay usable.
func TestApplyMidBatchError(t *testing.T) {
	db, _, cl := newPair(t, Options{})
	insertEvent(t, cl, 1, "flare")

	var bad minidb.Batch
	bad.Insert("events", minidb.Row{minidb.I(2), minidb.S("flare"), minidb.F(0), minidb.Null()})
	bad.Insert("events", minidb.Row{minidb.I(1), minidb.S("dup"), minidb.F(0), minidb.Null()}) // duplicate pk
	bad.Insert("events", minidb.Row{minidb.I(3), minidb.S("flare"), minidb.F(0), minidb.Null()})
	_, err := cl.Apply(&bad)
	if err == nil || !IsRemote(err) || !strings.Contains(err.Error(), "duplicate primary key") {
		t.Fatalf("want remote duplicate-pk error, got %v", err)
	}
	if n := db.TableLen("events"); n != 1 {
		t.Fatalf("failed batch leaked rows: events=%d", n)
	}
	// The connection survived the rejection: next call works.
	insertEvent(t, cl, 2, "flare")
	if n := db.TableLen("events"); n != 2 {
		t.Fatalf("events=%d, want 2", n)
	}
}

func TestBatchInsideTransactionRejected(t *testing.T) {
	_, _, cl := newPair(t, Options{})
	// A raw connection that begins a transaction, then attempts a batch:
	// the server must refuse (batches route through group commit, which a
	// held writer lock would deadlock against).
	wc, err := cl.get()
	if err != nil {
		t.Fatal(err)
	}
	defer wc.c.Close()
	resp, err := wc.roundTrip([]byte{opBegin}, 5*time.Second, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseResponse(resp, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	var b minidb.Batch
	b.Insert("events", minidb.Row{minidb.I(9), minidb.S("x"), minidb.F(0), minidb.Null()})
	req := getFrameBuf()
	req.WriteByte(opExecBatch)
	minidb.WirePutBatch(req, &b)
	resp, err = wc.roundTrip(req.Bytes(), 5*time.Second, DefaultMaxFrame)
	putFrameBuf(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseResponse(resp, 5*time.Second); err == nil || !strings.Contains(err.Error(), "batch inside transaction") {
		t.Fatalf("want batch-inside-transaction rejection, got %v", err)
	}
	// Roll back so the deferred close doesn't leave a lingering txn.
	if resp, err = wc.roundTrip([]byte{opRollback}, 5*time.Second, DefaultMaxFrame); err != nil {
		t.Fatal(err)
	}
	if _, err := parseResponse(resp, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestOversizedBatchRejected: a batch frame beyond the server's MaxFrame is
// refused at the framing layer; the client sees a transport error and a
// fresh connection still works.
func TestOversizedBatchRejected(t *testing.T) {
	_, _, cl := newPair(t, Options{MaxFrame: 4096})
	big := strings.Repeat("x", 8192)
	var b minidb.Batch
	b.Insert("events", minidb.Row{minidb.I(1), minidb.S(big), minidb.F(0), minidb.Null()})
	if _, err := cl.Apply(&b); err == nil {
		t.Fatal("oversized batch accepted")
	}
	// The server dropped that connection; the pool dials a new one.
	insertEvent(t, cl, 1, "flare")
}
