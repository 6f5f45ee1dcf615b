package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dbnet"
	"repro/internal/dm"
	"repro/internal/minidb"
	"repro/internal/schema"
	"repro/internal/shard"
)

// testCell is a whole harness cell under test: both halves, torn down
// by t.Cleanup.
type testCell struct {
	*Backends
	*Cell
}

// startTestCell seeds nHLEs public events (alternating flare/burst, ten
// days) into a fresh shards-shard cell and brings up o's replicas and
// gateway.
func startTestCell(t *testing.T, shards, nHLEs int, srv dbnet.Options, o CellOptions) *testCell {
	t.Helper()
	b, err := StartBackends(shards, srv, func(boot minidb.Engine) error {
		for i := 0; i < nHLEs; i++ {
			h := &schema.HLE{
				ID: fmt.Sprintf("hle-live-%05d", i), Version: 1, Owner: "sci", Public: true,
				KindHint: []string{"flare", "burst"}[i%2], TStart: float64(i), TStop: float64(i + 1),
				Day: int64(i % 10), CalibVersion: 1,
			}
			if _, err := boot.Insert(schema.TableHLE, h.ToRow()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	c, err := StartCell(b.Addrs(), o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return &testCell{b, c}
}

// stopReplica kills the named replica abruptly, as when a machine dies;
// the gateway is left to find out.
func (tc *testCell) stopReplica(name string) {
	for _, r := range tc.Replicas {
		if r.Name() == name {
			r.Stop()
		}
	}
}

// member returns the gateway's view of one replica.
func (tc *testCell) member(name string) (MemberStatus, bool) {
	for _, m := range tc.GW.Members() {
		if m.Name == name {
			return m, true
		}
	}
	return MemberStatus{}, false
}

// waitFor polls cond until it holds, failing the test if it has not
// within a deadline generous enough for a loaded machine.
func (tc *testCell) waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDialEngineOneAddressIsWhole: one address of a two-shard cell is
// refused with the shard's identity, not opened as the whole catalog;
// one address of a one-shard cell, whose database has no identity row,
// still opens.
func TestDialEngineOneAddressIsWhole(t *testing.T) {
	two, err := StartBackends(2, dbnet.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer two.Close()
	eng, err := DialEngine(two.Addrs()[:1], dbnet.ClientOptions{}, shard.Options{}, nil)
	var ie *shard.IdentityError
	if !errors.As(err, &ie) {
		if eng != nil {
			eng.Close()
		}
		t.Fatalf("shard 0 of 2 as the only address: err = %v, want *shard.IdentityError", err)
	}
	if ie.Have != "0/2" {
		t.Fatalf("IdentityError names %q, want the shard's own 0/2", ie.Have)
	}

	one, err := StartBackends(1, dbnet.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	eng, err = DialEngine(one.Addrs(), dbnet.ClientOptions{}, shard.Options{}, nil)
	if err != nil {
		t.Fatalf("unsharded database refused: %v", err)
	}
	eng.Close()
}

// TestCellServes is the builder's smoke over its shapes: the cell comes
// up, scatter queries and counts through the gateway see every seeded
// row regardless of which shard holds it, point reads route, a write
// through the full stack lands on exactly one shard, and Close is
// idempotent. One address builds no router; two build one per replica.
func TestCellServes(t *testing.T) {
	for _, tt := range []struct{ shards, replicas int }{{1, 1}, {1, 2}, {2, 2}} {
		t.Run(fmt.Sprintf("%dx%d", tt.shards, tt.replicas), func(t *testing.T) {
			const seeded = 24
			tc := startTestCell(t, tt.shards, seeded, dbnet.Options{}, CellOptions{Replicas: tt.replicas})

			wantRouters := 0
			if tt.shards > 1 {
				wantRouters = tt.replicas
				for sid, db := range tc.DBs {
					if n := db.TableLen(schema.TableHLE); n == 0 || n == seeded {
						t.Fatalf("seed did not spread: shard %d holds %d of %d rows", sid, n, seeded)
					}
				}
			}
			got := 0
			for _, e := range tc.engines {
				if _, ok := e.(*shard.Router); ok {
					got++
				}
			}
			if got != wantRouters {
				t.Fatalf("routers = %d, want %d", got, wantRouters)
			}
			if len(tc.Replicas) != tt.replicas || len(tc.GW.Members()) != tt.replicas {
				t.Fatalf("replicas = %d, members = %d, want %d", len(tc.Replicas), len(tc.GW.Members()), tt.replicas)
			}

			hles, err := tc.GW.QueryHLEs("", "10.2.0.1", dm.HLEFilter{})
			if err != nil {
				t.Fatal(err)
			}
			if len(hles) != seeded {
				t.Fatalf("scatter query returned %d rows, want %d", len(hles), seeded)
			}
			n, err := tc.GW.CountHLEs("", "10.2.0.1", dm.HLEFilter{})
			if err != nil {
				t.Fatal(err)
			}
			if n != seeded {
				t.Fatalf("scatter count = %d, want %d", n, seeded)
			}
			for _, h := range hles {
				if _, err := tc.GW.GetHLE("", "10.2.0.1", h.ID); err != nil {
					t.Fatalf("point read %s through the cell: %v", h.ID, err)
				}
			}

			si, err := tc.GW.Authenticate("sci", "pw", "10.2.0.1", dm.SessionHLE)
			if err != nil {
				t.Fatal(err)
			}
			id, err := tc.GW.CreateHLE(si.Token, "10.2.0.1", &schema.HLE{
				KindHint: "burst", TStart: 1000, TStop: 1001, Version: 1, CalibVersion: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			copies := 0
			for _, db := range tc.DBs {
				res, err := db.Query(minidb.Query{Table: schema.TableHLE,
					Where: []minidb.Pred{{Col: "hle_id", Op: minidb.OpEq, Val: minidb.S(id)}}})
				if err != nil {
					t.Fatal(err)
				}
				copies += len(res.Rows)
			}
			if copies != 1 {
				t.Fatalf("created HLE %s exists %d times across shards, want exactly 1", id, copies)
			}

			tc.Cell.Close()
			tc.Cell.Close()
			if _, err := tc.GW.CountHLEs("", "10.2.0.1", dm.HLEFilter{}); err == nil {
				t.Fatal("closed cell still serves")
			}
			tc.Backends.Close()
			tc.Backends.Close()
		})
	}
}

// trackedConn records its Close for TestStartCellUnwinds.
type trackedConn struct {
	net.Conn
	open *atomic.Int64
	once atomic.Bool
}

func (c *trackedConn) Close() error {
	if !c.once.Swap(true) {
		c.open.Add(-1)
	}
	return c.Conn.Close()
}

// TestStartCellUnwinds fails the k-th dbnet dial of a 2-shard × 2-replica
// build, for every k: StartCell must return the error with every
// connection it had opened closed again (clients directly, or through
// the routers that own them), and once the backends close too the dbnet
// addresses refuse connections.
func TestStartCellUnwinds(t *testing.T) {
	b, err := StartBackends(2, dbnet.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	errBoom := errors.New("injected dial failure")

	for k := 1; k <= 4; k++ {
		var dials, open atomic.Int64
		dial := func(network, addr string, timeout time.Duration) (net.Conn, error) {
			if dials.Add(1) == int64(k) {
				return nil, errBoom
			}
			c, err := net.DialTimeout(network, addr, timeout)
			if err != nil {
				return nil, err
			}
			open.Add(1)
			return &trackedConn{Conn: c, open: &open}, nil
		}
		cell, err := StartCell(b.Addrs(), CellOptions{
			Replicas: 2,
			Dial:     func(replica, shard int) DialFunc { return dial },
		})
		if err == nil {
			cell.Close()
			t.Fatalf("k=%d: StartCell succeeded past a failed dial", k)
		}
		if !errors.Is(err, errBoom) {
			t.Fatalf("k=%d: err = %v, want the injected failure", k, err)
		}
		if n := open.Load(); n != 0 {
			t.Fatalf("k=%d: %d connections left open after the failed build", k, n)
		}
	}

	addrs := b.Addrs()
	b.Close()
	for _, addr := range addrs {
		if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			c.Close()
			t.Fatalf("dbnet address %s still accepts after Backends.Close", addr)
		}
	}
}
