package cluster

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dbnet"
	"repro/internal/dm"
	"repro/internal/overload"
	"repro/internal/schema"
)

func TestGatewayBrowseAcrossReplicas(t *testing.T) {
	tc := startTestCell(t, 1, 40, dbnet.Options{}, CellOptions{Replicas: 3})

	// Anonymous browse of public data through the gateway: correct
	// results regardless of which replica serves.
	for i := 0; i < 30; i++ {
		f := dm.HLEFilter{Kind: "flare", HasDay: true, Day: int64(i % 10)}
		hles, err := tc.GW.QueryHLEs("", "10.0.0.1", f)
		if err != nil {
			t.Fatal(err)
		}
		n, err := tc.GW.CountHLEs("", "10.0.0.1", f)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(hles) {
			t.Fatalf("count %d != query %d", n, len(hles))
		}
		for _, h := range hles {
			got, err := tc.GW.GetHLE("", "10.0.0.1", h.ID)
			if err != nil {
				t.Fatal(err)
			}
			if got.ID != h.ID || !got.Public {
				t.Fatalf("got %+v", got)
			}
		}
	}

	// With 10 distinct filters, rendezvous hashing should have spread
	// affinity keys over more than one replica.
	busy := 0
	for _, m := range tc.GW.Members() {
		if m.Served > 0 {
			busy++
		}
		if !m.Healthy {
			t.Fatalf("replica %s unhealthy", m.Name)
		}
	}
	if busy < 2 {
		t.Fatalf("traffic concentrated on %d replica(s)", busy)
	}
}

func TestGatewayCacheAffinity(t *testing.T) {
	tc := startTestCell(t, 1, 20, dbnet.Options{}, CellOptions{Replicas: 3})

	// The same filter must keep landing on the same replica so its
	// epoch-keyed cache stays hot: repeated identical counts are served
	// without new engine queries.
	f := dm.HLEFilter{Kind: "burst"}
	for i := 0; i < 12; i++ {
		if _, err := tc.GW.CountHLEs("", "10.0.0.1", f); err != nil {
			t.Fatal(err)
		}
	}
	served := 0
	for _, m := range tc.GW.Members() {
		if m.Served > 0 {
			served++
		}
	}
	if served != 1 {
		t.Fatalf("one affinity key hit %d replicas", served)
	}
	var hits int64
	for _, r := range tc.Replicas {
		hits += r.DM().Stats().QueryCacheHits.Load()
	}
	if hits < 10 {
		t.Fatalf("query cache hits = %d, want >= 10 (affinity not keeping cache hot)", hits)
	}
}

// TestGatewayFailover is the cluster fault test: a replica dies mid-run
// under load; the gateway must fail the traffic over with zero
// client-visible errors, drain the dead node, and pick it back up when a
// replacement appears.
func TestGatewayFailover(t *testing.T) {
	tc := startTestCell(t, 1, 30, dbnet.Options{}, CellOptions{
		Replicas: 3, Gateway: GatewayOptions{HealthInterval: 50 * time.Millisecond}})

	var pages, clientErrors atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f := dm.HLEFilter{Kind: "flare", HasDay: true, Day: int64(i % 10)}
				hles, err := tc.GW.QueryHLEs("", "10.0.0.2", f)
				if err != nil {
					clientErrors.Add(1)
					continue
				}
				if _, err := tc.GW.CountHLEs("", "10.0.0.2", f); err != nil {
					clientErrors.Add(1)
					continue
				}
				for j := 0; j < len(hles) && j < 3; j++ {
					if _, err := tc.GW.GetHLE("", "10.0.0.2", hles[j].ID); err != nil {
						clientErrors.Add(1)
					}
				}
				pages.Add(1)
			}
		}(w)
	}

	// The kill must land mid-run: wait until every replica carries traffic.
	tc.waitFor(t, "traffic on every replica", func() bool {
		for _, m := range tc.GW.Members() {
			if m.Served == 0 {
				return false
			}
		}
		return true
	})
	tc.stopReplica("replica-1") // machine failure mid-run

	// The dead replica must leave rotation (drained) while traffic
	// continues on the survivors.
	tc.waitFor(t, "dead replica out of rotation", func() bool {
		m, ok := tc.member("replica-1")
		return ok && !m.Healthy
	})
	before := pages.Load()
	tc.waitFor(t, "pages advancing after the failure", func() bool { return pages.Load() > before })

	// Recovery: a replacement joins and starts taking traffic.
	rep, err := tc.AddReplica()
	if err != nil {
		t.Fatal(err)
	}
	tc.waitFor(t, "replacement healthy and serving", func() bool {
		m, ok := tc.member(rep.Name())
		return ok && m.Healthy && m.Served > 0
	})

	close(stop)
	wg.Wait()

	if clientErrors.Load() != 0 {
		t.Fatalf("%d client-visible errors during failover", clientErrors.Load())
	}
	if tc.GW.Failovers() == 0 {
		t.Fatal("no failovers recorded — kill happened outside traffic?")
	}
}

func TestGatewaySessionPinning(t *testing.T) {
	tc := startTestCell(t, 1, 10, dbnet.Options{}, CellOptions{
		Replicas: 3, Gateway: GatewayOptions{HealthInterval: 50 * time.Millisecond}})

	si, err := tc.GW.Authenticate("sci", "pw", "10.0.0.3", dm.SessionHLE)
	if err != nil {
		t.Fatal(err)
	}
	// The session lives on one replica; every tokened call must land
	// there. CreateHLE requires the authenticated session.
	var created []string
	for i := 0; i < 5; i++ {
		id, err := tc.GW.CreateHLE(si.Token, "10.0.0.3", &schema.HLE{
			KindHint: "flare", Day: 1, TStart: float64(1000 + i), TStop: float64(1001 + i),
			Version: 1, CalibVersion: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		created = append(created, id)
	}
	for _, id := range created {
		if _, err := tc.GW.GetHLE(si.Token, "10.0.0.3", id); err != nil {
			t.Fatal(err)
		}
	}

	// Kill the pinned replica: the session dies with it. Browsing
	// continues (demoted to anonymous/public visibility), but writes are
	// denied until re-authentication — never a transport error.
	var pinned *member
	tc.GW.pinMu.Lock()
	pinned = tc.GW.pins[si.Token]
	tc.GW.pinMu.Unlock()
	if pinned == nil {
		t.Fatal("token not pinned")
	}
	tc.stopReplica(pinned.name)
	time.Sleep(300 * time.Millisecond)

	if _, err := tc.GW.CountHLEs(si.Token, "10.0.0.3", dm.HLEFilter{Kind: "flare"}); err != nil {
		t.Fatalf("browse after pinned replica death: %v", err)
	}
	_, err = tc.GW.CreateHLE(si.Token, "10.0.0.3", &schema.HLE{
		KindHint: "flare", Day: 2, TStart: 2000, TStop: 2001, Version: 1, CalibVersion: 1,
	})
	if err == nil {
		t.Fatal("write with dead session accepted")
	}
	if dm.IsUnreachable(err) {
		t.Fatalf("session loss surfaced as transport error: %v", err)
	}

	// Re-authentication restores write access on a surviving replica.
	si2, err := tc.GW.Authenticate("sci", "pw", "10.0.0.3", dm.SessionHLE)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.GW.CreateHLE(si2.Token, "10.0.0.3", &schema.HLE{
		KindHint: "flare", Day: 2, TStart: 3000, TStop: 3001, Version: 1, CalibVersion: 1,
	}); err != nil {
		t.Fatal(err)
	}

	if err := tc.GW.Logout(si2.Token); err != nil {
		t.Fatal(err)
	}
	tc.GW.pinMu.Lock()
	_, stillPinned := tc.GW.pins[si2.Token]
	tc.GW.pinMu.Unlock()
	if stillPinned {
		t.Fatal("logout left the token pinned")
	}
}

func TestGatewayAdmissionControl(t *testing.T) {
	tc := startTestCell(t, 1, 5, dbnet.Options{}, CellOptions{
		Replicas: 1,
		Gateway:  GatewayOptions{Admission: &overload.Config{Initial: 1, Min: 1, Max: 1, MaxWait: 50 * time.Millisecond}},
		Capacity: Capacity{Workers: 1, CPUPerCall: 150 * time.Millisecond}})

	var ok, shed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := tc.GW.CountHLEs("", "10.0.0.4", dm.HLEFilter{Kind: "flare"})
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, ErrOverloaded):
				shed.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if ok.Load() == 0 {
		t.Fatal("no request admitted")
	}
	if shed.Load() == 0 {
		t.Fatal("overload did not shed — admission control inert")
	}
	if tc.GW.Status().Shed != shed.Load() {
		t.Fatalf("Status().Shed = %d, observed %d", tc.GW.Status().Shed, shed.Load())
	}
}

func TestGatewayNoReplicas(t *testing.T) {
	gw := NewGateway(GatewayOptions{})
	defer gw.Close()
	if _, err := gw.CountHLEs("", "1.2.3.4", dm.HLEFilter{}); err != ErrNoReplicas {
		t.Fatalf("err = %v", err)
	}
}

// TestReplicaCapacityModel: the thrash law inflates per-call demand once
// inflight exceeds the threshold — a replica under heavy concurrency
// serves each call slower, which is what bends Figure 4 downward.
func TestReplicaCapacityModel(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	tc := startTestCell(t, 1, 5, dbnet.Options{}, CellOptions{
		Replicas: 1,
		Capacity: Capacity{Workers: 2, CPUPerCall: 5 * time.Millisecond, ThrashThreshold: 4, ThrashFactor: 0.5}})

	// 1 client: ~5ms/call. 16 concurrent clients: inflight ~16, demand
	// inflated ~(1+0.5*12)=7x, plus 2-worker queueing.
	start := time.Now()
	for i := 0; i < 10; i++ {
		if _, err := tc.GW.CountHLEs("", "10.0.0.5", dm.HLEFilter{Kind: "flare"}); err != nil {
			t.Fatal(err)
		}
	}
	serial := time.Since(start) / 10

	var wg sync.WaitGroup
	start = time.Now()
	var calls atomic.Int64
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := tc.GW.CountHLEs("", "10.0.0.5", dm.HLEFilter{Kind: "flare"}); err != nil {
					t.Error(err)
					return
				}
				calls.Add(1)
			}
		}()
	}
	wg.Wait()
	concurrent := time.Since(start) / time.Duration(calls.Load())
	if concurrent < serial*2 {
		t.Fatalf("per-call time under load %v vs serial %v — thrash model inert", concurrent, serial)
	}
}
