package cluster

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dm"
	"repro/internal/overload"
)

// stubAPI implements the one read the overload tests drive and panics on
// everything else (the embedded nil interface). Latency and downstream
// overload are switchable at runtime.
type stubAPI struct {
	dm.API
	delay    atomic.Int64 // per-call service time, nanoseconds
	overload atomic.Bool  // refuse with a typed overload error
	calls    atomic.Int64
}

func (s *stubAPI) CountHLEs(token, ip string, f dm.HLEFilter) (int, error) {
	s.calls.Add(1)
	if d := time.Duration(s.delay.Load()); d > 0 {
		time.Sleep(d)
	}
	if s.overload.Load() {
		return 0, &overload.Error{Tier: "db", RetryAfter: 120 * time.Millisecond}
	}
	return 7, nil
}

// TestGatewayAdaptiveShedTyped: under a burst far beyond the adaptive
// limit, excess anonymous reads shed with the typed error and its
// retry-after hint; nothing fails untyped; the Status snapshot reports
// the limiter's view.
func TestGatewayAdaptiveShedTyped(t *testing.T) {
	gw := NewGateway(GatewayOptions{
		Admission: &overload.Config{
			Initial: 2, Min: 1, Max: 4, MaxQueue: 2,
			MaxWait: 30 * time.Millisecond,
		},
	})
	defer gw.Close()
	stub := &stubAPI{}
	stub.delay.Store(int64(20 * time.Millisecond))
	gw.AddReplica("r0", stub)

	var ok, shed, untyped atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := gw.CountHLEs("", "10.9.0.1", dm.HLEFilter{Kind: "flare"})
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, ErrOverloaded):
				if ra, hinted := overload.RetryAfterOf(err); !hinted || ra <= 0 {
					untyped.Add(1) // a shed without a hint counts as broken
					return
				}
				shed.Add(1)
			default:
				untyped.Add(1)
			}
		}()
	}
	wg.Wait()

	if ok.Load() == 0 {
		t.Fatal("no request served under burst")
	}
	if shed.Load() == 0 {
		t.Fatal("no request shed by a 32-wide burst against limit 2")
	}
	if untyped.Load() != 0 {
		t.Fatalf("%d requests failed untyped or hintless", untyped.Load())
	}
	st := gw.Status().Overload
	if st.Min != 1 || st.Max != 4 {
		t.Fatalf("Status does not report the adaptive limiter's range: [%d, %d], want [1, 4]", st.Min, st.Max)
	}
	if st.Sheds != shed.Load() {
		t.Fatalf("limiter counted %d sheds, clients saw %d", st.Sheds, shed.Load())
	}
	if st.ShedByPri[overload.Browse] != shed.Load() {
		t.Fatalf("sheds not attributed to browse class: %+v", st.ShedByPri)
	}
	if st.Limit < 1 || st.Limit > 4 {
		t.Fatalf("limit %d escaped [Min, Max]", st.Limit)
	}
}

// TestGatewayReportsAdmission: Status().Overload names the admission
// control a gateway runs: none reports limit 0, a fixed cap reports
// Min == Max == its limit, an adaptive limiter the range it breathes in,
// and both count the requests holding a permit.
func TestGatewayReportsAdmission(t *testing.T) {
	for _, tt := range []struct {
		name      string
		admission *overload.Config
		wantLimit int
		wantFixed bool
	}{
		{"off", nil, 0, false},
		{"fixed", &overload.Config{Initial: 3, Min: 3, Max: 3}, 3, true},
		{"adaptive", &overload.Config{Initial: 4, Min: 2, Max: 8}, 4, false},
	} {
		gw := NewGateway(GatewayOptions{HealthInterval: time.Minute, Admission: tt.admission})
		wantIn := 0
		var permit *overload.Permit
		if tt.admission != nil {
			p, err := gw.lim.Acquire(overload.Interactive)
			if err != nil {
				t.Fatalf("%s: %v", tt.name, err)
			}
			permit, wantIn = p, 1
		}
		st := gw.Status().Overload
		if permit != nil {
			permit.Release()
		}
		gw.Close()
		fixed := st.Max > 0 && st.Min == st.Max
		if fixed != tt.wantFixed || st.Limit != tt.wantLimit {
			t.Fatalf("%s: limit=%d in [%d, %d], want limit %d (fixed=%v)",
				tt.name, st.Limit, st.Min, st.Max, tt.wantLimit, tt.wantFixed)
		}
		if tt.admission == nil && st.Max != 0 {
			t.Fatalf("off: reports bounds [%d, %d]", st.Min, st.Max)
		}
		if st.Inflight != wantIn {
			t.Fatalf("%s: inflight=%d, want %d", tt.name, st.Inflight, wantIn)
		}
		if st.Stage != overload.StageNormal.String() || st.Transitions != 0 {
			t.Fatalf("%s: no Brownout set, yet stage %s after %d transitions", tt.name, st.Stage, st.Transitions)
		}
	}
}

// TestGatewayFixedCapRunsNoLadder: a gateway with Admission but no
// Brownout — the stampede's fixed arm — runs no brownout ladder. Under
// a shed storm long enough for the default ladder to reach its
// stale-reads rung, it stays at StageNormal and never answers a shed
// anonymous read from the stale cache.
func TestGatewayFixedCapRunsNoLadder(t *testing.T) {
	gw := NewGateway(GatewayOptions{
		HealthInterval: time.Minute,
		Admission: &overload.Config{
			Initial: 1, Min: 1, Max: 1, MaxQueue: 2,
			MaxWait: 5 * time.Millisecond,
		},
		BrownoutTick: 10 * time.Millisecond,
	})
	defer gw.Close()
	stub := &stubAPI{}
	gw.AddReplica("r0", stub)
	f := dm.HLEFilter{Kind: "flare"}
	if _, err := gw.CountHLEs("", "10.9.0.4", f); err != nil {
		t.Fatal(err) // warms the stale cache for f
	}
	stub.delay.Store(int64(30 * time.Millisecond))

	var degraded atomic.Int64
	var climbed atomic.Pointer[string]
	stop := time.Now().Add(1500 * time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				if _, err := gw.CountHLEs("", "10.9.0.4", f); IsDegraded(err) {
					degraded.Add(1)
				}
				if s := gw.BrownoutStage(); s != overload.StageNormal {
					name := s.String()
					climbed.CompareAndSwap(nil, &name)
				}
			}
		}()
	}
	wg.Wait()
	if st := gw.Status(); st.Shed == 0 {
		t.Fatal("the storm shed nothing, so no ladder could have climbed")
	}
	if s := climbed.Load(); s != nil {
		t.Fatalf("brownout ladder ran without Brownout: reached %s", *s)
	}
	if n := degraded.Load(); n != 0 {
		t.Fatalf("%d sheds answered from the stale cache without a ladder", n)
	}
}

// TestGatewayBackpressureOnDownstreamOverload: when the tier below sheds,
// the gateway relays the typed error without retrying a sibling replica
// (zero retry storm, structurally) and folds the refusal into its own
// limiter as a multiplicative decrease.
func TestGatewayBackpressureOnDownstreamOverload(t *testing.T) {
	gw := NewGateway(GatewayOptions{
		Admission: &overload.Config{Initial: 8, Min: 1, Max: 8, Window: 1 << 20},
	})
	defer gw.Close()
	a, b := &stubAPI{}, &stubAPI{}
	a.overload.Store(true)
	b.overload.Store(true)
	gw.AddReplica("r0", a)
	gw.AddReplica("r1", b)

	const n = 6
	for i := 0; i < n; i++ {
		_, err := gw.CountHLEs("", "10.9.0.2", dm.HLEFilter{Kind: "flare"})
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("call %d: err = %v, want relayed overload", i, err)
		}
		if ra, ok := overload.RetryAfterOf(err); !ok || ra != 120*time.Millisecond {
			t.Fatalf("downstream retry-after hint lost: %v", err)
		}
	}
	// One upstream call per request: an overloaded replica is never
	// "failed over" — the sibling is drowning in the same stampede.
	if got := a.calls.Load() + b.calls.Load(); got != n {
		t.Fatalf("%d downstream calls for %d requests: overload was retried", got, n)
	}
	st := gw.Status().Overload
	if st.DBOverloads != n {
		t.Fatalf("DBOverloads = %d, want %d", st.DBOverloads, n)
	}
	if st.Limit >= 8 {
		t.Fatalf("limit still %d after downstream pushback, want a decrease", st.Limit)
	}
}

// TestGatewayBrownoutLadder: a sustained shed storm drives limiter
// pressure up and the ladder climbs rung by rung to shed-bulk; when the
// storm stops the pressure decays and the ladder walks back down to
// normal.
func TestGatewayBrownoutLadder(t *testing.T) {
	gw := NewGateway(GatewayOptions{
		Admission: &overload.Config{
			Initial: 1, Min: 1, Max: 1, MaxQueue: 2,
			MaxWait:       5 * time.Millisecond,
			QueueInterval: 40 * time.Millisecond,
		},
		Brownout: &overload.LadderConfig{
			Enter: [4]float64{0, 0.30, 0.55, 0.80},
			Exit:  [4]float64{0, 0.10, 0.25, 0.45},
			Dwell: 20 * time.Millisecond,
		},
		BrownoutTick: 10 * time.Millisecond,
	})
	defer gw.Close()
	stub := &stubAPI{}
	stub.delay.Store(int64(30 * time.Millisecond))
	gw.AddReplica("r0", stub)

	// Storm: a closed swarm hammering a 1-permit gateway sheds nearly
	// everything, holding pressure high while it lasts.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				gw.CountHLEs("", "10.9.0.3", dm.HLEFilter{Kind: "flare"})
			}
		}()
	}

	// The ladder moves one rung per 20ms dwell, so a 2ms poll sees every
	// rung it stands on.
	deadline := time.Now().Add(5 * time.Second)
	for gw.BrownoutStage() != overload.StageShedBulk {
		if time.Now().After(deadline) {
			t.Fatalf("ladder never reached shed-bulk; stage %v pressure %.2f",
				gw.BrownoutStage(), gw.Status().Overload.Pressure)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// Recovery: arrivals stopped, pressure decays, ladder exits brownout.
	deadline = time.Now().Add(5 * time.Second)
	for gw.BrownoutStage() != overload.StageNormal {
		if time.Now().After(deadline) {
			t.Fatalf("ladder never recovered; stage %v pressure %.2f",
				gw.BrownoutStage(), gw.Status().Overload.Pressure)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if tr := gw.Status().Overload.Transitions; tr < 6 {
		t.Fatalf("transitions = %d, want the full climb and descent (>= 6)", tr)
	}
}

// TestDegradeStartsAtStaleReads: an overload shed degrades to the stale
// cache from the stale-reads rung up, and not on the rungs below it.
// Transport loss degrades on every rung.
func TestDegradeStartsAtStaleReads(t *testing.T) {
	g := &Gateway{lad: overload.NewLadder(&overload.LadderConfig{Dwell: time.Nanosecond})}
	shed := &overload.Error{Tier: "gateway"}
	now := time.Now()
	for stage := overload.StageNormal; stage <= overload.StageShedBulk; stage++ {
		if got := g.BrownoutStage(); got != stage {
			t.Fatalf("ladder at %v, want %v", got, stage)
		}
		if want := stage >= overload.StageStaleReads; g.canDegrade(shed) != want {
			t.Errorf("canDegrade(overload shed) at %v = %v, want %v", stage, !want, want)
		}
		if !g.canDegrade(ErrNoReplicas) {
			t.Errorf("canDegrade(no replicas) at %v = false", stage)
		}
		now = now.Add(time.Second)
		g.lad.Observe(now, 1)
	}
}
