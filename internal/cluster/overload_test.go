package cluster

import (
	"errors"
	"fmt"
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
		if st.Degrading || st.Flips != 0 {
			t.Fatalf("%s: no Degrade set, yet degrading=%v after %d flips", tt.name, st.Degrading, st.Flips)
		}
	}
}

// TestGatewayFixedCapRunsNoSwitch: a gateway with Admission but no
// Degrade — the stampede's fixed arm — runs no degrade switch. Under a
// shed storm long enough for the default switch to turn on, it never
// degrades and never answers a shed anonymous read from the stale cache.
func TestGatewayFixedCapRunsNoSwitch(t *testing.T) {
	gw := NewGateway(GatewayOptions{
		HealthInterval: time.Minute,
		Admission: &overload.Config{
			Initial: 1, Min: 1, Max: 1, MaxQueue: 2,
			MaxWait: 5 * time.Millisecond,
		},
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
			}
		}()
	}
	wg.Wait()
	if st := gw.Status(); st.Shed == 0 {
		t.Fatal("the storm shed nothing, so no switch could have turned on")
	}
	if ov := gw.Status().Overload; ov.Degrading || ov.Flips != 0 {
		t.Fatalf("degrade switch ran without Degrade: on=%v after %d flips", ov.Degrading, ov.Flips)
	}
	if n := degraded.Load(); n != 0 {
		t.Fatalf("%d sheds answered from the stale cache without a switch", n)
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

// TestGatewayDegradeSwitch: a sustained shed storm drives limiter
// pressure up and the degrade switch turns on, after which sheds of a
// warmed anonymous read are answered from the stale cache; when the
// storm stops the pressure decays and the switch turns off.
func TestGatewayDegradeSwitch(t *testing.T) {
	gw := NewGateway(GatewayOptions{
		Admission: &overload.Config{
			Initial: 1, Min: 1, Max: 1, MaxQueue: 2,
			MaxWait:       5 * time.Millisecond,
			QueueInterval: 40 * time.Millisecond,
		},
		Degrade: &overload.SwitchConfig{Dwell: 20 * time.Millisecond},
	})
	defer gw.Close()
	stub := &stubAPI{}
	gw.AddReplica("r0", stub)
	f := dm.HLEFilter{Kind: "flare"}
	if _, err := gw.CountHLEs("", "10.9.0.3", f); err != nil {
		t.Fatal(err) // warms the stale cache for f
	}
	stub.delay.Store(int64(30 * time.Millisecond))

	// Storm: a closed swarm hammering a 1-permit gateway sheds nearly
	// everything, holding pressure high while it lasts.
	stop := make(chan struct{})
	var degraded atomic.Int64
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
				if _, err := gw.CountHLEs("", "10.9.0.3", f); IsDegraded(err) {
					degraded.Add(1)
				}
			}
		}()
	}

	deadline := time.Now().Add(5 * time.Second)
	for !gw.Status().Overload.Degrading || degraded.Load() == 0 {
		if time.Now().After(deadline) {
			st := gw.Status().Overload
			t.Fatalf("switch never degraded a shed: on=%v pressure %.2f, %d degraded",
				st.Degrading, st.Pressure, degraded.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// Recovery: arrivals stopped, pressure decays, the switch turns off.
	deadline = time.Now().Add(5 * time.Second)
	for gw.Status().Overload.Degrading {
		if time.Now().After(deadline) {
			t.Fatalf("switch never turned off; pressure %.2f", gw.Status().Overload.Pressure)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if fl := gw.Status().Overload.Flips; fl < 2 {
		t.Fatalf("flips = %d, want on and off (>= 2)", fl)
	}
}

// TestGatewayArrivalsFeedSwitch: every arrival samples pressure for the
// degrade switch, so a queue that builds without a single shed turns it
// on, as the brownout ladder's ticker did. Nothing else reads the switch
// until the one Status call at the end, which on its own could only arm
// it.
func TestGatewayArrivalsFeedSwitch(t *testing.T) {
	gw := NewGateway(GatewayOptions{
		HealthInterval: time.Minute,
		Admission: &overload.Config{
			Initial: 1, Min: 1, Max: 1, MaxQueue: 16,
			MaxWait: 2 * time.Second,
			// A long control interval: the queue stands without CoDel
			// shedding from it, and pressure barely decays.
			QueueInterval: 10 * time.Second,
		},
		Degrade: &overload.SwitchConfig{Dwell: 200 * time.Millisecond},
	})
	defer gw.Close()
	stub := &stubAPI{}
	stub.delay.Store(int64(20 * time.Millisecond))
	gw.AddReplica("r0", stub)

	stop := time.Now().Add(600 * time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				gw.CountHLEs("", "10.9.0.9", dm.HLEFilter{Kind: "flare"})
			}
		}()
	}
	wg.Wait()
	if st := gw.lim.Stats(); st.Sheds != 0 || st.Pressure < 0.55 {
		t.Fatalf("%d sheds, pressure %.2f; the test needs a queue that sheds nothing and holds pressure high", st.Sheds, st.Pressure)
	}
	if !gw.Status().Overload.Degrading {
		t.Fatal("a standing queue with no sheds left the switch off: arrivals did not sample it")
	}
}

// TestGatewaySwitchRestartsAfterQuiet: a storm turns the degrade switch
// on, then nothing reads it for longer than its dwell. The first shed
// after the quiet spell comes while pressure is still above the switch's
// exit level, yet it is not answered from the stale cache: a switch left
// unread restarts off, where the brownout ladder, ticking through the
// quiet, could have stepped all the way down.
func TestGatewaySwitchRestartsAfterQuiet(t *testing.T) {
	gw := NewGateway(GatewayOptions{
		HealthInterval: time.Minute,
		Admission: &overload.Config{
			Initial: 1, Min: 1, Max: 1, MaxQueue: 2,
			MaxWait: 5 * time.Millisecond,
			// Pressure halves only every 2s, so it is still high after
			// the quiet spell.
			QueueInterval: 2 * time.Second,
		},
		Degrade: &overload.SwitchConfig{Dwell: 20 * time.Millisecond},
	})
	defer gw.Close()
	stub := &stubAPI{}
	gw.AddReplica("r0", stub)
	f := dm.HLEFilter{Kind: "flare"}
	if _, err := gw.CountHLEs("", "10.9.0.6", f); err != nil {
		t.Fatal(err) // warms the stale cache for f
	}
	stub.delay.Store(int64(30 * time.Millisecond))

	var degraded atomic.Int64
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
				if _, err := gw.CountHLEs("", "10.9.0.6", f); IsDegraded(err) {
					degraded.Add(1)
				}
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for degraded.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the storm never turned the switch on")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	time.Sleep(100 * time.Millisecond) // quiet: five dwells, nobody reads the switch
	if p := gw.lim.Pressure(); p <= 0.25 {
		t.Fatalf("pressure %.2f after the quiet spell; the test needs it above the exit level", p)
	}
	held := make(chan struct{})
	go func() { // holds the one permit while the probe below queues and sheds
		defer close(held)
		gw.CountHLEs("", "10.9.0.7", f)
	}()
	time.Sleep(5 * time.Millisecond)
	_, err := gw.CountHLEs("", "10.9.0.8", f)
	<-held
	if IsDegraded(err) {
		t.Fatalf("first shed after the quiet spell answered from the stale cache: %v", err)
	}
	if !overload.IsOverload(err) {
		t.Fatalf("probe was not shed (err %v); the test needs a shed", err)
	}
}

// TestDegradeStartsAtStaleReads crosses every error class with the
// degrade switch off and on. Losing the live path degrades either way;
// an overload shed, bare or wrapped, only while the switch is on; an
// answer the replicas gave (a refusal, a missing entry) never: a stale
// copy would hide it.
func TestDegradeStartsAtStaleReads(t *testing.T) {
	shed := &overload.Error{Tier: "gateway"}
	classes := []struct {
		name         string
		err          error
		always, ifOn bool
	}{
		{"no replicas", ErrNoReplicas, true, true},
		{"replica unreachable", &dm.TransportError{Method: "QueryHLEs", Err: errors.New("connection refused")}, true, true},
		{"database unavailable", &dm.DBUnavailableError{Node: "replica-0"}, true, true},
		{"overload shed", shed, false, true},
		{"wrapped overload shed", fmt.Errorf("gateway: %w", shed), false, true},
		{"replica answer", errors.New("dm: permission denied"), false, false},
	}
	// An idle limiter reads pressure 0; the hour-long dwell keeps the
	// switch where the explicit samples below put it: armed 90 minutes
	// ago, on for the last 30.
	g := &Gateway{
		lim: overload.NewLimiter(overload.Config{}),
		deg: overload.NewSwitch(overload.SwitchConfig{Dwell: time.Hour}),
	}
	armed := time.Now().Add(-90 * time.Minute)
	for _, on := range []bool{false, true} {
		if on {
			g.deg.Observe(armed, 1)
			g.deg.Observe(armed.Add(time.Hour), 1)
		}
		for _, c := range classes {
			want := c.always || c.ifOn && on
			if got := g.canDegrade(c.err); got != want {
				t.Errorf("canDegrade(%s) with the switch on=%v = %v, want %v", c.name, on, got, want)
			}
		}
	}
}

// BenchmarkGatewayAdmission times one anonymous read through the gateway
// to a stub replica with admission off (the benchmark cell's gateway) and
// with the limiter and degrade switch at their defaults (what hedc-server
// deploys): the price each deployed request pays for overload control.
func BenchmarkGatewayAdmission(b *testing.B) {
	for _, bc := range []struct {
		name string
		opts GatewayOptions
	}{
		{"off", GatewayOptions{}},
		{"limiter+switch", GatewayOptions{Admission: &overload.Config{}, Degrade: &overload.SwitchConfig{}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			bc.opts.HealthInterval = time.Minute
			gw := NewGateway(bc.opts)
			defer gw.Close()
			gw.AddReplica("r0", &stubAPI{})
			f := dm.HLEFilter{Kind: "flare"}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gw.CountHLEs("", "10.9.0.5", f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
