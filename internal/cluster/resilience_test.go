package cluster

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/dbnet"
	"repro/internal/dm"
	"repro/internal/overload"
	"repro/internal/schema"
)

// --- circuit breaker unit tests ---

func TestBreakerLifecycle(t *testing.T) {
	b := circuit.New(3, 50*time.Millisecond)

	// Closed admits freely; failures below the threshold keep it closed.
	for i := 0; i < 2; i++ {
		if !b.TryAcquire() {
			t.Fatal("closed breaker refused a call")
		}
		b.Failure()
	}
	if st, fails, _ := b.Snapshot(); st != "closed" || fails != 2 {
		t.Fatalf("state %s fails %d, want closed/2", st, fails)
	}

	// The threshold failure opens it; an open breaker refuses.
	if !b.TryAcquire() {
		t.Fatal("closed breaker refused")
	}
	b.Failure()
	if st, _, opens := b.Snapshot(); st != "open" || opens != 1 {
		t.Fatalf("state %s opens %d, want open/1", st, opens)
	}
	if b.TryAcquire() {
		t.Fatal("open breaker admitted a call inside cooldown")
	}

	// After cooldown exactly one probe is admitted (half-open).
	time.Sleep(60 * time.Millisecond)
	if !b.TryAcquire() {
		t.Fatal("breaker past cooldown refused the probe")
	}
	if b.TryAcquire() {
		t.Fatal("half-open breaker admitted a second probe")
	}

	// A failed probe re-opens; a later successful probe closes.
	b.Failure()
	if st, _, opens := b.Snapshot(); st != "open" || opens != 2 {
		t.Fatalf("after failed probe: state %s opens %d, want open/2", st, opens)
	}
	time.Sleep(60 * time.Millisecond)
	if !b.TryAcquire() {
		t.Fatal("re-opened breaker refused probe after cooldown")
	}
	b.Success()
	if st, fails, _ := b.Snapshot(); st != "closed" || fails != 0 {
		t.Fatalf("after successful probe: state %s fails %d, want closed/0", st, fails)
	}
}

func TestBreakerSingleProbeUnderRace(t *testing.T) {
	b := circuit.New(1, 10*time.Millisecond)
	b.TryAcquire()
	b.Failure() // open
	time.Sleep(20 * time.Millisecond)

	// Many goroutines race for the half-open slot: exactly one wins.
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.TryAcquire() {
				admitted.Add(1)
			}
		}()
	}
	wg.Wait()
	if n := admitted.Load(); n != 1 {
		t.Fatalf("%d probes admitted, want exactly 1", n)
	}
}

func TestRetryBudgetDrainAndRefill(t *testing.T) {
	rb := newRetryBudget(1000, 3) // fast refill so the test stays quick
	for i := 0; i < 3; i++ {
		if !rb.take() {
			t.Fatalf("take %d refused with tokens in the bucket", i)
		}
	}
	if rb.take() {
		t.Fatal("take succeeded on a dry bucket")
	}
	time.Sleep(5 * time.Millisecond) // 1000/s refill: plenty
	if !rb.take() {
		t.Fatal("bucket did not refill")
	}
	if got := rb.remaining(); got > 3 {
		t.Fatalf("bucket overfilled past burst: %v", got)
	}
}

func TestJitterBounds(t *testing.T) {
	d := 10 * time.Millisecond
	for i := 0; i < 200; i++ {
		j := jitter(d)
		if j < d/2 || j >= d/2*3 {
			t.Fatalf("jitter(%v) = %v outside [d/2, 3d/2)", d, j)
		}
	}
}

// --- gateway integration ---

// TestGatewayDegradedBrowseOnDBLoss is the acceptance scenario: the shared
// database partitions away from every replica. Anonymous browse queries
// that were served before keep answering from the gateway's stale cache —
// tagged degraded — while writes fail fast with the typed DB-unavailable
// error, and private reads are never served from cache.
// TestFilterAffinityRendersEveryField: filterAffinity keys the stale
// cache, so a HLEFilter field it does not render would let two filters
// share one stale entry. Setting each field alone must give a key unlike
// the zero filter's and unlike every other single-field key.
func TestFilterAffinityRendersEveryField(t *testing.T) {
	zero := filterAffinity(dm.HLEFilter{})
	seen := map[string]string{zero: "the zero filter"}
	typ := reflect.TypeOf(dm.HLEFilter{})
	for i := 0; i < typ.NumField(); i++ {
		var f dm.HLEFilter
		field := reflect.ValueOf(&f).Elem().Field(i)
		switch field.Kind() {
		case reflect.String:
			field.SetString("x")
		case reflect.Bool:
			field.SetBool(true)
		case reflect.Int, reflect.Int64:
			field.SetInt(1)
		case reflect.Float64:
			field.SetFloat(1)
		default:
			t.Fatalf("HLEFilter.%s has kind %v: teach this test to set it", typ.Field(i).Name, field.Kind())
		}
		key := filterAffinity(f)
		if other, dup := seen[key]; dup {
			t.Errorf("HLEFilter.%s set alone renders %q, the key of %s", typ.Field(i).Name, key, other)
		}
		seen[key] = "HLEFilter." + typ.Field(i).Name
	}
}

func TestGatewayDegradedBrowseOnDBLoss(t *testing.T) {
	tc := startTestCell(t, 1, 20, dbnet.Options{}, CellOptions{
		Replicas: 2,
		// Health stays quiet for the test window: the replicas themselves
		// are fine, only the database behind them is gone.
		Gateway: GatewayOptions{HealthInterval: time.Minute}})

	si, err := tc.GW.Authenticate("sci", "pw", "10.1.0.1", dm.SessionHLE)
	if err != nil {
		t.Fatal(err)
	}
	f := dm.HLEFilter{Kind: "flare"}
	warm, err := tc.GW.QueryHLEs("", "10.1.0.1", f)
	if err != nil || len(warm) == 0 {
		t.Fatalf("warm query: %v (%d rows)", err, len(warm))
	}
	warmCount, err := tc.GW.CountHLEs("", "10.1.0.1", f)
	if err != nil {
		t.Fatal(err)
	}
	// A filter whose string fields end in the key separator.
	if _, err := tc.GW.QueryHLEs("", "10.1.0.1", dm.HLEFilter{Kind: "flare:", Owner: "x"}); err != nil {
		t.Fatal(err)
	}

	// Partition the shared database away from every replica.
	tc.Srvs[0].Close()

	// Anonymous browse still answers, marked degraded, with the cached data.
	got, err := tc.GW.QueryHLEs("", "10.1.0.1", f)
	if !IsDegraded(err) {
		t.Fatalf("query with DB gone: err = %v, want degraded marker", err)
	}
	if len(got) != len(warm) || got[0].ID != warm[0].ID {
		t.Fatalf("degraded result diverges: %d rows vs %d warm", len(got), len(warm))
	}
	var de *DegradedError
	if !asDegraded(err, &de) {
		t.Fatalf("degraded error has wrong concrete type: %T", err)
	}
	if de.Cause == nil || de.StaleWrites != 0 {
		t.Fatalf("degraded tag incomplete: %+v", de)
	}
	n, err := tc.GW.CountHLEs("", "10.1.0.1", f)
	if !IsDegraded(err) || n != warmCount {
		t.Fatalf("degraded count = %d (err %v), want %d with degraded marker", n, err, warmCount)
	}

	// A filter never served before has nothing cached: the typed failure
	// surfaces unmasked.
	if _, err := tc.GW.QueryHLEs("", "10.1.0.1", dm.HLEFilter{Kind: "burst"}); err == nil || IsDegraded(err) {
		t.Fatalf("uncached filter served anyway: %v", err)
	}
	// Nor is a filter whose fields only concatenate like a cached one's:
	// degrading it would hand out another filter's rows.
	if _, err := tc.GW.QueryHLEs("", "10.1.0.1", dm.HLEFilter{Kind: "flare", Owner: ":x"}); err == nil || IsDegraded(err) {
		t.Fatalf("filter served from another filter's stale entry: %v", err)
	}

	// Writes fail fast with the typed DB-unavailable error — no long
	// timeout, no cross-replica retry storm.
	start := time.Now()
	_, err = tc.GW.CreateHLE(si.Token, "10.1.0.1", &schema.HLE{
		KindHint: "flare", Day: 1, TStart: 9000, TStop: 9001, Version: 1, CalibVersion: 1,
	})
	elapsed := time.Since(start)
	if !dm.IsDBUnavailable(err) {
		t.Fatalf("write with DB gone: err = %v, want DB-unavailable", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("write took %v to fail — not fast", elapsed)
	}

	// Private reads never degrade to the anonymous cache.
	if _, err := tc.GW.CountHLEs(si.Token, "10.1.0.1", f); err == nil || IsDegraded(err) {
		t.Fatalf("tokened read served from anonymous cache: %v", err)
	}

	st := tc.GW.Status()
	if st.DegradedServes < 2 {
		t.Fatalf("DegradedServes = %d, want >= 2", st.DegradedServes)
	}
	if st.WritesFailedFast < 1 {
		t.Fatalf("WritesFailedFast = %d, want >= 1", st.WritesFailedFast)
	}
	if st.StaleEntries < 2 {
		t.Fatalf("StaleEntries = %d, want >= 2", st.StaleEntries)
	}
}

func asDegraded(err error, out **DegradedError) bool {
	d, ok := err.(*DegradedError)
	if ok {
		*out = d
	}
	return ok
}

// TestGatewayCircuitOpensOnDeadReplica: with the health prober quiet, the
// breaker alone must take a dead replica out of rotation after threshold
// consecutive transport failures, while traffic continues on the survivor.
func TestGatewayCircuitOpensOnDeadReplica(t *testing.T) {
	tc := startTestCell(t, 1, 10, dbnet.Options{}, CellOptions{Replicas: 2, Gateway: GatewayOptions{
		HealthInterval:   time.Minute, // breaker, not prober, does the work
		BreakerThreshold: 2,
		BreakerCooldown:  10 * time.Second,
		RetryBackoff:     time.Millisecond,
	}})

	tc.stopReplica("replica-0")
	// Failures route around the dead node; every call still succeeds.
	for i := 0; i < 12; i++ {
		if _, err := tc.GW.CountHLEs("", "10.2.0.1", dm.HLEFilter{Kind: "flare", HasDay: true, Day: int64(i)}); err != nil {
			t.Fatalf("call %d failed despite live sibling: %v", i, err)
		}
	}
	var dead MemberStatus
	for _, m := range tc.GW.Members() {
		if m.Name == "replica-0" {
			dead = m
		}
	}
	// noteFailure marks the node unhealthy on first failure; the breaker
	// records the failures it observed before that.
	if dead.Healthy {
		t.Fatal("dead replica still marked healthy")
	}
	if dead.Failed == 0 {
		t.Fatal("no failures recorded against the dead replica")
	}
	if tc.GW.Failovers() == 0 {
		t.Fatal("no failovers recorded")
	}
}

// TestGatewayPrioritySheds: under a fixed cap of one with a one-deep
// queue, anonymous browse has no queue room (Browse gets half of
// MaxQueue, here 0) and is shed at the door (it has a stale-cache
// lifeboat), while authenticated work queues for the slot.
func TestGatewayPrioritySheds(t *testing.T) {
	tc := startTestCell(t, 1, 5, dbnet.Options{}, CellOptions{
		Replicas: 1,
		Gateway: GatewayOptions{Admission: &overload.Config{
			Initial: 1, Min: 1, Max: 1, MaxQueue: 1, MaxWait: 2 * time.Second}},
		Capacity: Capacity{Workers: 1, CPUPerCall: 300 * time.Millisecond}})

	si, err := tc.GW.Authenticate("sci", "pw", "10.3.0.1", dm.SessionHLE)
	if err != nil {
		t.Fatal(err)
	}

	// Occupy the only admission slot.
	hold := make(chan struct{})
	go func() {
		defer close(hold)
		tc.GW.CountHLEs("", "10.3.0.1", dm.HLEFilter{Kind: "flare"})
	}()
	time.Sleep(50 * time.Millisecond)

	// Anonymous: shed at once, far faster than MaxWait.
	start := time.Now()
	_, err = tc.GW.CountHLEs("", "10.3.0.2", dm.HLEFilter{Kind: "burst"})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("anonymous read under full house: %v, want ErrOverloaded", err)
	}
	if ra, ok := overload.RetryAfterOf(err); !ok || ra <= 0 {
		t.Fatalf("fixed-cap shed carries no retry-after hint: %v", err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("anonymous shed took %v — it queued instead of shedding", d)
	}

	// Authenticated: waits out the slot and succeeds.
	if _, err := tc.GW.CountHLEs(si.Token, "10.3.0.3", dm.HLEFilter{Kind: "flare"}); err != nil {
		t.Fatalf("authenticated read was shed: %v", err)
	}
	<-hold
}

// TestPinnedCircuitOpenDemotesAndReaps is the satellite scenario: a pinned
// replica dies mid-session while an interactive transaction it (notionally)
// owned sits idle on the shared database. The gateway demotes the session
// the moment the replica's circuit opens, the database server reaps the
// orphaned transaction, and a re-authenticated session can write again.
func TestPinnedCircuitOpenDemotesAndReaps(t *testing.T) {
	tc := startTestCell(t, 1, 0, dbnet.Options{TxnIdleTimeout: 150 * time.Millisecond},
		CellOptions{Replicas: 2, Gateway: GatewayOptions{
			HealthInterval:   time.Minute, // the breaker must do the demotion
			BreakerThreshold: 1,
			BreakerCooldown:  10 * time.Second,
		}})
	gw, dbSrv := tc.GW, tc.Srvs[0]

	si, err := gw.Authenticate("sci", "pw", "10.4.0.1", dm.SessionHLE)
	if err != nil {
		t.Fatal(err)
	}
	gw.pinMu.Lock()
	pinned := gw.pins[si.Token]
	gw.pinMu.Unlock()
	if pinned == nil {
		t.Fatal("token not pinned")
	}

	// An interactive transaction goes idle on the shared database — the
	// writer lock a dying replica would leave behind.
	orphanCl, err := dbnet.Dial(dbnet.ClientOptions{Addr: dbSrv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer orphanCl.Close()
	orphan := orphanCl.BeginTx()
	if _, err := orphan.Insert(schema.TableHLE, (&schema.HLE{
		ID: "hle-orphan", Version: 1, Owner: "sci", KindHint: "flare",
		TStart: 1, TStop: 2, CalibVersion: 1,
	}).ToRow()); err != nil {
		t.Fatalf("orphan tx insert: %v", err)
	}
	// ...and is never committed: the replica that owned it is dead.

	tc.stopReplica(pinned.name)

	// First tokened call hits the dead pin, fails, demotes the session,
	// opens the circuit (threshold 1), and fails over to the sibling.
	if _, err := gw.CountHLEs(si.Token, "10.4.0.1", dm.HLEFilter{Kind: "flare"}); err != nil {
		t.Fatalf("browse after pinned replica death: %v", err)
	}
	if gw.Status().SessionDemotions != 1 {
		t.Fatalf("SessionDemotions = %d, want 1", gw.Status().SessionDemotions)
	}
	gw.pinMu.Lock()
	_, stillPinned := gw.pins[si.Token]
	gw.pinMu.Unlock()
	if stillPinned {
		t.Fatal("dead pin not removed")
	}
	var deadCircuit string
	for _, m := range gw.Members() {
		if m.Name == pinned.name {
			deadCircuit = m.Circuit
		}
	}
	if deadCircuit != "open" {
		t.Fatalf("dead replica circuit = %q, want open", deadCircuit)
	}

	// The database server reaps the idle transaction...
	deadline := time.Now().Add(3 * time.Second)
	for dbSrv.TxnTimeouts() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle transaction never reaped")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// ...so a re-authenticated session can take the writer lock and write.
	si2, err := gw.Authenticate("sci", "pw", "10.4.0.1", dm.SessionHLE)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gw.CreateHLE(si2.Token, "10.4.0.1", &schema.HLE{
		KindHint: "flare", Day: 3, TStart: 5000, TStop: 5001, Version: 1, CalibVersion: 1,
	}); err != nil {
		t.Fatalf("write after reap: %v", err)
	}
}
