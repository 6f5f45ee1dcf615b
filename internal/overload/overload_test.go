package overload

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestTypedErrorCompat(t *testing.T) {
	var err error = &Error{RetryAfter: 40 * time.Millisecond, Tier: "gateway"}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatal("typed shed must match errors.Is(_, ErrOverloaded)")
	}
	wrapped := fmt.Errorf("request failed: %w", err)
	if !errors.Is(wrapped, ErrOverloaded) {
		t.Fatal("wrapped shed must still match the sentinel")
	}
	if !IsOverload(wrapped) {
		t.Fatal("IsOverload must see through wrapping")
	}
	ra, ok := RetryAfterOf(wrapped)
	if !ok || ra != 40*time.Millisecond {
		t.Fatalf("RetryAfterOf = %v, %v; want 40ms, true", ra, ok)
	}
	if IsOverload(errors.New("other")) {
		t.Fatal("IsOverload must reject unrelated errors")
	}
	if _, ok := RetryAfterOf(nil); ok {
		t.Fatal("RetryAfterOf(nil) must report false")
	}
}

// TestLimiterGrowsWhenHealthy: a saturated limiter whose latencies stay
// flat must grow its limit additively window after window.
func TestLimiterGrowsWhenHealthy(t *testing.T) {
	l := NewLimiter(Config{Initial: 4, Min: 2, Max: 64, Window: 8})
	for w := 0; w < 10; w++ {
		permits := make([]*Permit, 0, l.Stats().Limit)
		for len(permits) < l.Stats().Limit {
			p, err := l.Acquire(Interactive)
			if err != nil {
				t.Fatalf("unexpected shed: %v", err)
			}
			permits = append(permits, p)
		}
		for _, p := range permits {
			p.ReleaseLatency(10 * time.Millisecond)
		}
	}
	if got := l.Stats().Limit; got <= 4 {
		t.Fatalf("limit = %d after healthy saturated windows, want growth above 4", got)
	}
}

// TestLimiterBacksOffOnLatencyDrift: once the p99 drifts far beyond the
// established baseline p50, the limit must decrease multiplicatively.
func TestLimiterBacksOffOnLatencyDrift(t *testing.T) {
	l := NewLimiter(Config{Initial: 16, Min: 2, Max: 64, Window: 8, tolerance: 4})
	feed := func(lat time.Duration, n int) {
		for i := 0; i < n; i++ {
			p, err := l.Acquire(Interactive)
			if err != nil {
				t.Fatalf("unexpected shed: %v", err)
			}
			p.ReleaseLatency(lat)
		}
	}
	feed(10*time.Millisecond, 16) // two healthy windows establish the baseline
	before := l.Stats().Limit
	feed(200*time.Millisecond, 16) // congested: p99 = 20× baseline p50
	if got := l.Stats().Limit; got >= before {
		t.Fatalf("limit = %d after latency drift, want below %d", got, before)
	}
	if st := l.Stats(); st.Backoffs == 0 {
		t.Fatal("backoff counter did not move")
	}
}

// TestLimiterCountsOnlyRealBackoffs: a limit at its floor cannot back
// off, so a fixed cap (Min = Max) reports no backoffs however often the
// tiers below push back, and a breathing limit stops counting once it
// reaches Min.
func TestLimiterCountsOnlyRealBackoffs(t *testing.T) {
	push := func(l *Limiter, n int) LimiterStats {
		for i := 0; i < n; i++ {
			time.Sleep(time.Millisecond) // past the one-per-interval rate limit
			l.Backpressure()
		}
		return l.Stats()
	}
	pinned := NewLimiter(Config{Initial: 1, Min: 1, Max: 1, QueueInterval: time.Microsecond})
	if st := push(pinned, 3); st.Limit != 1 || st.Min != 1 || st.Max != 1 || st.Backoffs != 0 {
		t.Fatalf("pinned limiter after 3 pushbacks: limit=%d [%d, %d] backoffs=%d, want 1 [1, 1] 0",
			st.Limit, st.Min, st.Max, st.Backoffs)
	}
	// 4 -> 3 -> 2, then the floor holds: two real decreases.
	l := NewLimiter(Config{Initial: 4, Min: 2, Max: 8, QueueInterval: time.Microsecond})
	if st := push(l, 6); st.Limit != 2 || st.Backoffs != 2 {
		t.Fatalf("limiter after 6 pushbacks: limit=%d backoffs=%d, want 2 and 2", st.Limit, st.Backoffs)
	}
}

// TestLimiterShedsWithRetryAfter: with the limit fully held and the
// queue capped to nothing, new arrivals shed immediately with a typed
// error carrying a positive retry-after hint.
func TestLimiterShedsWithRetryAfter(t *testing.T) {
	l := NewLimiter(Config{Initial: 1, Min: 1, Max: 1, MaxQueue: 4, MaxWait: 20 * time.Millisecond})
	p, err := l.Acquire(Interactive)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	defer p.ReleaseLatency(time.Millisecond)

	// Bulk's queue cap is MaxQueue/4 = 1: the second bulk arrival sheds
	// at the door.
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := l.Acquire(Bulk)
			done <- err
		}()
	}
	var sheds int
	for i := 0; i < 2; i++ {
		err := <-done
		if err == nil {
			t.Fatal("acquire succeeded with the only permit held")
		}
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("shed error %v does not match sentinel", err)
		}
		ra, ok := RetryAfterOf(err)
		if !ok || ra <= 0 {
			t.Fatalf("shed error carries no retry-after hint: %v", err)
		}
		sheds++
	}
	if st := l.Stats(); st.Sheds != int64(sheds) || st.ShedByPri[Bulk] != int64(sheds) {
		t.Fatalf("stats = %+v, want %d bulk sheds", st, sheds)
	}
}

// TestLimiterPriorityGrantOrder: with capacity exhausted, a queued
// interactive waiter must be granted before an earlier-queued browse
// waiter.
func TestLimiterPriorityGrantOrder(t *testing.T) {
	l := NewLimiter(Config{Initial: 1, Min: 1, Max: 1, MaxWait: 2 * time.Second})
	p, err := l.Acquire(Interactive)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}

	type result struct {
		pri Priority
		at  time.Time
	}
	grants := make(chan result, 2)
	var wg sync.WaitGroup
	start := func(pri Priority) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gp, err := l.Acquire(pri)
			if err != nil {
				t.Errorf("acquire %v: %v", pri, err)
				return
			}
			grants <- result{pri: pri, at: time.Now()}
			time.Sleep(5 * time.Millisecond)
			gp.ReleaseLatency(5 * time.Millisecond)
		}()
	}
	start(Browse)
	time.Sleep(20 * time.Millisecond) // browse is queued first
	start(Interactive)
	time.Sleep(20 * time.Millisecond)
	p.ReleaseLatency(time.Millisecond) // frees exactly one slot at a time
	wg.Wait()
	close(grants)
	var order []Priority
	for r := range grants {
		order = append(order, r.pri)
	}
	if len(order) != 2 || order[0] != Interactive {
		t.Fatalf("grant order = %v, want interactive first", order)
	}
}

// TestLimiterMaxWaitSheds: a waiter that outlives MaxWait is shed with
// the typed error, and the limiter's bookkeeping stays consistent.
func TestLimiterMaxWaitSheds(t *testing.T) {
	l := NewLimiter(Config{Initial: 1, Min: 1, Max: 1, MaxWait: 30 * time.Millisecond})
	p, err := l.Acquire(Interactive)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if _, err := l.Acquire(Interactive); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queued waiter past MaxWait: err = %v, want overload", err)
	}
	p.ReleaseLatency(time.Millisecond)
	// The abandoned waiter must not absorb the freed slot.
	p2, err := l.Acquire(Interactive)
	if err != nil {
		t.Fatalf("acquire after shed: %v", err)
	}
	p2.ReleaseLatency(time.Millisecond)
	if st := l.Stats(); st.Inflight != 0 || st.Queued != 0 {
		t.Fatalf("inflight/queued = %d/%d after drain, want 0/0", st.Inflight, st.Queued)
	}
}

// TestPressureDecays: pressure spikes with sheds and falls back toward
// zero once arrivals stop, so the ladder can exit brownout.
func TestPressureDecays(t *testing.T) {
	l := NewLimiter(Config{Initial: 1, Min: 1, Max: 1, MaxQueue: 4,
		QueueInterval: 20 * time.Millisecond, MaxWait: 10 * time.Millisecond})
	p, _ := l.Acquire(Interactive)
	for i := 0; i < 30; i++ {
		l.Acquire(Bulk) // cap 1: all but the first shed immediately
	}
	high := l.Pressure()
	if high < 0.3 {
		t.Fatalf("pressure = %.2f after a shed storm, want >= 0.3", high)
	}
	time.Sleep(200 * time.Millisecond) // 10 half-lives
	low := l.Pressure()
	if low > high/4 {
		t.Fatalf("pressure = %.2f after quiet period, want decay from %.2f", low, high)
	}
	p.ReleaseLatency(time.Millisecond)
}

func TestLadderHysteresis(t *testing.T) {
	lad := NewLadder(&LadderConfig{
		Enter: [4]float64{0, 0.30, 0.55, 0.80},
		Exit:  [4]float64{0, 0.10, 0.25, 0.45},
		Dwell: 10 * time.Millisecond,
	})
	now := time.Now()
	step := func(p float64, want Stage) {
		t.Helper()
		now = now.Add(11 * time.Millisecond) // one dwell per observation
		if got := lad.Observe(now, p); got != want {
			t.Fatalf("Observe(%.2f) = %v, want %v", p, got, want)
		}
	}
	step(0.2, StageNormal)  // below enter: stays put
	step(0.4, StageNoHedge) // crosses enter[1]
	step(0.2, StageNoHedge) // above exit[1]=0.10: hysteresis holds
	step(0.9, StageStaleReads)
	step(0.9, StageShedBulk) // one rung per dwell, not a jump
	step(0.5, StageShedBulk) // above exit[3]=0.45: holds
	step(0.3, StageStaleReads)
	step(0.05, StageNoHedge)
	step(0.05, StageNormal)
	if lad.Transitions() != 6 {
		t.Fatalf("transitions = %d, want 6", lad.Transitions())
	}
}

func TestLadderDwellBlocksFlapping(t *testing.T) {
	lad := NewLadder(&LadderConfig{
		Enter: [4]float64{0, 0.30, 0.55, 0.80},
		Exit:  [4]float64{0, 0.10, 0.25, 0.45},
		Dwell: time.Hour,
	})
	now := time.Now()
	if got := lad.Observe(now, 0.9); got != StageNoHedge {
		t.Fatalf("first observation = %v, want no-hedge", got)
	}
	// Within the dwell window nothing moves, no matter the pressure.
	for i := 0; i < 5; i++ {
		now = now.Add(time.Second)
		if got := lad.Observe(now, 0.9); got != StageNoHedge {
			t.Fatalf("stage moved inside dwell window: %v", got)
		}
	}
}

// TestLimiterConcurrentChurn hammers Acquire/Release from many
// goroutines to give the race detector a surface; invariants checked at
// the end.
func TestLimiterConcurrentChurn(t *testing.T) {
	l := NewLimiter(Config{Initial: 8, Min: 2, Max: 32, Window: 16,
		MaxWait: 50 * time.Millisecond, QueueInterval: 10 * time.Millisecond})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		pri := Priority(g % int(numPriorities))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p, err := l.Acquire(pri)
				if err != nil {
					continue
				}
				time.Sleep(time.Duration(i%3) * time.Millisecond)
				p.Release()
			}
		}()
	}
	wg.Wait()
	st := l.Stats()
	if st.Inflight != 0 || st.Queued != 0 {
		t.Fatalf("leaked capacity: inflight=%d queued=%d", st.Inflight, st.Queued)
	}
	if st.Admitted == 0 {
		t.Fatal("nothing was admitted")
	}
}

// acquired is the outcome of one asynchronous Acquire.
type acquired struct {
	p   *Permit
	err error
}

// acquireAsync starts an Acquire on its own goroutine and waits until
// the limiter holds it as a queued waiter or it has returned. The
// caller releases a granted permit.
func acquireAsync(t *testing.T, l *Limiter, pri Priority) chan acquired {
	t.Helper()
	queued := l.Stats().Queued
	done := make(chan acquired, 1)
	go func() {
		p, err := l.Acquire(pri)
		done <- acquired{p, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().Queued == queued && len(done) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%v acquire neither queued nor returned", pri)
		}
		time.Sleep(time.Millisecond)
	}
	return done
}

// TestLimiterBulkQueueIsAQuarter: Bulk waits in MaxQueue/4 slots, so
// with two bulk waiters queued under MaxQueue 8 the third bulk arrival
// sheds at the door instead of joining the queue.
func TestLimiterBulkQueueIsAQuarter(t *testing.T) {
	l := NewLimiter(Config{Initial: 1, Min: 1, Max: 1, MaxQueue: 8, MaxWait: 5 * time.Second})
	p, err := l.Acquire(Interactive)
	if err != nil {
		t.Fatal(err)
	}
	w1, w2 := acquireAsync(t, l, Bulk), acquireAsync(t, l, Bulk)
	w3 := acquireAsync(t, l, Bulk)
	if st := l.Stats(); st.Queued != 2 || st.ShedByPri[Bulk] != 1 {
		t.Fatalf("queued = %d, bulk sheds = %d; want 2 and 1", st.Queued, st.ShedByPri[Bulk])
	}
	if r := <-w3; !errors.Is(r.err, ErrOverloaded) {
		t.Fatalf("third bulk arrival: err = %v, want a door shed", r.err)
	}
	p.ReleaseLatency(time.Millisecond)
	for _, w := range []chan acquired{w1, w2} {
		r := <-w
		if r.err != nil {
			t.Fatalf("queued bulk waiter: %v", r.err)
		}
		r.p.ReleaseLatency(time.Millisecond)
	}
}

// intoDropping drives a one-permit limiter (QueueInterval 30ms, target
// 20ms) until CoDel is dropping: a first waiter's sojourn above target
// arms the controller, and a second one, dequeued a full interval later
// and still above target, enters the dropping state. That second waiter
// is the only one queued. It returns the limiter and the permit the
// second waiter was granted, or the error it was shed with.
func intoDropping(t *testing.T) (*Limiter, *Permit, error) {
	t.Helper()
	l := NewLimiter(Config{Initial: 1, Min: 1, Max: 1, QueueInterval: 30 * time.Millisecond, MaxWait: 5 * time.Second})
	p, err := l.Acquire(Interactive)
	if err != nil {
		t.Fatal(err)
	}
	for _, sojourn := range []time.Duration{25 * time.Millisecond, 40 * time.Millisecond} {
		w := acquireAsync(t, l, Interactive)
		time.Sleep(sojourn)
		p.ReleaseLatency(time.Millisecond)
		r := <-w
		if r.err != nil {
			return l, nil, r.err
		}
		p = r.p
	}
	return l, p, nil
}

// TestCoDelSparesTheLastWaiter: shedding the only queued waiter would
// free capacity for nobody, so the dequeue that enters the dropping
// state grants it.
func TestCoDelSparesTheLastWaiter(t *testing.T) {
	_, p, err := intoDropping(t)
	if err != nil {
		t.Fatalf("the last queued waiter was shed: %v", err)
	}
	p.ReleaseLatency(time.Millisecond)
}

// TestCoDelDoorShedSparesInteractive: while CoDel is dropping, a Browse
// arrival is shed at the door, but an Interactive one still queues.
func TestCoDelDoorShedSparesInteractive(t *testing.T) {
	l, p, err := intoDropping(t)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Acquire(Browse); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("browse arrival while dropping: err = %v, want a door shed", err)
	}
	w := acquireAsync(t, l, Interactive)
	if st := l.Stats(); st.Queued != 1 || st.ShedByPri[Interactive] != 0 {
		t.Fatalf("interactive arrival while dropping was shed at the door: %+v", st)
	}
	p.ReleaseLatency(time.Millisecond)
	r := <-w
	if r.err != nil {
		t.Fatalf("queued interactive waiter: %v", r.err)
	}
	r.p.ReleaseLatency(time.Millisecond)
}
